from __future__ import annotations

import json
import random

import pytest

from sumperfect.cli import main
from sumperfect.graph6 import emit_graph6, parse_graph6
from sumperfect.graphs import cycle_graph, from_edge_list
from sumperfect.invariants import DEFICIENCY_MAX, LOVASZ_MAX


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_text_format(capsys):
    code, out, _ = run(capsys, "family", "--set", "F")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 27
    idx, name, g6 = lines[0].split("\t")
    assert idx == "1" and name == "C5"
    assert parse_graph6(g6).n == 5


def test_family_b_set(capsys):
    code, out, _ = run(capsys, "family", "--set", "B", "--format", "graph6")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 24
    for line in lines:
        assert parse_graph6(line).n == 6


def test_family_graph6_reparses_isomorphic(capsys):
    from sumperfect.canon import canonical_key
    from sumperfect.family import build_family

    code, out, _ = run(capsys, "family", "--format", "graph6")
    keys = {canonical_key(parse_graph6(line)) for line in out.strip().splitlines()}
    assert keys == set(build_family().keys())


def test_family_edges_format(capsys):
    code, out, _ = run(capsys, "family", "--format", "edges")
    assert code == 0
    assert "# 1 C5" in out


def test_analyze_json(tmp_path, capsys, c5):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(c5) + "\n")
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0 and not err
    rec = json.loads(out.strip())
    assert rec["alpha"] == 2 and rec["omega"] == 2 and rec["deficit"] == 1
    assert rec["sum_perfect"] is False
    assert rec["forbidden_name"] == "C5" and rec["forbidden_index"] == 1
    assert rec["nu"] == 2 and rec["tau"] == 3 and rec["triangles"] == 0


def test_analyze_json_on_random_31_vertex_host(tmp_path, capsys):
    # A G(31, 0.5) host like those of the benchmark's recognition corpus.
    rng = random.Random(31)
    g = from_edge_list(31, [(i, j) for i in range(31) for j in range(i + 1, 31)
                            if rng.random() < 0.5])
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(g) + "\n")
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0 and not err
    rec = json.loads(out.strip())
    assert rec["n"] == 31 and rec["nu"] == 15


def test_analyze_k33(tmp_path, capsys, k33):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(k33) + "\n")
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    rec = json.loads(out.strip())
    assert rec["alpha"] == 3 and rec["omega"] == 2 and rec["nu"] == 3
    assert rec["sum_perfect"] is False and rec["forbidden_index"] == 13


def test_analyze_empty_input(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("")
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0 and out == "" and err == ""


def test_analyze_parse_error_continues(tmp_path, capsys, c5):
    path = tmp_path / "in.g6"
    path.write_text("!!notgraph6!!\n" + emit_graph6(c5) + "\n")
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 2
    assert "line 1" in err
    assert len(out.strip().splitlines()) == 1


def test_non_ascii_line_is_one_parse_error(tmp_path, capsys, c5):
    path = tmp_path / "in.g6"
    path.write_bytes(b"\xff\n" + emit_graph6(c5).encode() + b"\n")
    code, out, err = run(capsys, "recognize", str(path))
    assert code == 2
    assert err.count("parse error: line 1:") == 1 and len(err.splitlines()) == 1
    assert json.loads(out)["id"] == "line 2"


def test_analyze_edge_list_blocks(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n\n3\n0 1\n")
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and len(recs) == 2
    assert recs[0]["n"] == 5 and recs[1]["n"] == 3


def test_recognize_wire_format(tmp_path, capsys, c5):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(c5) + "\n" + emit_graph6(cycle_graph(3)) + "\n")
    code, out, _ = run(capsys, "recognize", str(path))
    neg, pos = (json.loads(line) for line in out.strip().splitlines())
    assert code == 0
    assert set(neg) == {
        "id", "verdict", "witness_kind", "witness_vertices",
        "forbidden_index", "forbidden_name",
    }
    assert neg["verdict"] is False and neg["forbidden_index"] == 1
    assert neg["witness_kind"] == "forbidden_copy"
    assert neg["witness_vertices"] == [0, 1, 2, 3, 4]
    assert pos["verdict"] is True and pos["forbidden_index"] is None


def test_recognize_witness_flag(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(cycle_graph(3)) + "\n")
    code, out, _ = run(capsys, "recognize", str(path), "--witness")
    rec = json.loads(out.strip())
    assert rec["witness_kind"] == "stable_clique_pair"
    assert set(rec["witness_vertices"]) == {"stable", "clique"}


def test_recognize_all_witnesses(tmp_path, capsys):
    from sumperfect.graphs import disjoint_union, from_edge_list

    g = disjoint_union(cycle_graph(5), from_edge_list(1, []))
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(g) + "\n")
    code, out, _ = run(capsys, "recognize", str(path), "--all-witnesses")
    rec = json.loads(out.strip())
    assert rec["verdict"] is False
    assert len(rec["all_copies"]) == 1
    assert rec["all_copies"][0]["forbidden_index"] == 1


def test_mine_emits_certs_then_summary(capsys):
    code, out, _ = run(capsys, "mine", "--class", "threshold", "--max-n", "4",
                       "--jobs", "1")
    lines = out.strip().splitlines()
    assert code == 0
    summary = json.loads(lines[-1])
    assert summary == {
        "class": "threshold", "max_n": 4,
        "counts_by_order": {"4": 3}, "total": 3,
    }
    assert len(lines) == 4
    for line in lines[:-1]:
        assert parse_graph6(line).n == 4


def test_mine_bad_class(capsys):
    code, _, err = run(capsys, "mine", "--class", "nope", "--max-n", "4")
    assert code == 2 and "unknown class" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("mine", "--class", "threshold", "--max-n", "4"),
    ("verify", "conjecture", "--max-n", "4"),
    ("verify", "threshold", "--max-n", "4"),
])
def test_jobs_below_one_is_a_usage_error(capsys, argv, jobs):
    code, out, err = run(capsys, *argv, "--jobs", jobs)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cls", ["sum-perfect", "perfect", "threshold", "deficiency:1"])
def test_mine_stdout_is_independent_of_jobs(capsys, cls):
    outs = [run(capsys, "mine", "--class", cls, "--max-n", "7", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert outs[0][0] == outs[1][0] == 0
    assert outs[0][1] == outs[1][1]
    assert len(outs[0][1].splitlines()) > 1  # certificates, then the summary


def test_mine_from_source(tmp_path, capsys, c5):
    src = tmp_path / "src.g6"
    src.write_text(emit_graph6(c5) + "\n")
    code, out, _ = run(capsys, "mine", "--class", "sum-perfect", "--max-n", "5",
                       "--jobs", "1", "--source", str(src))
    lines = out.strip().splitlines()
    assert code == 0 and json.loads(lines[-1])["total"] == 1


def test_verify_threshold_pass(capsys):
    code, out, _ = run(capsys, "verify", "threshold", "--max-n", "6", "--jobs", "1")
    assert code == 0
    assert "threshold: PASS" in out


def test_verify_theorem27_small(capsys):
    code, out, _ = run(capsys, "verify", "theorem27", "--max-n", "7", "--jobs", "1")
    assert code == 0
    assert "theorem27: PASS" in out


def test_verify_conjecture_small(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--max-n", "6", "--jobs", "1")
    assert code == 0
    assert "conjecture: PASS" in out


def test_verify_envelope_usage_error(capsys):
    code, _, err = run(capsys, "verify", "conjecture", "--max-n", "11")
    assert code == 2 and "max-n" in err
    # Below order 7 the two 7-vertex members cannot appear.
    code, _, err = run(capsys, "verify", "theorem27", "--max-n", "6")
    assert code == 2 and "7..9" in err


@pytest.mark.parametrize("cls, limit", [("perfect", LOVASZ_MAX),
                                        ("sum-perfect", DEFICIENCY_MAX)])
def test_mine_source_beyond_scan_envelope(tmp_path, capsys, cls, limit):
    # A source graph one vertex past the class's subset-scan envelope is
    # refused, not scanned, whatever --max-n says.
    src = tmp_path / "big.g6"
    src.write_text(emit_graph6(cycle_graph(limit + 1)) + "\n")
    code, out, err = run(capsys, "mine", "--class", cls, "--max-n", "10",
                         "--source", str(src))
    assert code == 2 and out == "" and f"n <= {limit}" in err


def test_mine_source_refuses_checkpoint(tmp_path, capsys, c5):
    src = tmp_path / "src.g6"
    src.write_text(emit_graph6(c5) + "\n")
    ckpt = tmp_path / "c.ckpt"
    code, out, err = run(capsys, "mine", "--class", "sum-perfect", "--max-n", "5",
                         "--source", str(src), "--checkpoint", str(ckpt))
    assert code == 2 and out == "" and "checkpoint" in err
    assert not ckpt.exists()


@pytest.mark.parametrize("target", ["theorem27", "threshold"])
def test_verify_refuses_checkpoint(tmp_path, capsys, target):
    ckpt = tmp_path / "c.ckpt"
    code, out, err = run(capsys, "verify", target, "--max-n", "7",
                         "--checkpoint", str(ckpt))
    assert code == 2 and out == "" and "checkpoint" in err
    assert not ckpt.exists()


def test_directory_input_is_a_file_error(tmp_path, capsys):
    code, out, err = run(capsys, "recognize", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_directory_checkpoint_is_a_file_error(tmp_path, capsys):
    code, out, err = run(capsys, "mine", "--class", "threshold", "--max-n", "4",
                         "--jobs", "1", "--checkpoint", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_usage_error_exit_code(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "mine", "--max-n", "4")[0] == 2  # missing --class


def test_stdin_input(capsys, monkeypatch, c5):
    import io

    stdin = io.TextIOWrapper(io.BytesIO((emit_graph6(c5) + "\n").encode()))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run(capsys, "recognize", "-")
    assert code == 0 and json.loads(out.strip())["verdict"] is False


def test_non_ascii_stdin_line_is_one_parse_error():
    # A strict UTF-8 text layer on stdin must not fail the whole input: the
    # bad byte fails only its own line, as it does when read from a file.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from sumperfect.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "recognize", "-"],
        input=b"D?{\n\xff\nD?{\n",
        env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"},
        capture_output=True,
        timeout=120,
    )
    err = proc.stderr.decode("utf-8", errors="replace")
    assert proc.returncode == 2
    assert err.count("parse error: line 2:") == 1 and len(err.splitlines()) == 1
    ids = [json.loads(line)["id"] for line in proc.stdout.decode().splitlines()]
    assert ids == ["line 1", "line 3"]
