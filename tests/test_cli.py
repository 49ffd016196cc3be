from __future__ import annotations

import hashlib
import json
import random

import pytest

import sumperfect.cli as cli
from sumperfect.cli import main
from sumperfect.enumeration import ENUM_MAX
from sumperfect.graph6 import emit_graph6, parse_graph6
from sumperfect.graphs import complete_graph, cycle_graph, disjoint_union, from_edge_list
from sumperfect.invariants import SUBSET_MAX
from sumperfect.mining import ConjectureReport, MineResult, Theorem27Report, ThresholdReport


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


def test_family_json_format(capsys):
    code, out, _ = run(capsys, "family", "--format", "json")
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and [r["index"] for r in recs] == list(range(1, 28))
    for rec in recs:
        g = parse_graph6(rec["graph6"])
        assert g.n == rec["n"] and [list(e) for e in g.edges()] == rec["edges"]


def test_analyze_text_format(tmp_path, capsys, c5):
    # C5 has a forbidden copy; K4 has none, so its forbidden_name shows "-".
    path = tmp_path / "in.g6"
    path.write_text(emit_graph6(c5) + "\n!!bad\n" + emit_graph6(complete_graph(4)) + "\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and err.count("parse error: line 2:") == 1
    header, *rows = out.splitlines()
    names = header.split()
    assert names == list(cli._ANALYZE_COLUMNS) and len(names) == 13
    starts = [header.index(name) for name in names]
    fields = [
        [row[a:b].rstrip() for a, b in zip(starts, starts[1:] + [None])] for row in rows
    ]
    assert [f[:2] + f[8:10] for f in fields] == [
        ["line 1", "5", "False", "C5"],
        ["line 3", "4", "True", "-"],
    ]
    for row in rows:
        assert all(row[a - 1] == " " and row[a] != " " for a in starts[1:])
    assert not any(line.endswith(" ") for line in out.splitlines())


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


def test_recognize_witness_output_is_pinned(tmp_path, capsys):
    # Forbidden-copy embeddings are read off canonical orders, so these bytes
    # also pin the canonical search. Re-pin only with a deliberate change of
    # either.
    rng = random.Random(29)
    lines = []
    for n in range(5, 13):
        for _ in range(100):
            p = rng.random()
            lines.append(emit_graph6(from_edge_list(n, [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
            ])))
    for n in (14, 15, 16):
        # Split hosts: a clique half, a stable half, random cross edges.
        k = n // 2
        lines.append(emit_graph6(from_edge_list(n, [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if j < k or (i < k and rng.random() < 0.5)
        ])))
    path = tmp_path / "in.g6"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "recognize", str(path), "--witness")
    assert code == 0 and len(out.splitlines()) == 803
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "08d9b2be93d7745d940c5a773682c11c458bc29f387560a880f4d60bdd0fed58"
    )


def test_family_and_analyze_output_is_pinned(tmp_path, capsys):
    # Every family set and format, then analyze text and JSON over seeded
    # G(n, p) graphs with n = 0..12 and a bad line, and over one edge-list
    # block. Re-pin only with a deliberate change of the printed tables.
    rng = random.Random(25)
    lines = []
    for n in range(13):
        for _ in range(3):
            p = rng.random()
            lines.append(emit_graph6(from_edge_list(n, [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
            ])))
    lines.insert(20, "not graph6")
    g6 = tmp_path / "mix.g6"
    g6.write_text("\n".join(lines) + "\n")
    edges = tmp_path / "mix.txt"
    edges.write_text("7\n0 1\n1 2\n2 3\n3 4\n4 0\n5 6\n")
    runs = [("family", "--set", s, "--format", f)
            for s in ("F", "B") for f in ("text", "json", "graph6", "edges")]
    runs += [("analyze", str(path), "--format", f)
             for path in (g6, edges) for f in ("text", "json")]
    digest = hashlib.sha256()
    for argv in runs:
        code, out, _ = run(capsys, *argv)
        assert code == (2 if str(g6) in argv else 0)
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "398cd7db767dab3a9b7d40c1792c860a8c504e944497a0f6422416a7764a44f8"
    )


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


@pytest.mark.parametrize("param", ["x", "", "1.5", "1_0", "-1", " 1"])
def test_mine_bad_deficiency_parameter(capsys, param):
    code, out, err = run(capsys, "mine", "--class", f"deficiency:{param}", "--max-n", "4")
    assert code == 2 and out == ""
    assert err == f"error: deficiency parameter must be an integer >= 0, got {param!r}\n"


def test_mine_deficiency_parameter_above_the_int_digit_limit(capsys):
    param = "1" * 5000
    code, out, err = run(capsys, "mine", "--class", f"deficiency:{param}", "--max-n", "3")
    assert code == 2 and out == ""
    assert err == f"error: deficiency parameter must be an integer >= 0, got {param!r}\n"


def test_mine_source_parse_error_mines_nothing(tmp_path, capsys):
    src = tmp_path / "src.g6"
    src.write_text("Dhc\n!!bad\nD?{\n")
    code, out, err = run(capsys, "mine", "--class", "sum-perfect", "--max-n", "5",
                         "--jobs", "1", "--source", str(src))
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 2:") and len(err.splitlines()) == 1


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


def test_verify_threshold_stdout_is_independent_of_jobs(capsys):
    outs = [run(capsys, "verify", "threshold", "--max-n", "7", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert outs[0][0] == outs[1][0] == 0
    assert outs[0][1] == outs[1][1]


def test_verify_theorem27_small(capsys):
    code, out, _ = run(capsys, "verify", "theorem27", "--max-n", "7", "--jobs", "1")
    assert code == 0
    assert "theorem27: PASS" in out


def test_verify_conjecture_small(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "--max-n", "6", "--jobs", "1")
    assert code == 0
    assert "conjecture: PASS" in out


def test_verify_theorem27_fail_prints_every_large_certificate(capsys, monkeypatch):
    certs = [(b"", cycle_graph(5)), (b"", cycle_graph(8)), (b"", cycle_graph(9))]
    mine = MineResult("sum-perfect", 9, {9: 1, 5: 1, 8: 1}, certs, 100)
    report = Theorem27Report(mine, False, False, False, True)
    monkeypatch.setattr(cli, "verify_theorem_27", lambda **kw: report)
    code, out, _ = run(capsys, "verify", "theorem27", "--max-n", "9")
    assert code == 1
    assert out == (
        "visited 100 graphs up to n=9\n"
        "minimal forbidden counts by order: {5: 1, 8: 1, 9: 1}\n"
        "family keys match: False\n"
        "per-order counts {5:1, 6:24, 7:2}: False\n"
        "none above 7 vertices: False\n"
        "max(alpha, omega) <= 3 on every certificate: True\n"
        "theorem27: FAIL\n"
        "counterexample: GhCGKC\n"
        "counterexample: HhCGGE@\n"
    )


def test_verify_theorem27_fail_without_large_certificates(capsys, monkeypatch):
    mine = MineResult("sum-perfect", 7, {5: 1}, [(b"", cycle_graph(5))], 10)
    report = Theorem27Report(mine, False, False, True, True)
    monkeypatch.setattr(cli, "verify_theorem_27", lambda **kw: report)
    code, out, _ = run(capsys, "verify", "theorem27", "--max-n", "7")
    assert code == 1
    assert out.endswith("none above 7 vertices: True\n"
                        "max(alpha, omega) <= 3 on every certificate: True\n"
                        "theorem27: FAIL\n")


def test_verify_conjecture_fail_prints_the_first_counterexample(capsys, monkeypatch):
    report = ConjectureReport(9, {1: 1, 2: 2}, 7, ["D?{", "E?~o"])
    monkeypatch.setattr(cli, "verify_conjecture", lambda **kw: report)
    code, out, _ = run(capsys, "verify", "conjecture", "--max-n", "9")
    assert code == 1
    assert out == (
        "visited by order: {1: 1, 2: 2}\n"
        "graphs needing the obstruction scan: 7\n"
        "counterexamples: 2\n"
        "conjecture: FAIL\n"
        "counterexample: D?{\n"
    )


def test_verify_threshold_fail_prints_the_first_counterexample(capsys, monkeypatch):
    report = ThresholdReport(6, 156, ["E?~o", "D?{"])
    monkeypatch.setattr(cli, "verify_threshold_equivalence", lambda **kw: report)
    code, out, _ = run(capsys, "verify", "threshold", "--max-n", "6")
    assert code == 1
    assert out == (
        "checked 156 graphs up to n=6\n"
        "disagreements: 2\n"
        "threshold: FAIL\n"
        "counterexample: E?~o\n"
    )


def test_verify_envelope_usage_error(capsys):
    code, _, err = run(capsys, "verify", "conjecture", "--max-n", str(ENUM_MAX + 1))
    assert code == 2 and f"enumeration supports n <= {ENUM_MAX}" in err
    # Below order 7 the two 7-vertex members cannot appear.
    code, _, err = run(capsys, "verify", "theorem27", "--max-n", "6")
    assert code == 2 and "max_n >= 7" in err


@pytest.mark.parametrize("bad", [("--max-n", "0"), ("--max-n", str(ENUM_MAX + 1)),
                                 ("--max-n", "4", "--jobs", "0")])
@pytest.mark.parametrize("argv", [("mine", "--class", "sum-perfect"),
                                  ("verify", "conjecture")])
def test_refused_sweep_leaves_no_checkpoint(tmp_path, capsys, argv, bad):
    ckpt = tmp_path / "c.ckpt"
    code, out, err = run(capsys, *argv, *bad, "--checkpoint", str(ckpt))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not ckpt.exists()


@pytest.mark.parametrize("cls", ["perfect", "sum-perfect"])
def test_mine_source_beyond_scan_envelope(tmp_path, capsys, cls):
    # A source graph one vertex past the subset-scan envelope is refused,
    # not scanned, even when --max-n admits its order.
    src = tmp_path / "big.g6"
    src.write_text(emit_graph6(cycle_graph(SUBSET_MAX + 1)) + "\n")
    code, out, err = run(capsys, "mine", "--class", cls, "--max-n", str(SUBSET_MAX + 1),
                         "--source", str(src))
    assert code == 2 and out == "" and f"n <= {SUBSET_MAX}" in err


def test_mine_perfect_source_of_seventeen_vertices(tmp_path, capsys):
    # C5 plus 12 isolated vertices is not perfect, and not minimal either.
    g = disjoint_union(cycle_graph(5), from_edge_list(12, []))
    src = tmp_path / "c5k12.g6"
    src.write_text(emit_graph6(g) + "\n")
    code, out, err = run(capsys, "mine", "--class", "perfect", "--max-n", "17",
                         "--jobs", "1", "--source", str(src))
    assert code == 0 and not err and json.loads(out)["total"] == 0


def test_mine_source_minimal_forbidden_graph_above_canon_limit(tmp_path, capsys):
    # C13 is within the scan bound of both classes. Under perfect it is a
    # minimal forbidden graph, whose certificate needs a canonical key, which
    # stops at 12 vertices; under deficiency:1 it is mined and not minimal.
    src = tmp_path / "c13.g6"
    src.write_text(emit_graph6(cycle_graph(13)) + "\n")
    argv = ("mine", "--max-n", "16", "--jobs", "1", "--source", str(src))
    code, out, err = run(capsys, *argv, "--class", "perfect")
    assert code == 2 and out == ""
    assert err == "error: canonicalization supports n <= 12, got 13\n"
    code, out, err = run(capsys, *argv, "--class", "deficiency:1")
    assert code == 0 and not err
    assert json.loads(out)["total"] == 0


def test_mine_source_above_max_n(tmp_path, capsys, c5):
    src = tmp_path / "src.g6"
    src.write_text(emit_graph6(cycle_graph(4)) + "\n" + emit_graph6(c5) + "\n")
    code, out, err = run(capsys, "mine", "--class", "sum-perfect", "--max-n", "4",
                         "--jobs", "1", "--source", str(src))
    assert code == 2 and out == "" and "order 5" in err


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


@pytest.mark.parametrize("data", [b'{"class": "sum-perfect", "lev', b"my notes"])
@pytest.mark.parametrize("argv", [("mine", "--class", "sum-perfect"),
                                  ("verify", "conjecture")])
def test_checkpoint_without_a_complete_line_is_left_alone(tmp_path, capsys, argv, data):
    # A torn header, or some other file passed by mistake, is not an empty
    # journal: it is refused, not overwritten.
    ckpt = tmp_path / "c.ckpt"
    ckpt.write_bytes(data)
    code, out, err = run(capsys, *argv, "--max-n", "5", "--jobs", "1",
                         "--checkpoint", str(ckpt))
    assert code == 2 and out == "" and "checkpoint" in err
    assert ckpt.read_bytes() == data


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


@pytest.mark.parametrize("fmt", ["auto", "edges"])
def test_family_edges_read_back(tmp_path, capsys, fmt):
    # The '#' header of each block is a comment, not part of the edge list.
    _, family, _ = run(capsys, "family", "--format", "edges")
    path = tmp_path / "family.txt"
    path.write_text(family)
    code, out, err = run(capsys, "recognize", str(path), "--input-format", fmt)
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and err == ""
    assert [r["verdict"] for r in recs] == [False] * 27
    assert [r["forbidden_index"] for r in recs] == list(range(1, 28))


def test_edge_list_line_ends_agree(tmp_path, capsys):
    text = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n\n\n3\n0 1\n1 2\n\n2\n0 2\n"
    outs = []
    for end in ("\n", "\r\n", "\r"):
        path = tmp_path / "in.txt"
        path.write_bytes(text.replace("\n", end).encode())
        outs.append(run(capsys, "recognize", str(path), "--witness"))
    assert outs[0][0] == 2 and "parse error: line 13:" in outs[0][2]
    assert [json.loads(line)["id"] for line in outs[0][1].splitlines()] == [
        "line 1", "line 9"]
    assert outs[0] == outs[1] == outs[2]


def test_stdin_records_print_as_read(capsys, monkeypatch, c5):
    import io

    class FailsAfterOneLine(io.RawIOBase):
        """Gives one graph6 line, then fails on the next read."""

        def __init__(self):
            self.data = (emit_graph6(c5) + "\n").encode()

        def readable(self):
            return True

        def readinto(self, buf):
            if not self.data:
                raise OSError("stdin went away")
            n = len(self.data)
            buf[:n], self.data = self.data, b""
            return n

    stdin = io.TextIOWrapper(io.BufferedReader(FailsAfterOneLine()))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "recognize", "-")
    assert json.loads(out)["id"] == "line 1"
    assert code == 2 and err == "error: stdin went away\n"
