from __future__ import annotations

import random

import pytest

import sumperfect.mining as mining
from sumperfect.canon import canonical_key
from sumperfect.family import build_family
from sumperfect.graph6 import emit_graph6
from sumperfect.graphs import (
    complement,
    complete_graph,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    from_edge_list,
    path_graph,
)
from sumperfect.invariants import deficit, max_deficiency
from sumperfect.mining import (
    count_hc_forbidden,
    get_predicate,
    is_minimal_forbidden,
    mine_forbidden,
    verify_conjecture,
    verify_theorem_27,
    verify_threshold_equivalence,
)


def test_predicate_registry():
    assert get_predicate("sum-perfect").fn(complete_graph(4))
    assert not get_predicate("sum-perfect").fn(cycle_graph(5))
    assert get_predicate("threshold").fn(complete_graph(3))
    assert get_predicate("perfect").fn(cycle_graph(6))
    assert get_predicate("deficiency:1").fn(cycle_graph(5))
    assert not get_predicate("deficiency:1").fn(cycle_graph(7))
    with pytest.raises(ValueError):
        get_predicate("chordal")
    with pytest.raises(ValueError):
        get_predicate("deficiency:-1")


def test_minimal_forbidden_examples(c5):
    sp = get_predicate("sum-perfect")
    assert is_minimal_forbidden(sp, c5)
    # C6 is itself a forbidden member, hence minimal.
    assert is_minimal_forbidden(sp, cycle_graph(6))
    # P6 + K1 properly contains the forbidden P6, so it is not minimal.
    assert not is_minimal_forbidden(sp, disjoint_union(path_graph(6), complete_graph(1)))
    th = get_predicate("threshold")
    assert is_minimal_forbidden(th, from_edge_list(4, [(0, 1), (2, 3)]))


def _verdict_cases(small_corpus):
    """Every graph with n <= 7, cycles of 8..10 and their complements (holes
    and antiholes minimal for several classes), and seeded random graphs."""
    graphs = [g for n in range(1, 8) for g in small_corpus[n]]
    for n in (8, 9, 10):
        graphs += [cycle_graph(n), complement(cycle_graph(n))]
    rng = random.Random(8)
    for n in (8, 9, 10):
        for _ in range(20):
            p = rng.choice((0.2, 0.5, 0.8))
            graphs.append(from_edge_list(
                n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    return graphs


@pytest.mark.parametrize("name", ["sum-perfect", "perfect", "deficiency:0",
                                  "deficiency:1", "deficiency:2", "threshold"])
def test_one_pass_verdict_matches_deletion_definition(small_corpus, name):
    fn = get_predicate(name).fn
    form = mining._resolve(name)[1]
    minimal = 0
    for g in _verdict_cases(small_corpus):
        member = fn(g)
        expected = (member, not member and all(fn(delete_vertex(g, v)) for v in range(g.n)))
        assert mining._verdict(form, fn, g) == expected, (name, g)
        minimal += expected[1]
    assert minimal > 0


def test_mine_threshold_obstructions(two_k2):
    res = mine_forbidden("threshold", 4)
    expect = {canonical_key(g) for g in (two_k2, cycle_graph(4), path_graph(4))}
    assert {k for k, _ in res.certificates} == expect
    assert res.counts_by_order == {4: 3}


def test_mine_sum_perfect_to_5(c5):
    res = mine_forbidden("sum-perfect", 5)
    assert res.total == 1
    assert res.certificates[0][0] == canonical_key(c5)
    assert res.counts_by_order == {5: 1}


def test_mine_sum_perfect_to_6():
    res = mine_forbidden("sum-perfect", 6)
    fam = build_family()
    expect = {m.key for m in fam if m.graph.n <= 6}
    assert {k for k, _ in res.certificates} == expect
    assert res.counts_by_order == {5: 1, 6: 24}
    assert res.visited == 1 + 2 + 4 + 11 + 34 + 156


def test_mine_output_sorted_and_summary():
    res = mine_forbidden("sum-perfect", 6)
    pairs = [(g.n, k) for k, g in res.certificates]
    assert pairs == sorted(pairs)
    summary = res.summary()
    assert summary["class"] == "sum-perfect"
    assert summary["total"] == 25
    assert summary["counts_by_order"] == {"5": 1, "6": 24}


def test_jobs_determinism():
    r1 = mine_forbidden("deficiency:1", 7, jobs=1)
    r2 = mine_forbidden("deficiency:1", 7, jobs=2)
    assert [(k, emit_graph6(g)) for k, g in r1.certificates] == [
        (k, emit_graph6(g)) for k, g in r2.certificates
    ]
    assert r1.counts_by_order == {7: 18}
    assert all(deficit(g) == 2 for _, g in r1.certificates)


def test_deficiency_certificates_have_exact_excess():
    res = mine_forbidden("deficiency:1", 7)
    for _, g in res.certificates:
        assert max_deficiency(g) == 2
        assert deficit(g) == 2


def test_mine_from_external_source():
    gs = [cycle_graph(5), complete_graph(4), cycle_graph(6), path_graph(6)]
    res = mine_forbidden("sum-perfect", 6, source=gs)
    keys = {k for k, _ in res.certificates}
    fam = build_family()
    assert keys == {fam.member(1).key, fam.member(8).key, fam.member(6).key}
    assert res.visited == 4


def _interrupt(monkeypatch, calls: int, sweep) -> None:
    """Run sweep() with _work raising KeyboardInterrupt on call calls + 1."""
    made = {"n": 0}
    real_work = mining._work

    def exploding_work(args):
        made["n"] += 1
        if made["n"] > calls:
            raise KeyboardInterrupt
        return real_work(args)

    monkeypatch.setattr(mining, "_work", exploding_work)
    with pytest.raises(KeyboardInterrupt):
        sweep()
    monkeypatch.setattr(mining, "_work", real_work)


def _interrupt_level_6(path, monkeypatch):
    """Mine sum-perfect to 6 with a checkpoint, cut off inside level 6."""
    # Levels 1..5 are visited in 5 calls; level 6 is 34 subtree tasks.
    _interrupt(monkeypatch, 12, lambda: mine_forbidden("sum-perfect", 6, checkpoint=path))


def test_checkpoint_resume_mid_level(tmp_path, monkeypatch):
    path = str(tmp_path / "mine.ckpt")
    _interrupt_level_6(path, monkeypatch)

    cp = mining._load_checkpoint(path)
    assert cp is not None and cp.level == 6 and 0 < cp.next_chunk < 34

    resumed = mine_forbidden("sum-perfect", 6, checkpoint=path)
    clean = mine_forbidden("sum-perfect", 6)
    assert [k for k, _ in resumed.certificates] == [k for k, _ in clean.certificates]
    assert resumed.visited == clean.visited


def test_checkpoint_resume_after_torn_last_line(tmp_path, monkeypatch):
    path = tmp_path / "mine.ckpt"
    _interrupt_level_6(str(path), monkeypatch)
    done = mining._load_checkpoint(str(path)).next_chunk
    # Cut the last record mid-line, as a crash during its write would.
    data = path.read_bytes()
    path.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 6])
    assert mining._load_checkpoint(str(path)).next_chunk == done - 1

    resumed = mine_forbidden("sum-perfect", 6, checkpoint=str(path))
    clean = mine_forbidden("sum-perfect", 6)
    assert [k for k, _ in resumed.certificates] == [k for k, _ in clean.certificates]
    assert resumed.visited == clean.visited
    # The rerun chunk's record starts on a fresh line: every line parses.
    assert path.read_bytes().endswith(b"\n")
    assert mining._load_checkpoint(str(path)).next_chunk == 34


def test_conjecture_resumed_with_more_jobs_equals_clean_run(tmp_path, monkeypatch):
    path = str(tmp_path / "conj.ckpt")
    # Levels 1..6 take 6 calls, then 54 of the 156 subtree tasks complete.
    _interrupt(monkeypatch, 60, lambda: verify_conjecture(7, checkpoint=path, jobs=1))
    assert mining._load_checkpoint(path).next_chunk == 54

    resumed = verify_conjecture(7, checkpoint=path, jobs=2)
    clean = verify_conjecture(7, jobs=1)
    assert resumed.visited_by_order == clean.visited_by_order
    assert resumed.deficient_scanned == clean.deficient_scanned == 18
    assert resumed.counterexamples == clean.counterexamples == []
    assert mining._load_checkpoint(path).next_chunk == 156


def test_checkpoint_refuses_more_records_than_subtrees(tmp_path):
    from sumperfect.cli import main

    path = tmp_path / "mine.ckpt"
    mine_forbidden("sum-perfect", 5, checkpoint=str(path))  # 11 five-vertex subtrees
    data = path.read_text()
    path.write_text(data + data.splitlines(keepends=True)[-1])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="records 12 subtrees"):
        mine_forbidden("sum-perfect", 5, checkpoint=str(path))
    assert main(["mine", "--class", "sum-perfect", "--max-n", "5", "--jobs", "1",
                 "--checkpoint", str(path)]) == 2
    assert path.read_bytes() == before


def test_checkpoint_refuses_unreadable_journals(tmp_path):
    old = tmp_path / "old.ckpt"
    old.write_text('Dhc\n#cursor {"chunk_size": 512, "level": 5, "next_chunk": 1}\n')
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 5, checkpoint=str(old))
    assert old.read_text().startswith("Dhc\n")

    path = tmp_path / "mine.ckpt"
    mine_forbidden("sum-perfect", 5, checkpoint=str(path), chunk_size=8)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:-3] + "\n"  # a malformed record that is not the last
    path.write_text("".join(lines))
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 5, checkpoint=str(path), chunk_size=8)


def test_checkpoint_rejects_mismatched_params(tmp_path):
    import json

    path = tmp_path / "mine.ckpt"
    mine_forbidden("sum-perfect", 5, checkpoint=str(path))
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 6, checkpoint=str(path))
    # The same sweep, but with another split or subtree count in the header.
    header, *records = path.read_text().splitlines(keepends=True)
    for key in ("split", "tasks"):
        changed = json.loads(header)
        changed[key] += 1
        path.write_text(json.dumps(changed, sort_keys=True) + "\n" + "".join(records))
        with pytest.raises(ValueError, match="was written for"):
            mine_forbidden("sum-perfect", 5, checkpoint=str(path))
    # Same level, but written for another class or task.
    other = str(tmp_path / "threshold.ckpt")
    mine_forbidden("threshold", 6, checkpoint=other)
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 6, checkpoint=other)
    with pytest.raises(ValueError):
        verify_conjecture(6, checkpoint=other)


def test_checkpoint_refuses_journal_of_previous_enumerator(tmp_path):
    # A journal as written before the enumerator version joined the header:
    # its chunks cut a level listed in another order, so resuming over it
    # could skip graphs and still pass.
    import json

    from sumperfect.cli import main

    path = tmp_path / "old.ckpt"
    header = {"chunk_size": 512, "class": "sum-perfect", "level": 6, "task": "_mine_chunk"}
    path.write_text(json.dumps(header, sort_keys=True) + "\n[156, [], 0]\n")
    before = path.read_bytes()
    with pytest.raises(ValueError, match="was written for"):
        mine_forbidden("sum-perfect", 6, checkpoint=str(path))
    assert main(["mine", "--class", "sum-perfect", "--max-n", "6",
                 "--checkpoint", str(path)]) == 2
    assert path.read_bytes() == before


def test_mine_source_jobs_agree(tmp_path):
    from sumperfect.enumeration import graphs_of_order

    gs = graphs_of_order(5) + graphs_of_order(6)  # 6 chunks of 32 at most
    r1 = mine_forbidden("sum-perfect", 6, source=gs, chunk_size=32, jobs=1)
    r2 = mine_forbidden("sum-perfect", 6, source=gs, chunk_size=32, jobs=2)
    assert r1.certificates == r2.certificates and r1.visited == r2.visited == 190
    assert r1.counts_by_order == {5: 1, 6: 24}
    path = tmp_path / "src.ckpt"
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 6, source=gs, checkpoint=str(path))
    assert not path.exists()


def test_conjecture_sweep_is_independent_of_jobs():
    one = verify_conjecture(8, jobs=1)
    two = verify_conjecture(8, jobs=2)
    assert one.visited_by_order == two.visited_by_order
    assert one.visited_by_order[8] == 12346
    assert one.deficient_scanned == two.deficient_scanned == 2449
    assert one.counterexamples == two.counterexamples == []


def test_pool_never_has_more_workers_than_tasks(monkeypatch):
    import multiprocessing

    from sumperfect.cli import main
    from sumperfect.enumeration import graphs_of_order

    sizes: list[int] = []

    class InlinePool:
        """Records the worker count asked for; runs the tasks in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", InlinePool)
    clean = mine_forbidden("sum-perfect", 6, jobs=1)
    assert sizes == []
    # max_n 6 splits at order 5: one task per five-vertex graph.
    many = mine_forbidden("sum-perfect", 6, jobs=10_000)
    assert sizes == [34] and many.certificates == clean.certificates
    verify_conjecture(7, jobs=2)
    assert sizes[-1] == 2
    gs = graphs_of_order(5) + graphs_of_order(6)  # chunks of 34, then 64, 64, 28
    mine_forbidden("sum-perfect", 6, source=gs, chunk_size=64, jobs=500)
    assert sizes[-1] == 4
    assert main(["mine", "--class", "threshold", "--max-n", "4", "--jobs", "10000"]) == 0
    assert sizes[-1] == 4  # one per three-vertex graph


def test_verify_theorem27_small():
    rep = verify_theorem_27(7)
    assert rep.keys_match_family
    assert rep.counts_by_order_ok
    assert rep.alpha_omega_bounded
    assert rep.passed


def test_verify_conjecture_small():
    rep = verify_conjecture(7)
    assert rep.passed
    assert rep.visited_by_order == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    # C5 is B-free with deficit exactly 1: tight, but not a counterexample.
    assert deficit(cycle_graph(5)) == 1
    from sumperfect.mining import _b_patterns

    assert not _b_patterns().contains_any(cycle_graph(5))


def test_conjecture_visit_scans_deficient_graphs():
    # C7 has deficit 2 but contains P6, so the obstruction scan clears it.
    scanned, cex = mining._conjecture_visit(cycle_graph(7))
    assert scanned and cex is None
    scanned, cex = mining._conjecture_visit(complete_graph(4))
    assert not scanned and cex is None


def test_verify_conjecture_flags_counterexample(monkeypatch):
    # No genuine counterexample is known, so shrink the obstruction set to
    # something C7 avoids and check the failure path end to end.
    from sumperfect.induced import PatternSet

    fake = PatternSet([(99, complete_graph(6))])
    monkeypatch.setattr(mining, "_b_patterns", lambda: fake)
    rep = verify_conjecture(7, source=[cycle_graph(7), complete_graph(6)])
    assert not rep.passed
    assert rep.counterexamples == [emit_graph6(cycle_graph(7))]


def test_verify_threshold_equivalence():
    rep = verify_threshold_equivalence(6)
    assert rep.passed
    assert rep.checked == 1 + 1 + 2 + 4 + 11 + 34 + 156


def test_count_hc_envelope():
    with pytest.raises(ValueError):
        count_hc_forbidden(1, 10)
    assert count_hc_forbidden(1, 5) == 0
    assert count_hc_forbidden(0, 6) == 25


def test_mined_certificates_repass_minimality():
    res = mine_forbidden("sum-perfect", 6)
    sp = get_predicate("sum-perfect")
    keys = [k for k, _ in res.certificates]
    assert len(keys) == len(set(keys))
    for _, g in res.certificates:
        assert is_minimal_forbidden(sp, g)


def test_non_hereditary_predicate_is_caught(monkeypatch):
    # "has an edge" is not hereditary; the sampled self-check must trip.
    fake = mining.ClassPredicate("fake", lambda g: g.edge_count() > 0)
    monkeypatch.setattr(mining, "get_predicate", lambda name: fake)
    with pytest.raises(AssertionError, match="not hereditary"):
        mine_forbidden("fake", 3)
