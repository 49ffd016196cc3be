from __future__ import annotations

import pytest

import sumperfect.mining as mining
from sumperfect.canon import canonical_key
from sumperfect.family import build_family
from sumperfect.graph6 import emit_graph6
from sumperfect.graphs import (
    complete_graph,
    cycle_graph,
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


def test_checkpoint_resume_mid_level(tmp_path, monkeypatch):
    path = str(tmp_path / "mine.ckpt")
    calls = {"n": 0}
    real_work = mining._work

    # Levels 1..5 cover 7 chunks at this chunk size; level 6 has 10 more.
    def exploding_work(args):
        calls["n"] += 1
        if calls["n"] > 12:
            raise KeyboardInterrupt
        return real_work(args)

    monkeypatch.setattr(mining, "_work", exploding_work)
    with pytest.raises(KeyboardInterrupt):
        mine_forbidden("sum-perfect", 6, checkpoint=path, chunk_size=16)
    monkeypatch.setattr(mining, "_work", real_work)

    cp = mining._load_checkpoint(path)
    assert cp is not None and cp.level == 6 and 0 < cp.next_chunk < 10

    resumed = mine_forbidden("sum-perfect", 6, checkpoint=path, chunk_size=16)
    clean = mine_forbidden("sum-perfect", 6)
    assert [k for k, _ in resumed.certificates] == [k for k, _ in clean.certificates]
    assert resumed.visited == clean.visited


def test_checkpoint_rejects_mismatched_params(tmp_path):
    path = str(tmp_path / "mine.ckpt")
    mine_forbidden("sum-perfect", 5, checkpoint=path, chunk_size=8)
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 6, checkpoint=path, chunk_size=8)
    # Same level and chunk size, but written for another class or task.
    other = str(tmp_path / "threshold.ckpt")
    mine_forbidden("threshold", 6, checkpoint=other)
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 6, checkpoint=other)
    with pytest.raises(ValueError):
        verify_conjecture(6, checkpoint=other)


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
