from __future__ import annotations

import hashlib
import json
import random

import pytest

import sumperfect.mining as mining
from sumperfect.canon import CANON_MAX, canonical_key
from sumperfect.enumeration import ENUM_MAX, children_of, descendants, graphs_of_order
from sumperfect.family import build_family, has_b_copy
from sumperfect.graph6 import emit_graph6, parse_graph6
from sumperfect.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    path_graph,
)
from sumperfect.invariants import (
    _full_set,
    _subset_dp,
    _sum_bound,
    clique_number,
    deficit,
    is_perfect_lovasz,
    is_sum_perfect_definitional,
    max_deficiency,
    stability_number,
)
from sumperfect.mining import (
    count_hc_forbidden,
    get_predicate,
    is_minimal_forbidden,
    mine_forbidden,
    verify_conjecture,
    verify_theorem_27,
    verify_threshold_equivalence,
)
from sumperfect.recognition import is_split, is_threshold


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


@pytest.mark.parametrize("param", ["-1", "x", "", "1.5", "1_0", "+1", " 1", "\u0661",
                                   pytest.param("1" * 5000, id="5000-digits")])
def test_deficiency_parameter_must_be_decimal_digits(param):
    with pytest.raises(ValueError, match="deficiency parameter must be an integer >= 0"):
        get_predicate(f"deficiency:{param}")


def test_minimal_forbidden_examples(c5):
    sp = get_predicate("sum-perfect")
    assert is_minimal_forbidden(sp, c5)
    # C6 is itself a forbidden member, hence minimal.
    assert is_minimal_forbidden(sp, cycle_graph(6))
    # P6 + K1 properly contains the forbidden P6, so it is not minimal.
    assert not is_minimal_forbidden(sp, disjoint_union(path_graph(6), complete_graph(1)))
    th = get_predicate("threshold")
    assert is_minimal_forbidden(th, from_edge_list(4, [(0, 1), (2, 3)]))
    # A custom class has no subset-DP form: its fn decides, on g and each g - v.
    edgeless = mining.ClassPredicate("edgeless", lambda g: g.edge_count() == 0)
    assert is_minimal_forbidden(edgeless, complete_graph(2))
    assert not is_minimal_forbidden(edgeless, path_graph(3))
    assert not is_minimal_forbidden(edgeless, from_edge_list(3, []))


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
    form = mining._lookup(name)[2]
    minimal = 0
    for g in _verdict_cases(small_corpus):
        member = fn(g)
        expected = (member, not member and all(fn(delete_vertex(g, v)) for v in range(g.n)))
        assert mining._verdict(form, fn, g) == expected, (name, g)
        minimal += expected[1]
    assert minimal > 0


def test_mine_threshold_obstructions(two_k2):
    # Chvatal-Hammer: P4, C4 and 2K2 at every max-n.
    expect = {canonical_key(g) for g in (two_k2, cycle_graph(4), path_graph(4))}
    for max_n in (4, 7):
        res = mine_forbidden("threshold", max_n)
        assert {k for k, _ in res.certificates} == expect
        assert res.counts_by_order == {4: 3}


def test_mine_perfect_obstructions_are_the_odd_holes_and_antiholes():
    # Strong perfect graph theorem: to n = 8 these are C5, C7 and co-C7.
    res = mine_forbidden("perfect", 8)
    c7 = cycle_graph(7)
    expect = {canonical_key(g) for g in (cycle_graph(5), c7, complement(c7))}
    assert {k for k, _ in res.certificates} == expect
    assert res.counts_by_order == {5: 1, 7: 2}


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


def test_deficiency_one_counts_by_order_to_8():
    assert mine_forbidden("deficiency:1", 8).counts_by_order == {7: 18, 8: 1777}


def test_mined_certificates_to_8_are_pinned_by_canonical_key():
    # sha256 of the sorted certificate keys, concatenated. A pruned or
    # halved sweep must find the same obstructions, however labelled.
    pinned = {
        "sum-perfect": "78a1f4d2f5c28d4b42b6a806e9c97eaf1d8863b96b56c6ec4b33e3419555c654",
        "perfect": "bad1decfed4bd0c3e32c2ebea2ad2ad4e34f80f77860dd8b1e6def852618445d",
        "threshold": "b9ca7b437660bad973d5f7e4f90cc63908f86738f9351b8d6ac0a90b9b60bfa5",
        "deficiency:1": "527b4a92396eba92d5a71bf14dfeddb434fae82a9846ff7bf82a86c9ac7dfa6a",
    }
    for name, digest in pinned.items():
        keys = sorted(k for k, _ in mine_forbidden(name, 8).certificates)
        assert hashlib.sha256(b"".join(keys)).hexdigest() == digest, name


# Hereditary classes with their sizes at orders 1..8.
CLASSES = [
    pytest.param(is_perfect_lovasz, [1, 2, 4, 11, 33, 148, 906, 8887], id="perfect-A052431"),
    pytest.param(
        lambda g: is_split(g) is not None, [1, 2, 4, 9, 21, 56, 164, 557], id="split-A048194"
    ),
    pytest.param(is_threshold, [2 ** (n - 1) for n in range(1, 9)], id="threshold"),
    pytest.param(
        is_sum_perfect_definitional, [1, 2, 4, 11, 33, 124, 508, 2185], id="sum-perfect"
    ),
    pytest.param(
        lambda g: not has_b_copy(g), [1, 2, 4, 11, 34, 132, 580, 2715], id="B-free"
    ),
]


@pytest.mark.parametrize("member, counts", CLASSES)
def test_class_sizes_by_order(member, counts):
    # Members of each full level n = 1, 2, ...; perfect and split are OEIS
    # sequences, so these gate the predicates from outside the repo, and a
    # walk that prunes by class must keep them.
    found = [sum(1 for g in graphs_of_order(n) if member(g)) for n in range(1, len(counts) + 1)]
    assert found == counts


def _class_walk(member, max_n: int) -> list[Graph]:
    """The generation tree walked depth-first to order max_n, each kept child
    followed by its subtree, descending only into members of the class. A
    hereditary class loses no member: a member's parent is one of its
    vertex-deleted subgraphs, so a member too."""
    def walk(parent: Graph):
        if parent.n < max_n:
            for child in children_of(parent):
                if member(child):
                    yield child
                    yield from walk(child)

    return list(walk(Graph(0, ())))


@pytest.mark.parametrize("member, counts", CLASSES)
def test_class_walk_keeps_the_filtered_levels(member, counts):
    # Same graphs, same order, same labelling as filtering each full level.
    kept = _class_walk(member, 7)
    for n in range(1, 8):
        assert [g for g in kept if g.n == n] == [g for g in graphs_of_order(n) if member(g)]


def test_threshold_walk_past_the_full_levels():
    kept = _class_walk(is_threshold, CANON_MAX)
    assert [sum(1 for g in kept if g.n == n) for n in range(1, CANON_MAX + 1)] == [
        2 ** (n - 1) for n in range(1, CANON_MAX + 1)
    ]


def _p4_free(g: Graph) -> bool:
    """No induced path a-b-c-d: for each edge bc, no a in N(b) - N[c] misses
    some d in N(c) - N[b]."""
    adj = g.adj
    for b in range(g.n):
        for c in range(g.n):
            if adj[b] >> c & 1:
                ends = adj[c] & ~adj[b] & ~(1 << b)
                starts = adj[b] & ~adj[c] & ~(1 << c)
                if any(starts >> a & 1 and ends & ~adj[a] for a in range(g.n)):
                    return False
    return True


def test_cograph_walk_past_the_full_levels():
    # Cographs are the P4-free graphs; OEIS A000084.
    kept = _class_walk(_p4_free, 10)
    assert [sum(1 for g in kept if g.n == n) for n in range(1, 11)] == [
        1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624
    ]


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


def _prefix(g: Graph) -> Graph:
    return induced_subgraph(g, range(g.n - 1))


@pytest.mark.parametrize("name", ["sum-perfect", "perfect", "deficiency:1"])
def test_source_stream_resumes_the_dp_only_from_a_true_prefix(name):
    # A graph resumes the DP of the last graph of one order less only if its
    # first n - 1 vertices induce exactly that graph. Each graph g of orders
    # 5..7 follows graphs of order n - 1 that are not its prefix, a member
    # and (where the level has one) a non-member, whose scans stop at
    # different points; a random relabelling h of g, which enumeration does
    # not produce, follows h's true prefix. Every answer must be
    # is_minimal_forbidden's, per graph (a task's lines keep every
    # occurrence) and as certificates.
    pred = get_predicate(name)
    rng = random.Random(18)
    stream, false_pairs = [], []
    for n in (5, 6, 7):
        level = graphs_of_order(n - 1)
        sides = [[p for p in level if pred.fn(p) == side] for side in (True, False)]
        for g in graphs_of_order(n):
            for side in sides:
                others = [p for p in side if p != _prefix(g)]
                if others:
                    false_pairs.append((rng.choice(others), g))
                    stream += false_pairs[-1]
            perm = rng.sample(range(n), n)
            h = from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()])
            stream += [_prefix(h), h]
    assert all(_prefix(g) != false for false, g in false_pairs)
    enumerated = set(descendants(Graph(0, ()), 7))
    assert sum(h not in enumerated for h in stream if h.n == 7) > 1000
    minimal = [g for g in stream if is_minimal_forbidden(pred, g)]
    assert minimal
    assert mining._work(("mine", name, stream, None))[1] == [emit_graph6(g) for g in minimal]
    certificates = mine_forbidden(name, 7, source=stream).certificates
    assert {k for k, _ in certificates} == {canonical_key(g) for g in minimal}


@pytest.mark.parametrize("name", ["sum-perfect", "perfect", "deficiency:1"])
def test_shuffled_source_stream_matches_the_enumerated_sweep(name):
    graphs = list(descendants(Graph(0, ()), 7))
    random.Random(7).shuffle(graphs)
    swept = mine_forbidden(name, 7)
    assert mine_forbidden(name, 7, source=graphs).certificates == swept.certificates


@pytest.mark.parametrize("name", ["sum-perfect", "perfect", "deficiency:1"])
def test_sweep_resumes_the_dp_below_every_subtree_root(monkeypatch, name):
    # A subtree task visits its root first, so only K1 and the 156 six-vertex
    # roots scan without their prefix's tables; every other graph follows its
    # parent.
    fresh = []
    real_dp = mining._subset_dp

    def counting_dp(g, bound, stop, tables=None):
        prev = tables.get(g.n - 1)
        low = (1 << (g.n - 1)) - 1
        if prev is None or prev[0] != tuple(row & low for row in g.adj[:-1]):
            fresh.append(g.n)
        return real_dp(g, bound, stop, tables)

    monkeypatch.setattr(mining, "_subset_dp", counting_dp)
    mine_forbidden(name, 7)
    assert sorted(fresh) == [1] + [6] * 156


def test_mine_source_stops_at_a_certificate_above_canon_limit(monkeypatch):
    # C13 is minimal forbidden under perfect, and its certificate cannot be
    # keyed: the task that finds it ends the run, before the other chunks.
    gs = [cycle_graph(13)] + graphs_of_order(5) + graphs_of_order(6)  # chunks of 64, 64, 63
    monkeypatch.setattr(mining, "_SOURCE_CHUNK", 64)
    calls = []
    real_work = mining._work
    monkeypatch.setattr(mining, "_work", lambda task: calls.append(task) or real_work(task))
    with pytest.raises(ValueError, match="supports n <= 12, got 13"):
        mine_forbidden("perfect", 13, source=gs)
    assert len(calls) == 1


def test_mine_source_refuses_graphs_above_max_n():
    gs = [cycle_graph(5), cycle_graph(7), cycle_graph(6)]
    with pytest.raises(ValueError, match="order 7"):
        mine_forbidden("sum-perfect", 5, source=gs)


def _journal(path) -> tuple[dict, list]:
    """(header, records) of a checkpoint journal, from its complete lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, *records = map(json.loads, data[: data.rfind(b"\n") + 1].splitlines())
    return header, records


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
    # Levels 1..4 are visited in 1 call; the 34 five-vertex graphs root the
    # subtree tasks.
    _interrupt(monkeypatch, 8, lambda: mine_forbidden("sum-perfect", 6, checkpoint=path))


def test_sweep_visits_its_prefix_in_one_task(monkeypatch):
    # One task for levels 1..4, then one per five-vertex subtree root.
    calls = []
    real_work = mining._work
    monkeypatch.setattr(mining, "_work", lambda task: calls.append(task) or real_work(task))
    mine_forbidden("sum-perfect", 6, jobs=1)
    assert len(calls) == 1 + 34
    assert len(calls[0][2]) == 1 + 2 + 4 + 11


def test_checkpoint_resume_mid_level(tmp_path, monkeypatch):
    path = str(tmp_path / "mine.ckpt")
    _interrupt_level_6(path, monkeypatch)

    header, records = _journal(path)
    assert header["level"] == 6 and 0 < len(records) < 34

    resumed = mine_forbidden("sum-perfect", 6, checkpoint=path)
    clean = mine_forbidden("sum-perfect", 6)
    assert [k for k, _ in resumed.certificates] == [k for k, _ in clean.certificates]
    assert resumed.visited == clean.visited


def test_checkpoint_resume_after_torn_last_line(tmp_path, monkeypatch):
    path = tmp_path / "mine.ckpt"
    _interrupt_level_6(str(path), monkeypatch)
    done = len(_journal(path)[1])
    # Cut the last record mid-line, as a crash during its write would.
    data = path.read_bytes()
    path.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 6])
    assert len(_journal(path)[1]) == done - 1

    resumed = mine_forbidden("sum-perfect", 6, checkpoint=str(path))
    clean = mine_forbidden("sum-perfect", 6)
    assert [k for k, _ in resumed.certificates] == [k for k, _ in clean.certificates]
    assert resumed.visited == clean.visited
    # The rerun chunk's record starts on a fresh line: every line parses.
    assert path.read_bytes().endswith(b"\n")
    assert len(_journal(path)[1]) == 34


def test_conjecture_resumed_with_more_jobs_equals_clean_run(tmp_path, monkeypatch):
    path = str(tmp_path / "conj.ckpt")
    # Levels 1..5 take 1 call, then 54 of the 156 subtree tasks complete.
    _interrupt(monkeypatch, 55, lambda: verify_conjecture(7, checkpoint=path, jobs=1))
    assert len(_journal(path)[1]) == 54

    resumed = verify_conjecture(7, checkpoint=path, jobs=2)
    clean = verify_conjecture(7, jobs=1)
    assert resumed.visited_by_order == clean.visited_by_order
    assert resumed.deficient_scanned == clean.deficient_scanned == 18
    assert resumed.counterexamples == clean.counterexamples == []
    assert len(_journal(path)[1]) == 156


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
    mine_forbidden("sum-perfect", 5, checkpoint=str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:-3] + "\n"  # a malformed record that is not the last
    path.write_text("".join(lines))
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 5, checkpoint=str(path))


def test_checkpoint_refuses_non_ascii_order_keys(tmp_path):
    # int() reads "٣" (ARABIC-INDIC DIGIT THREE) as 3, so a record keyed
    # by it would add to the graphs visited at order 3.
    path = tmp_path / "conj.ckpt"
    verify_conjecture(7, checkpoint=str(path), jobs=1)
    header, first, *rest = path.read_text().splitlines(keepends=True)
    record = json.loads(first)
    record[0]["٣"] = 5
    path.write_text(header + json.dumps(record) + "\n" + "".join(rest))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not a readable checkpoint journal"):
        verify_conjecture(7, checkpoint=str(path), jobs=1)
    assert path.read_bytes() == before


@pytest.mark.parametrize("edit", [
    lambda r: r[0].update({"3": 5}),  # an order below the root order
    lambda r: r[0].update({"8": 1}),  # an order above the level
    lambda r: r[0].update({"6": 0}),  # the root not visited
    lambda r: r[0].update({"6": 2}),  # two roots
    lambda r: r[0].pop("6"),
    lambda r: r[0].update({"06": r[0].pop("6")}),  # not the plain spelling
    lambda r: r[0].update({"7": 0}),
    lambda r: r.__setitem__(2, -40),
    lambda r: r.__setitem__(2, sum(r[0].values()) + 1),  # more scans than graphs
    lambda r: r.append(0),
    lambda r: r.clear(),
    lambda r: r[1].append(5),  # a line that is not a string
    lambda r: r.__setitem__(0, []),  # counts that are not a dict
], ids=["below-roots", "above-level", "root-0", "root-2", "no-root", "06",
        "count-0", "bscans-negative", "bscans-above-visited",
        "four-fields", "no-fields", "line-not-str", "counts-not-dict"])
def test_checkpoint_refuses_records_outside_the_sweep(tmp_path, edit):
    # Each record is JSON, but no subtree of this sweep can give it. The
    # last four break the record's shape. The others are well typed:
    # resumed, they would change the counts and still report PASS.
    path = tmp_path / "conj.ckpt"
    verify_conjecture(7, checkpoint=str(path), jobs=1)
    header, first, *rest = path.read_text().splitlines(keepends=True)
    record = json.loads(first)
    edit(record)
    path.write_text(header + json.dumps(record) + "\n" + "".join(rest))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not a readable checkpoint journal"):
        verify_conjecture(7, checkpoint=str(path), jobs=1)
    assert path.read_bytes() == before


def test_checkpoint_rejects_mismatched_params(tmp_path):
    path = tmp_path / "mine.ckpt"
    mine_forbidden("sum-perfect", 5, checkpoint=str(path))
    with pytest.raises(ValueError):
        mine_forbidden("sum-perfect", 6, checkpoint=str(path))
    # The same sweep, but with another root order or subtree count in the header.
    header, *records = path.read_text().splitlines(keepends=True)
    for key in ("roots", "tasks"):
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


def test_deficiency_class_has_one_spelling(tmp_path, monkeypatch, capsys):
    # deficiency:01 and deficiency:1 are one class: one name in the summary
    # and the journal header, so either spelling resumes the other's journal.
    from sumperfect.cli import main

    path = str(tmp_path / "deficiency.ckpt")
    _interrupt(monkeypatch, 8, lambda: mine_forbidden("deficiency:01", 6, checkpoint=path))
    assert _journal(path)[0]["class"] == "deficiency:1"
    assert main(["mine", "--class", "deficiency:1", "--max-n", "6",
                 "--checkpoint", path]) == 0
    assert main(["mine", "--class", "deficiency:01", "--max-n", "6"]) == 0
    summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [s["class"] for s in summaries] == ["deficiency:1"] * 2
    assert summaries[0] == summaries[1]


def test_checkpoint_refuses_journal_of_previous_enumerator(tmp_path):
    from sumperfect.cli import main

    path = tmp_path / "old.ckpt"
    old_journals = [
        # As written before the enumerator version joined the header: its
        # chunks cut a level listed in another order, so resuming over it
        # could skip graphs and still pass.
        ({"chunk_size": 512, "class": "sum-perfect", "level": 6, "task": "_mine_chunk"},
         "[156, [], 0]\n"),
        # As written when a subtree record did not cover its root: resuming
        # over it would never visit the roots of its finished subtrees.
        ({"class": "sum-perfect", "enumerator": 2, "level": 6, "split": 5,
          "task": "_mine_chunk", "tasks": 34}, '[{"6": 1}, [], 0]\n'),
        # As written when the task field named a chunk function rather than
        # the sweep.
        ({"class": "sum-perfect", "enumerator": 2, "level": 6, "roots": 5,
          "task": "_mine_chunk", "tasks": 34}, '[{"5": 1, "6": 3}, [], 0]\n'),
    ]
    for header, records in old_journals:
        path.write_text(json.dumps(header, sort_keys=True) + "\n" + records)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="was written for"):
            mine_forbidden("sum-perfect", 6, checkpoint=str(path))
        assert main(["mine", "--class", "sum-perfect", "--max-n", "6",
                     "--checkpoint", str(path)]) == 2
        assert path.read_bytes() == before


def test_mine_source_jobs_agree(tmp_path, monkeypatch):
    # Chunks of 7 cut a stream whose orders 5 and 6 interleave, so most hold
    # graphs of two orders; each task counts its graphs by order itself.
    from sumperfect.enumeration import graphs_of_order

    five, six = graphs_of_order(5), graphs_of_order(6)
    mixed = [g for pair in zip(five, six) for g in pair] + six[len(five):]
    gs = [g for n in range(1, 5) for g in graphs_of_order(n)] + mixed
    monkeypatch.setattr(mining, "_SOURCE_CHUNK", 7)
    enumerated = mine_forbidden("sum-perfect", 6)
    assert enumerated.visited == 208
    assert enumerated.counts_by_order == {5: 1, 6: 24}
    for jobs in (1, 2):
        res = mine_forbidden("sum-perfect", 6, source=gs, jobs=jobs)
        assert res.certificates == enumerated.certificates
        assert res.visited == enumerated.visited
        assert res.counts_by_order == enumerated.counts_by_order
        visited = mining._sweep("mine", "sum-perfect", 6, jobs, None, gs)[0]
        assert visited == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
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


def test_equal_sweeps_give_equal_results():
    assert verify_conjecture(6, jobs=2) == verify_conjecture(6)
    assert mine_forbidden("sum-perfect", 6, jobs=2) == mine_forbidden("sum-perfect", 6)


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
    monkeypatch.setattr(mining, "_SOURCE_CHUNK", 64)
    gs = graphs_of_order(5) + graphs_of_order(6)  # chunks of 64, 64, 62
    mine_forbidden("sum-perfect", 6, source=gs, jobs=500)
    assert sizes[-1] == 3
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
    assert not has_b_copy(cycle_graph(5))


def _visit_state() -> dict:
    """A fresh state for the conjecture visit, as _work builds it for a task
    without leaves."""
    return {"tables": {}, "leaf": None, "bscans": 0}


def test_conjecture_visit_scans_deficient_graphs():
    # C7 has deficit 2 but contains P6, so the obstruction scan clears it.
    state = _visit_state()
    assert mining._conjecture_visit(cycle_graph(7), state) is None
    assert state["bscans"] == 1
    assert mining._conjecture_visit(complete_graph(4), state) is None
    assert state["bscans"] == 1


def test_conjecture_visit_grows_alpha_and_omega_without_a_prefix(small_corpus):
    # Every graph with n <= 7 and seeded G(n, p) graphs with n = 8..14, with
    # nothing stored and after an order n - 1 entry that is not g's prefix
    # (its complement's rows, from n = 3 on), whose impossible alpha and
    # omega (n in every lane) would show if the entry were used. The alpha
    # and omega read off the stored record are checked against the
    # branch-and-bound ones, and the record against a fresh scan's.
    graphs = [g for n in range(1, 8) for g in small_corpus[n]]
    rng = random.Random(30)
    for _ in range(300):
        n, p = rng.randint(8, 14), rng.random()
        graphs.append(from_edge_list(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    for g in graphs:
        expect = (stability_number(g), clique_number(g))
        fresh: dict = {}
        _subset_dp(g, _sum_bound, None, fresh)
        state = _visit_state()
        mining._conjecture_visit(g, state)
        assert state["tables"] == fresh
        assert fresh[g.n][0] == g.adj and _full_set(fresh[g.n]) == expect
        if g.n >= 3:
            other = delete_vertex(complement(g), g.n - 1).adj
            lanes = int.from_bytes(bytes([g.n]) * (1 << (g.n - 1)), "little")
            state["tables"] = {g.n - 1: (other, lanes, lanes, -1, None)}
            mining._conjecture_visit(g, state)
            assert state["tables"][g.n] == fresh[g.n]
            assert _full_set(state["tables"][g.n]) == expect


def test_conjecture_visit_extends_alpha_and_omega_from_the_prefix():
    # Along the enumerated walk each graph of order >= 2 follows its parent,
    # so every alpha and omega past order 1 is extended, not recomputed.
    state = _visit_state()
    tables = state["tables"]
    for g in descendants(Graph(0, ()), 8):
        if g.n > 1:
            assert tables[g.n - 1][0] == delete_vertex(g, g.n - 1).adj
        mining._conjecture_visit(g, state)
        assert tables[g.n][0] == g.adj
        assert _full_set(tables[g.n]) == (stability_number(g), clique_number(g))


def test_shuffled_graphs_give_the_same_conjecture_chunk(monkeypatch):
    # With no B-check passing, every graph of deficit >= 2 is a line, so a
    # wrong alpha or omega taken from a non-prefix shows in the lines.
    monkeypatch.setattr(mining, "has_b_copy", lambda g: False)
    graphs = list(descendants(Graph(0, ()), 8))
    expect = [emit_graph6(g) for g in graphs if deficit(g) >= 2]
    assert mining._work(("conjecture", "sum-perfect", graphs, None))[1:] == (expect, 2449)
    random.Random(8).shuffle(graphs)
    _, lines, bscans = mining._work(("conjecture", "sum-perfect", graphs, None))
    assert (sorted(lines), bscans) == (sorted(expect), 2449)


@pytest.mark.parametrize("jobs", [1, 2])
def test_leaf_bound_skips_no_deficient_leaf(monkeypatch, jobs):
    # A leaf whose parent has deficit <= 0 is settled without alpha, omega or
    # a B-check. With no B-check passing, every graph of deficit >= 2 is a
    # counterexample, so a leaf skipped wrongly would be missing here.
    monkeypatch.setattr(mining, "has_b_copy", lambda g: False)
    expect = sorted(emit_graph6(g) for g in descendants(Graph(0, ()), 8) if deficit(g) >= 2)
    rep = verify_conjecture(8, jobs=jobs)
    assert (rep.counterexamples, rep.deficient_scanned) == (expect, 2449)
    assert len(expect) == 2449


def test_verify_conjecture_flags_counterexample(monkeypatch):
    # No genuine counterexample is known, so let the B-check find no copy in
    # any graph and check the failure path end to end.
    monkeypatch.setattr(mining, "has_b_copy", lambda g: False)
    rep = verify_conjecture(7)
    assert not rep.passed
    keys = {canonical_key(parse_graph6(line)) for line in rep.counterexamples}
    assert canonical_key(cycle_graph(7)) in keys


def test_verify_threshold_equivalence():
    rep = verify_threshold_equivalence(6)
    assert rep.passed
    assert rep.checked == 1 + 2 + 4 + 11 + 34 + 156  # orders 1..6


def test_verify_threshold_equivalence_is_independent_of_jobs():
    assert verify_threshold_equivalence(7, jobs=2) == verify_threshold_equivalence(7)


@pytest.mark.parametrize("sweep", [
    lambda: verify_conjecture(0),
    lambda: mine_forbidden("sum-perfect", 0),
    lambda: verify_threshold_equivalence(0),
    lambda: verify_theorem_27(6),
    lambda: mine_forbidden("sum-perfect", 4, jobs=0),
    lambda: mine_forbidden("sum-perfect", 4, jobs=-3),
], ids=["conjecture-0", "mine-0", "threshold-0", "theorem27-6", "jobs-0", "jobs-minus-3"])
def test_sweeps_refuse_out_of_range_arguments(sweep):
    with pytest.raises(ValueError):
        sweep()


def test_count_hc_envelope():
    # The enumerator's bound. ENUM_MAX itself is accepted, but it is a full
    # n = 10 mine, so only the refusal is tested.
    with pytest.raises(ValueError, match=f"n <= {ENUM_MAX}"):
        count_hc_forbidden(1, ENUM_MAX + 1)
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
