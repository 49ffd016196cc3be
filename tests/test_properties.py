"""Property-based checks over random graphs (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from sumperfect.canon import canonical_key
from sumperfect.graph6 import FormatError, emit_graph6, parse_edge_list, parse_graph6
from sumperfect.graphs import (
    complement,
    delete_vertex,
    from_edge_list,
)
from sumperfect.invariants import (
    StableCliquePair,
    clique_number,
    deficit,
    matching_number,
    max_clique,
    max_stable_set,
    stability_number,
    validate_pair,
    vertex_cover_number,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return from_edge_list(n, picks)


@st.composite
def graph_with_permutation(draw, max_n=8):
    g = draw(graphs(max_n))
    perm = draw(st.permutations(range(g.n)))
    return g, tuple(perm)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_graph6_roundtrip(g):
    assert parse_graph6(emit_graph6(g)) == g


# Arbitrary text, and text over the characters the two formats are made of.
_parser_inputs = st.one_of(
    st.text(),
    st.text(alphabet="?@ABC_`~>graph6<\n "),
    st.text(alphabet="0123456789 -\n"),
)


@given(_parser_inputs)
@settings(max_examples=500, deadline=None)
def test_parsers_raise_only_format_error(text):
    for parse in (parse_graph6, parse_edge_list):
        try:
            parse(text)
        except FormatError:
            pass


@given(graph_with_permutation())
@settings(max_examples=200, deadline=None)
def test_canonical_key_invariant(gp):
    g, perm = gp
    relabeled = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_key(relabeled) == canonical_key(g)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_gallai_and_duality(g):
    assert stability_number(g) + vertex_cover_number(g) == g.n
    assert stability_number(g) == clique_number(complement(g))


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_deficit_lower_bound(g):
    assert deficit(g) >= -1


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_deletion_changes_invariants_by_at_most_one(g):
    a, w = stability_number(g), clique_number(g)
    for v in range(g.n):
        h = delete_vertex(g, v)
        assert a - 1 <= stability_number(h) <= a
        assert w - 1 <= clique_number(h) <= w


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_witnesses_validate(g):
    pair = StableCliquePair(max_stable_set(g), max_clique(g))
    assert validate_pair(g, pair)
    assert pair.stable.bit_count() == stability_number(g)
    assert pair.clique.bit_count() == clique_number(g)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_matching_bounded_by_cover(g):
    assert matching_number(g) <= vertex_cover_number(g)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_delete_complement_commute(g):
    for v in range(g.n):
        assert delete_vertex(complement(g), v) == complement(delete_vertex(g, v))
