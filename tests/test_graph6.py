from __future__ import annotations

import pytest

from sumperfect.graph6 import (
    FormatError,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from sumperfect.graphs import Graph, complete_graph, from_edge_list


def test_known_encodings():
    # Values straight from the format definition: K4 packs six 1-bits.
    assert emit_graph6(complete_graph(4)) == "C~"
    assert emit_graph6(Graph(0, ())) == "?"
    assert emit_graph6(Graph(1, (0,))) == "@"
    assert emit_graph6(from_edge_list(2, [(0, 1)])) == "A_"
    assert emit_graph6(Graph(2, (0, 0))) == "A?"


def test_parse_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0


def test_roundtrip_c5(c5):
    assert parse_graph6(emit_graph6(c5)) == c5


def test_header_stripped(c5):
    assert parse_graph6(">>graph6<<" + emit_graph6(c5)) == c5


def test_roundtrip_exhaustive_small(small_corpus):
    for n in range(0, 8):
        for g in small_corpus[n]:
            assert parse_graph6(emit_graph6(g)) == g


def test_emit_injective_on_canonical_reps(small_corpus):
    seen = {emit_graph6(g) for g in small_corpus[7]}
    assert len(seen) == 1044


def test_eight_vertex_stream_has_12346_keys(tmp_path):
    from sumperfect.canon import canonical_key
    from sumperfect.enumeration import graphs_of_order

    path = tmp_path / "all8.g6"
    with open(path, "w") as fh:
        for g in graphs_of_order(8):
            fh.write(emit_graph6(g) + "\n")
    keys = set()
    with open(path) as fh:
        for line in fh:
            keys.add(canonical_key(parse_graph6(line)))
    assert len(keys) == 12346


def test_long_form_header():
    # 63 and 64 vertices need the '~' header; zero-edge payloads by hand.
    for n, header in ((63, "~??~"), (64, "~?@?")):
        payload = "?" * ((n * (n - 1) // 2 + 5) // 6)
        g = parse_graph6(header + payload)
        assert g.n == n and g.edge_count() == 0
    with pytest.raises(FormatError):
        parse_graph6("~?@@" + "?" * 800)  # n = 65 exceeds capacity


def test_emit_rejects_large():
    with pytest.raises(ValueError):
        emit_graph6(Graph(63, (0,) * 63))


@pytest.mark.parametrize("bad", ["", "D", "Dhc~", "~?", chr(200)])
def test_parse_errors(bad):
    with pytest.raises(FormatError):
        parse_graph6(bad)


def test_edge_list_roundtrip(c5, h26):
    for g in (c5, h26, Graph(3, (0, 0, 0))):
        assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_format(c5):
    text = emit_edge_list(c5)
    lines = text.splitlines()
    assert lines[0] == "5"
    assert lines[1] == "0 1"


@pytest.mark.parametrize(
    "bad", ["", "x", "3\n0 1 2", "3\n0 5", "2\n0 zero", "1_0\n0 1", "+3\n0 1", "3\n0 +1"]
)
def test_edge_list_errors(bad):
    with pytest.raises(FormatError):
        parse_edge_list(bad)
