"""graph6 codec and the human-facing edge-list text format.

graph6 packs the upper triangle of the adjacency matrix column by column
(columns j = 1..n-1, rows i < j) into 6-bit chunks offset by 63. The short
header (one byte, n + 63) covers n <= 62; the parser additionally accepts the
'~' long header so externally generated streams with n up to 64 load fine.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import MAX_VERTICES, Graph, from_edge_list

_HEADER = ">>graph6<<"


class FormatError(ValueError):
    """Raised on malformed graph6 or edge-list input."""


def pack_upper_triangle(cols: Sequence[int], width: int) -> list[int]:
    """Bit i of cols[j] for every j >= 1 and i < j, column by column (the
    graph6 bit order), cut into width-bit chunks; the last one is zero-padded."""
    n = len(cols)
    acc = 0
    for j in range(1, n):
        col = cols[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
    nbits = n * (n - 1) // 2
    pad = -nbits % width
    acc <<= pad
    mask = (1 << width) - 1
    return [(acc >> s) & mask for s in range(nbits + pad - width, -1, -width)]


def emit_graph6(g: Graph) -> str:
    """Standard short-form graph6 encoding (requires n <= 62)."""
    n = g.n
    if n > 62:
        raise ValueError(f"short-form graph6 covers n <= 62, got {n}")
    return "".join(chr(c + 63) for c in (n, *pack_upper_triangle(g.adj, 6)))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (n <= 64); round-trips with emit_graph6."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):].strip()
    if not s:
        raise FormatError("empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= d <= 63 for d in data):
        raise FormatError(f"graph6 byte out of range in {s!r}")
    if data[0] == 63:
        if len(data) < 4:
            raise FormatError("truncated long-form graph6 header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    if n > MAX_VERTICES:
        raise FormatError(f"graph6 order {n} exceeds capacity {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) < need:
        raise FormatError(f"truncated graph6 payload (need {need} bytes)")
    if len(data) > need:
        raise FormatError("trailing bytes after graph6 payload")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (data[k // 6] >> (5 - k % 6)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))


def emit_edge_list(g: Graph) -> str:
    """Edge-list text: first line n, then one 'u v' pair per line."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines)


def _decimal(field: str) -> int:
    """A field of ASCII decimal digits; int() alone also takes '+3' and '1_0'."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"not a decimal: {field!r}")
    return int(field)


def parse_edge_list(text: str) -> Graph:
    """Parse one edge-list block (first line n, then 'u v' lines)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty edge-list input")
    try:
        n = _decimal(lines[0])
    except ValueError as exc:
        raise FormatError(f"bad vertex count line {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            edges.append((_decimal(parts[0]), _decimal(parts[1])))
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
    try:
        return from_edge_list(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
