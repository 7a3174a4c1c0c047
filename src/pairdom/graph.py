"""Immutable bitset-backed simple graphs and the graph6 codec.

Vertices are the integers 0..n-1 with n <= 62, so every adjacency row and
every vertex set fits in a single machine word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_VERTICES = 62

INFINITE = math.inf


class GraphError(ValueError):
    """Malformed graph input (bad edge, bad encoding, size overflow)."""


# _BITS[mask]: the vertex tuple of each mask below 2^12, built by doubling.
_BITS = [()]
for _v in range(12):
    _BITS += [t + (_v,) for t in _BITS]


def bits_of(mask: int) -> tuple[int, ...]:
    """The set bit positions of a non-negative ``mask``, in increasing
    order: one lookup in ``_BITS`` below 2^12, else 12 bits at a time."""
    if mask < 4096:
        return _BITS[mask]
    out = list(_BITS[mask & 4095])
    mask >>= 12
    base = 12
    while mask:
        out += map(base.__add__, _BITS[mask & 4095])
        mask >>= 12
        base += 12
    return tuple(out)


def is_decimal(text: str) -> bool:
    """Whether text is a run of 1 to 18 of the ASCII digits 0-9: no number
    field needs more, and ``int()`` refuses runs past 4,300 digits."""
    return len(text) <= 18 and text.isascii() and text.isdecimal()


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitset of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphError(f"order {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match order")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise GraphError("adjacency row mentions a vertex >= n")
            if (row >> v) & 1:
                raise GraphError(f"loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits_of(row):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency at ({v},{u})")

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def build_graph(n: int, edges) -> Graph:
    """Build a simple graph, collapsing duplicate edges; Graph refuses loops."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"order {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def as_mask(S, n: int) -> int:
    """Coerce an int bitset or an iterable of vertices of a graph of order n
    to a bitset."""
    if isinstance(S, int):
        if S < 0 or S >> n:
            raise GraphError("bitset out of range")
        return S
    mask = 0
    for v in S:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for order {n}")
        mask |= 1 << v
    return mask


def girth(g: Graph):
    """Length of a shortest cycle; INFINITE when the graph is acyclic.

    A BFS per root, by layers (vertex masks). An edge inside layer d, or a
    vertex of layer d + 1 reached twice from layer d, closes a cycle of
    length at most 2d + 1, or 2d + 2; from a root on a shortest cycle the
    bound is tight. A search stops once 2d + 1 reaches the best so far, and
    the whole walk at the first triangle, as no cycle is shorter.
    """
    best = INFINITE
    adj = g.adj
    for s in range(g.n):
        layer = seen = 1 << s
        d = 0
        while layer and 2 * d + 1 < best:
            nxt = twice = 0
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                if row & layer:
                    if d == 1:
                        return 3
                    best = 2 * d + 1
                new = row & ~seen
                twice |= nxt & new
                nxt |= new
            if twice and 2 * d + 2 < best:
                best = 2 * d + 2
            seen |= nxt
            layer = nxt
            d += 1
    return best


def bfs_layers(g: Graph):
    """Yield (layer, above) for the BFS layers of g, as vertex masks: each
    component in turn grows from its least vertex, a layer with above = 0,
    and each later layer holds the vertices first reached from the layer
    above it. Every edge joins two consecutive layers or lies in one."""
    rest = g.full_mask
    while rest:
        layer = seen = rest & -rest
        above = 0
        while layer:
            yield layer, above
            reach = 0
            for v in bits_of(layer):
                reach |= g.adj[v]
            above, layer = layer, reach & ~seen
            seen |= layer
        rest &= ~seen


def components(g: Graph) -> list[int]:
    """The vertex masks of the connected components, in increasing order of
    least vertex: each grown from its least vertex, a BFS layer at a time."""
    out = []
    rest = g.full_mask
    while rest:
        layer = seen = rest & -rest
        while layer:
            reach = 0
            for v in bits_of(layer):
                reach |= g.adj[v]
            layer = reach & ~seen
            seen |= layer
        out.append(seen)
        rest ^= seen
    return out


# --- graph6 codec (short form, n <= 62) ---------------------------------


def encode_graph6(g: Graph) -> str:
    """Encode a labeled graph in graph6 short form."""
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.adj[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 short-form line, after the optional ">>graph6<<"
    header that some writers put before each graph."""
    s = line.strip().removeprefix(">>graph6<<")
    if not s:
        raise GraphError("empty graph6 line")
    head = ord(s[0])
    if head == 126:
        raise GraphError("graph6 long form (n > 62) is not supported")
    n = head - 63
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"bad graph6 header byte {s[0]!r}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise GraphError(
            f"graph6 payload has {len(body)} bytes, expected {need} for n={n}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphError(f"bad graph6 payload byte {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise GraphError("nonzero graph6 padding bits")
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(adj))


# --- edge-list text format ------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: a "n m" header then m "u v" lines,
    every number a run of ASCII decimal digits."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2 or not all(map(is_decimal, header)):
        raise GraphError(f"bad edge-list header {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        ends = ln.split()
        if len(ends) != 2 or not all(map(is_decimal, ends)):
            raise GraphError(f"bad edge line {ln!r}")
        edges.append((int(ends[0]), int(ends[1])))
    return build_graph(n, edges)
