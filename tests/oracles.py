"""Slow, independent reference implementations used to cross-check the
library. Everything here works from first principles (set arithmetic and
itertools over explicit vertex sets) and deliberately shares no code with
src/pairdom beyond the Graph accessors."""

from __future__ import annotations

import itertools

from pairdom.graph import Graph


def dominates(g: Graph, D) -> bool:
    covered = set()
    for v in D:
        covered.add(v)
        covered.update(u for u in range(g.n) if g.has_edge(u, v))
    return covered == set(range(g.n))


def is_minimal_dominating(g: Graph, D) -> bool:
    """Literal definition: dominating, and no proper subset dominates."""
    D = frozenset(D)
    if not dominates(g, D):
        return False
    for r in range(len(D)):
        for sub in itertools.combinations(sorted(D), r):
            if dominates(g, sub):
                return False
    return True


def epn_pair(g: Graph, u: int, v: int, S) -> set[int]:
    """epn(u, v; S): the vertices outside S that see u or v in S and no
    other vertex of S."""
    S = set(S)
    out = set()
    for w in set(range(g.n)) - S:
        seen = {x for x in S if g.has_edge(w, x)}
        if seen and seen <= {u, v}:
            out.add(w)
    return out


def has_perfect_matching(g: Graph, S) -> bool:
    S = sorted(S)
    if len(S) % 2:
        return False
    if not S:
        return True
    v, rest = S[0], S[1:]
    for u in rest:
        if g.has_edge(u, v):
            if has_perfect_matching(g, [w for w in rest if w != u]):
                return True
    return False


def is_paired_dominating(g: Graph, S) -> bool:
    return dominates(g, set(S)) and has_perfect_matching(g, S)


def is_minimal_paired_dominating(g: Graph, S) -> bool:
    S = frozenset(S)
    if not is_paired_dominating(g, S):
        return False
    for r in range(len(S)):
        for sub in itertools.combinations(sorted(S), r):
            if is_paired_dominating(g, sub):
                return False
    return True


def _subsets(n: int):
    for r in range(n + 1):
        yield from itertools.combinations(range(n), r)


def gamma(g: Graph) -> int:
    return min(len(S) for S in _subsets(g.n) if dominates(g, S))


def upper_gamma(g: Graph) -> int:
    return max(len(S) for S in _subsets(g.n) if is_minimal_dominating(g, S))


def gamma_pr(g: Graph):
    sizes = [len(S) for S in _subsets(g.n) if is_paired_dominating(g, S)]
    return min(sizes) if sizes else None


def upper_gamma_pr(g: Graph):
    sizes = [
        len(S) for S in _subsets(g.n) if is_minimal_paired_dominating(g, S)
    ]
    return max(sizes) if sizes else None


def independence_number(g: Graph) -> int:
    best = 0
    for S in _subsets(g.n):
        if all(not g.has_edge(u, v) for u, v in itertools.combinations(S, 2)):
            best = max(best, len(S))
    return best


def girth(g: Graph):
    """Shortest cycle via per-edge removal + BFS between the endpoints."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for y in range(g.n):
                    if not g.has_edge(x, y) or y in dist:
                        continue
                    if {x, y} == {u, v}:
                        continue
                    dist[y] = dist[x] + 1
                    nxt.append(y)
            frontier = nxt
        if v in dist:
            cyc = dist[v] + 1
            if best is None or cyc < best:
                best = cyc
    return best


def encode_graph6(g: Graph) -> str:
    """Reference short-form graph6 encoder (n <= 62)."""
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def labeled_graphs(n: int):
    """Every labeled graph on n vertices, lazily, in pair-bitmask order:
    bit k of the mask is the k-th pair (i, j), i < j, in lexicographic
    order."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (mask >> k) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield Graph(n, tuple(adj))


def nonisomorphic_by_permutation(n: int) -> list[Graph]:
    """One labeled graph per isomorphism class on n vertices: the one whose
    pair bitmask (as in ``labeled_graphs``) is minimal over all n!
    relabelings. It tries n! relabelings of each of the 2^(n(n-1)/2)
    labeled graphs, so it is meant for n <= 5."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    images = [
        [index[tuple(sorted((p[i], p[j])))] for i, j in pairs]
        for p in itertools.permutations(range(n))
    ]
    out = []
    for mask, g in enumerate(labeled_graphs(n)):
        present = [k for k in range(len(pairs)) if (mask >> k) & 1]
        if all(sum(1 << image[k] for k in present) >= mask for image in images):
            out.append(g)
    return out


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every permutation p of the vertices with p(u) ~ p(v) iff u ~ v,
    found by trying all n! of them."""
    edges = {frozenset(e) for e in g.edges()}
    return [
        p for p in itertools.permutations(range(g.n))
        if {frozenset((p[u], p[v])) for u, v in edges} == edges
    ]


def graph_of(n: int, edges) -> Graph:
    """The graph of order n with the given edges."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def path_graph(k: int) -> Graph:
    """The path 0 - 1 - ... - (k - 1)."""
    return graph_of(k, [(i, i + 1) for i in range(k - 1)])


def star_graph(t: int) -> Graph:
    """The star with centre 0 and leaves 1..t."""
    return graph_of(t + 1, [(0, i) for i in range(1, t + 1)])


def edge_list_text(g: Graph) -> str:
    """g in the edge-list format: an "n m" header, then one "u v" line per
    edge."""
    lines = [f"{g.n} {len(g.edges())}"] + [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def relabel(g: Graph, perm) -> Graph:
    """The isomorphic copy with vertex v renamed perm[v]."""
    return graph_of(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Whether some bijection maps the edges of g1 onto those of g2. The
    vertices of g1 are mapped in order, each onto an unused vertex of g2 of
    the same degree whose adjacency to the images so far agrees,
    backtracking on a dead end."""
    n = g1.n
    if n != g2.n:
        return False
    image = []

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if w in image or g2.degree(w) != g1.degree(v):
                continue
            if all(g1.has_edge(u, v) == g2.has_edge(x, w)
                   for u, x in enumerate(image)):
                image.append(w)
                if extend(v + 1):
                    return True
                image.pop()
        return False

    return extend(0)
