"""Exhaustive small-graph sources.

``enumerate_labeled_graphs`` walks every labeled graph on up to 7 vertices.
``nonisomorphic_graphs`` emits one representative per isomorphism class,
one vertex-addition level at a time. Each child of a kept representative
is refined once (colour refinement on neighbour tuples), bucketed on the
multiset of its final refinement signatures, and kept unless exact
backtracking maps it onto an earlier representative in its bucket, so the
first candidate of each class wins in (parent, mask) order. A hereditary
predicate prunes each level, so restricted streams such as triangle-free
graphs never materialize the unrestricted universe.
"""

from __future__ import annotations

from .domination import GuardError
from .graph import MAX_VERTICES, Graph, bits_of, components, girth

LABELED_GUARD = 7


def _pair_index(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    adj = [0] * n
    for k, (i, j) in enumerate(_pair_index(n)):
        if (mask >> k) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def enumerate_labeled_graphs(n: int):
    """Yield all labeled graphs on n vertices, in pair-bitmask order."""
    if n > LABELED_GUARD:
        raise GuardError(f"labeled enumeration limited to n <= {LABELED_GUARD}")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_pair_mask(n, mask)


# --- isomorphism machinery ---------------------------------------------------


# A signature packs a vertex's colour above the multiset of its neighbours'
# colours, 6 bits of count per colour: colours are below n <= 62 and a
# vertex has at most 61 neighbours.
_COUNT_BIT = [1 << (6 * c) for c in range(MAX_VERTICES)]


def _refine(nbrs) -> tuple[tuple, list[int]]:
    """Colour refinement from the degrees until the partition is stable or
    discrete.

    ``nbrs[v]`` lists the neighbours of v. Returns ``(key, colors)``: the
    key is the sorted tuple of the last round's signatures, an isomorphism
    invariant; ``colors[v]`` is the rank of v's signature among the
    distinct ones, so two graphs with equal keys have comparable colours."""
    n = len(nbrs)
    top = 6 * n
    colors = [len(t) for t in nbrs]
    count = len(set(colors))
    while True:
        count_bit = [_COUNT_BIT[c] for c in colors].__getitem__
        sig = [c << top | sum(map(count_bit, t)) for c, t in zip(colors, nbrs)]
        key = tuple(sorted(sig))
        palette = {s: i for i, s in enumerate(dict.fromkeys(key))}
        colors = [palette[s] for s in sig]
        if len(palette) in (count, n):
            return key, colors
        count = len(palette)


def _cells(colors: list[int]) -> list[list[int]]:
    """The vertices of each colour, in increasing order."""
    cells = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def _isomorphic(adj1, colors1, adj2, cells2) -> bool:
    """Exact test for two graphs with equal refinement keys: map each vertex
    of the first, rarest colour first, onto an unused vertex of the same
    colour in the second whose adjacency to the vertices mapped so far
    agrees, backtracking on a dead end."""
    n = len(adj1)
    order = sorted(range(n), key=lambda v: (len(cells2[colors1[v]]), colors1[v], v))
    image = [0] * n  # image[v]: the bit of the vertex v is mapped to

    def extend(k: int, done1: int, done2: int) -> bool:
        if k == n:
            return True
        v = order[k]
        want = 0
        for u in bits_of(adj1[v] & done1):
            want |= image[u]
        for w in cells2[colors1[v]]:
            bit = 1 << w
            if not done2 & bit and adj2[w] & done2 == want:
                image[v] = bit
                if extend(k + 1, done1 | 1 << v, done2 | bit):
                    return True
        return False

    return extend(0, 0, 0)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: refinement colours plus backtracking."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    key1, colors1 = _refine([tuple(bits_of(row)) for row in g1.adj])
    key2, colors2 = _refine([tuple(bits_of(row)) for row in g2.adj])
    return key1 == key2 and _isomorphic(g1.adj, colors1, g2.adj, _cells(colors2))


def nonisomorphic_graphs(n: int, predicate=None, min_n: int = 0) -> list[Graph]:
    """One representative per isomorphism class with min_n..n vertices.

    Level k extends each representative of level k - 1 by a new vertex
    k - 1 joined to every subset of the old vertices. ``predicate`` must be
    hereditary under vertex deletion (triangle-free, girth bounds,
    cactus-like conditions all qualify); it sees each candidate as a
    ``Graph`` and prunes the level, so restricted families are generated
    directly.
    """
    out = [Graph(0, ())] if min_n <= 0 <= n else []
    parents = [((), ())]  # (adjacency rows, neighbour tuples) per representative
    for k in range(1, n + 1):
        new = k - 1
        bit = 1 << new
        masks = [(mask, tuple(bits_of(mask))) for mask in range(bit)]
        buckets: dict[tuple, list] = {}
        kept = []
        for adj0, nbrs0 in parents:
            for mask, joined in masks:
                adj = [row | bit if (mask >> u) & 1 else row
                       for u, row in enumerate(adj0)]
                adj.append(mask)
                g = None
                if predicate is not None:
                    g = Graph(k, tuple(adj))
                    if not predicate(g):
                        continue
                nbrs = [t + (new,) if (mask >> u) & 1 else t
                        for u, t in enumerate(nbrs0)]
                nbrs.append(joined)
                key, colors = _refine(nbrs)
                bucket = buckets.setdefault(key, [])
                if any(_isomorphic(adj, colors, adj2, cells2)
                       for adj2, cells2 in bucket):
                    continue
                bucket.append((adj, _cells(colors)))
                kept.append((adj, nbrs))
                if k >= min_n:
                    out.append(g or Graph(k, tuple(adj)))
        parents = kept
    return out


# --- hereditary predicates ----------------------------------------------------


def triangle_free(g: Graph) -> bool:
    return all(
        g.adj[u] & g.adj[v] == 0 for u in range(g.n) for v in bits_of(g.adj[u])
        if u < v
    )


def girth_at_least(k: int):
    def pred(g: Graph) -> bool:
        return girth(g) >= k

    return pred


def at_most_one_cycle_per_component(g: Graph) -> bool:
    """Each component has at most one independent cycle (supersets the
    unicyclic graphs; hereditary, unlike connectivity)."""
    for mask in components(g).component_masks():
        verts = list(bits_of(mask))
        edges = sum((g.adj[v] & mask).bit_count() for v in verts) // 2
        if edges > len(verts):
            return False
    return True


def relabel(g: Graph, perm) -> Graph:
    """The isomorphic copy with vertex v renamed perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        for u in bits_of(g.adj[v]):
            adj[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(adj))
