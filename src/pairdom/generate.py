"""Exhaustive small-graph generation.

``positioned_stream``, the one generator loop, yields one representative
per isomorphism class, one vertex-addition level at a time, each as soon as
it is kept and with its position (level, parent index, mask), its place in
the stream; ``nonisomorphic_graphs`` is the list of its graphs. A kept
representative P that becomes a parent gets a new vertex joined to one
subset of each orbit of Aut(P), the least (McKay's first rule: subsets in
one orbit give isomorphic children). Each such child is refined once
(colour refinement on its adjacency rows), bucketed on the multiset of its
final refinement signatures, and kept unless exact backtracking maps it
onto an earlier representative in its bucket, so the first candidate of
each class wins in (parent, mask) order. The same backtracking routine,
with a pinned prefix, finds the generators of Aut(P). A hereditary
predicate prunes each level, so restricted streams such as triangle-free
graphs never materialize the unrestricted universe.
A predicate with a ``masks(parent_adj)`` form, such as ``triangle_free``
and ``girth_at_least(k)``, proposes the neighbourhoods its children may
have, so only those are walked and a ``Graph`` is built only when kept.

A child C of parent p, with new vertex w, is dropped unrefined when some
other vertex v has C - v isomorphic to a parent q < p, as the degree
multiset S shows when the last parent with S(C - v) comes before p. The
predicate is hereditary and the previous level complete, so C - v is some
parent q, and through that isomorphism C is a child of q: the least mask of
its orbit under Aut(q) is a candidate (the family is Aut-invariant) in C's
shard (same edge count) that comes first: C's class is already in the bucket.

With ``shard=(i, J)``, ``positioned_stream`` yields only the graphs whose
edge count is i mod J, so that J workers can split a stream. Every shard
builds all the levels below the last, since it needs every parent, but at
the last level it walks only the masks of its own edge counts (still a
family that every automorphism maps onto itself, as it keeps |mask|).
That is exact and keeps every label: isomorphic graphs have equal edge
counts, so no class spans two shards, and a shard meets its classes'
candidates in the serial (parent, mask) order, so the first candidate of
each class still wins.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph, bits_of, components, girth


# --- isomorphism machinery ---------------------------------------------------


# A signature packs a vertex's colour above the multiset of its neighbours'
# colours, 6 bits of count per colour: colours are below n <= 62 and a
# vertex has at most 61 neighbours.
_COUNT_BIT = [1 << (6 * c) for c in range(MAX_VERTICES)]


def _refine(adj) -> tuple[tuple, list[int]]:
    """Colour refinement from the degrees until the partition is stable or
    discrete.

    ``adj[v]`` is the neighbour mask of v, read through ``bits_of``: one
    table lookup per row while n <= 12, so on every order generated.
    Returns ``(key, colors)``: the key is the sorted tuple of the last
    round's signatures, an isomorphism invariant; ``colors[v]`` is the rank
    of v's signature among the distinct ones, so two graphs with equal keys
    have comparable colours."""
    n = len(adj)
    top = 6 * n
    colors = [row.bit_count() for row in adj]
    count = len(set(colors))
    while True:
        count_bit = [_COUNT_BIT[c] for c in colors].__getitem__
        sig = [c << top | sum(map(count_bit, bits_of(row)))
               for c, row in zip(colors, adj)]
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


def _search_order(colors: list[int], cells) -> list[int]:
    """The vertices rarest colour first: the order in which a search maps
    them, and the base of the automorphism group's stabilizer chain."""
    return sorted(range(len(colors)),
                  key=lambda v: (len(cells[colors[v]]), colors[v], v))


def _isomorphism(adj1, colors1, adj2, cells2, pinned=()) -> list[int] | None:
    """An isomorphism between two graphs with equal refinement keys, as the
    list of images of the first graph's vertices, or None if there is none.

    Each vertex of the first, in ``_search_order``, is mapped onto an unused
    vertex of the same colour in the second whose adjacency to the vertices
    mapped so far agrees, backtracking on a dead end. ``pinned[i]``, a
    vertex of the right colour, is the only image tried for the i-th vertex
    of the order."""
    n = len(adj1)
    order = _search_order(colors1, cells2)
    image = [0] * n  # image[v]: the bit of the vertex v is mapped to

    def extend(k: int, done1: int, done2: int) -> bool:
        if k == n:
            return True
        v = order[k]
        want = 0
        for u in bits_of(adj1[v] & done1):
            want |= image[u]
        for w in (pinned[k],) if k < len(pinned) else cells2[colors1[v]]:
            bit = 1 << w
            if not done2 & bit and adj2[w] & done2 == want:
                image[v] = bit
                if extend(k + 1, done1 | 1 << v, done2 | bit):
                    return True
        return False

    if not extend(0, 0, 0):
        return None
    return [bit.bit_length() - 1 for bit in image]


def _orbit(point: int, generators) -> set[int]:
    """The images of point under every product of the generators, each a
    list or table mapping a point to its image."""
    orbit = {point}
    stack = [point]
    while stack:
        x = stack.pop()
        for perm in generators:
            if perm[x] not in orbit:
                orbit.add(perm[x])
                stack.append(perm[x])
    return orbit


def _automorphisms(adj, colors, cells) -> list[list[int]]:
    """A strong generating set of Aut(G) for the base ``_search_order``.

    Base points b_0, b_1, ... are taken deepest first. The generators found
    so far fix b_0..b_{i-1}; each vertex of b_i's colour outside the orbit
    of b_i under them is tried as the image of b_i, with b_0..b_{i-1}
    pinned, and an automorphism found joins the generators."""
    order = _search_order(colors, cells)
    generators = []
    for i in reversed(range(len(order))):
        base = order[i]
        orbit = _orbit(base, generators)
        for w in cells[colors[base]]:
            if w not in orbit:
                perm = _isomorphism(adj, colors, adj, cells, order[:i] + [w])
                if perm is not None:
                    generators.append(perm)
                    orbit = _orbit(base, generators)
    return generators


def _orbit_minima(m: int, generators, family) -> list[int]:
    """The members of ``family``, an increasing list of subsets of {0..m-1}
    that the permutations map onto itself, least in their orbit: walked in
    increasing order, the first member of an orbit met is its least."""
    if not generators:
        return list(family)
    tables = []  # tables[j][mask]: the image of mask under generators[j]
    for perm in generators:
        table = [0]
        for v in range(m):
            bit = 1 << perm[v]
            table += [x | bit for x in table]
        tables.append(table)
    minima = []
    seen = set()
    for mask in family:
        if mask not in seen:
            minima.append(mask)
            seen |= _orbit(mask, tables)
    return minima


def _augmenting_masks(adj, colors, cells, family) -> list[int]:
    """The neighbourhoods a new vertex may get in G: the least of each orbit
    of Aut(G) on ``family``, an Aut-invariant list of vertex subsets. A
    subset and its image under an automorphism give isomorphic children."""
    return _orbit_minima(len(adj), _automorphisms(adj, colors, cells), family)


def nonisomorphic_graphs(n: int, predicate=None, min_n: int = 0) -> list[Graph]:
    """The graphs of ``positioned_stream(n, predicate, min_n)``, in order."""
    return [g for _, g in positioned_stream(n, predicate, min_n)]


def positioned_stream(n: int, predicate=None, min_n: int = 0, shard=(0, 1)):
    """Yield one representative per isomorphism class with min_n..n
    vertices, each as soon as it is kept, as ``((level, parent index, mask),
    graph)``; positions increase along the stream. No work is done before
    the first graph is taken. With ``shard=(i, J)``, only the graphs whose
    edge count is i mod J are yielded, and at level n only their candidates
    are looked at.

    Level k extends each representative of level k - 1 by a new vertex
    k - 1 joined to a subset of the old vertices, the least subset of each
    orbit of the parent's automorphism group. ``predicate`` must be
    invariant under isomorphism and hereditary under vertex deletion
    (triangle-free, girth bounds, cactus-like conditions all qualify); it
    prunes the level, so restricted families are generated directly. It
    sees each candidate as a ``Graph``, unless ``predicate.masks(adj)``
    exists: then the candidates are only its increasing list of the masks
    whose child of a parent ``adj`` with the property keeps it.

    A candidate that an earlier one of its shard is proven to duplicate,
    through a vertex deletion (module docstring), is skipped unrefined.
    """
    propose = getattr(predicate, "masks", None)
    index, count = shard
    if min_n <= 0 <= n and index == 0:
        yield (0, 0, 0), Graph(0, ())
    # (adjacency rows, colours, colour cells, edge count, S as _COUNT_BIT sum)
    parents = [((), [], [], 0, 0)]
    for k in range(1, n + 1):
        bit = 1 << (k - 1)
        buckets: dict[tuple, list] = {}
        kept = []
        last = {parent[4]: p for p, parent in enumerate(parents)}
        for p, (adj0, colors0, cells0, edges0, _) in enumerate(parents):
            family = propose(adj0) if propose else range(bit)
            if count > 1 and k == n:
                family = [m for m in family
                          if (edges0 + m.bit_count()) % count == index]
            for mask in _augmenting_masks(adj0, colors0, cells0, family):
                adj = [row | bit if (mask >> u) & 1 else row
                       for u, row in enumerate(adj0)]
                adj.append(mask)
                g = None
                if predicate is not None and propose is None:
                    g = Graph(k, tuple(adj))
                    if not predicate(g):
                        continue
                # S(C - v): S(C) less v's term and a degree step per neighbour
                weight = [_COUNT_BIT[row.bit_count()] for row in adj]
                step = [x - (x >> 6) for x in weight].__getitem__
                total = sum(weight)
                if min(map(last.get, [total - x - sum(map(step, bits_of(row)))
                                      for x, row in zip(weight, adj)],
                           [p] * k)) < p:  # C - w is the parent p itself
                    continue
                key, colors = _refine(adj)
                bucket = buckets.setdefault(key, [])
                if any(_isomorphism(adj, colors, adj2, cells2) is not None
                       for adj2, cells2 in bucket):
                    continue
                cells = _cells(colors)
                bucket.append((adj, cells))
                edges = edges0 + mask.bit_count()
                if k < n:
                    kept.append((adj, colors, cells, edges, total))
                if k >= min_n and edges % count == index:
                    yield (k, p, mask), g or Graph(k, tuple(adj))
        parents = kept


# --- hereditary predicates ----------------------------------------------------


def _far_apart(radius: int):
    """``masks`` for girth > radius + 2: the sets whose every two vertices
    lie at distance > radius in the parent, since the shortest cycle through
    the new vertex w is w-u...v-w for some u, v in the set, of length
    dist(u, v) + 2. The sets grow one vertex v at a time: v joins each set,
    of vertices below v, that misses v's ball of that radius."""

    def masks(adj) -> list[int]:
        out = [0]
        for v in range(len(adj)):
            bit = ball = 1 << v
            for _ in range(radius):
                for u in bits_of(ball):
                    ball |= adj[u]
            out += [s | bit for s in out if not s & ball]
        return out

    return masks


def triangle_free(g: Graph) -> bool:
    return all(
        g.adj[u] & g.adj[v] == 0 for u in range(g.n) for v in bits_of(g.adj[u])
        if u < v
    )


triangle_free.masks = _far_apart(1)


def girth_at_least(k: int):
    def pred(g: Graph) -> bool:
        return girth(g) >= k

    pred.masks = _far_apart(k - 3)
    return pred


def at_most_one_cycle_per_component(g: Graph) -> bool:
    """Each component has at most one independent cycle (supersets the
    unicyclic graphs; hereditary, unlike connectivity)."""
    return all(sum(g.adj[v].bit_count() for v in bits_of(mask)) <= 2 * mask.bit_count()
               for mask in components(g))

