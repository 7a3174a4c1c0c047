"""Exhaustive small-graph generation.

``positioned_stream``, the one generator loop, yields one representative
per isomorphism class, one vertex-addition level at a time, each as soon as
it is kept and with its position (level, parent index, mask), its place in
the stream; ``nonisomorphic_graphs`` is the list of its graphs. The p-th
representative P_p of a level, as a parent, gets a new vertex w joined to
the least subset M of each orbit of Aut(P_p) (McKay's first rule: subsets
in one orbit give isomorphic children). A hereditary predicate prunes each
level, so restricted streams such as triangle-free graphs never materialize
the unrestricted universe; one with a ``masks(parent_adj)`` form, such as
``triangle_free`` and ``girth_at_least(k)``, proposes the neighbourhoods
its children may have, so only those are walked and a ``Graph`` is built
only when kept.

Each class keeps its first candidate in (parent, mask) order, decided from
its parent and the previous level alone (after McKay's least parent, J.
Algorithms 1998): C = P_p + w(M) is kept iff (a) no old vertex v has C - v
isomorphic to a parent q < p and (b) no earlier mask of p gives a child
isomorphic to C. As the predicate is hereditary and the previous level
complete, each C - u is isomorphic to exactly one parent q, and C to a
candidate of q (the least mask in the Aut(P_q)-orbit of u's neighbourhood,
a member of q's family); an isomorphism onto C from a child of q < p maps
its new vertex to an old vertex, as C - w is P_p and distinct parents are
not isomorphic. For (b), a child is refined only when p has kept another
with its I (below). (a) is decided in three exact tiers, since the parent
isomorphic to C - v shares every invariant with it; tier 1 runs for every v
before tier 2 for any. (1) If every parent with I(C - v) comes before p, C
is dropped; if none does, v is cleared. (2) The same over those with the
first-round refinement key of C - v (``_first_key``). (3) If both sides of
p still tie, C is dropped iff backtracking maps C - v onto one before p.

Tiers 1 and 2 probe the old vertices newest first, from k - 2 down to 0,
as the newest reject most often: tier 1 makes 200,542 probes in place of
322,881 on enum <= 8, and tier 2 reads 12,297 deletions in place of
13,124. The order cannot change a verdict. Tier 1 drops C iff some v has
every parent with I(C - v) before p, and tiers 2 and 3 iff some v has
C - v isomorphic to a parent before p, whichever v is tried first; the
sibling memo and ``_Deletions`` only cache functions of their keys. When
tier 1 drops nothing, every I(C - v) is computed, newest first, and the
list is reversed once C passes, so that the kept parent reads it in
vertex order.

Tier 2's list of tied parents depends on the labelled graph C - v alone,
which the rows of P_p - v and M - v, relabelled, determine; so while the
parents of one sibling group (the children of one parent) are extended, the
list is remembered under those two, and the memo is dropped when the group
changes. Siblings induce their parent on their first k - 2 vertices, so
many C - v recur across them. Tier 3 still runs whenever the list spans p.

Here I = S + 2^372 T + 2^396 Q, with S the degree multiset (a sum of
``_COUNT_BIT[deg]``), T the number of triangles and Q the number of
4-cycles (as subgraphs). For a parent P, a mask M, its child
C = P + w(M) and an old vertex v, with M_v = M - v,

    I(C)     = I(P) + grow[M],
    I(C - v) = I(P - v) + grow[M_v] - shrink[M & N(v)],

since C - v is P - v plus w joined to M_v, and P - v differs from P only
in that each neighbour of v has one degree less and each two neighbours of
v one common neighbour less (``_tables``). The values I(P - v) are those
I(C - v) a parent was kept with, so tier 1 costs at most two table lookups
per old vertex.

With ``shard=(i, J)``, ``positioned_stream`` yields only the graphs whose
parent index is i mod J, so that J workers can split a stream. Every shard
builds the levels below the last, and at the last extends only its own
parents. A decision reads only its parent's candidates and the previous
level, so each shard decides as the serial stream does: every label and
position stays, and the shards merged by position are the serial stream.
"""

from __future__ import annotations

from itertools import groupby

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
    colors = [row.bit_count() for row in adj]
    count = len(set(colors))
    while True:
        sig = _signatures(adj, colors)
        key = tuple(sorted(sig))
        palette = {s: i for i, s in enumerate(dict.fromkeys(key))}
        colors = [palette[s] for s in sig]
        if len(palette) in (count, n):
            return key, colors
        count = len(palette)


def _signatures(adj, colors) -> list[int]:
    """Each vertex's colour above the multiset of its neighbours' colours."""
    count_bit = [_COUNT_BIT[c] for c in colors].__getitem__
    top = 6 * len(adj)
    return [c << top | sum(map(count_bit, bits_of(row))) for c, row in zip(colors, adj)]


def _first_key(adj) -> tuple:
    """The key of ``_refine``'s first round, an isomorphism invariant."""
    return tuple(sorted(_signatures(adj, [row.bit_count() for row in adj])))


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


def _isomorphism(adj1, colors1, adj2, cells2, order) -> list[int] | None:
    """An isomorphism between two graphs with equal refinement keys, as the
    list of images of the first graph's vertices, or None if there is none.

    Each vertex of the first, in ``order``, the ``_search_order`` of either
    (equal keys give equal cell sizes), is mapped onto an unused vertex of
    the same colour in the second whose adjacency to those mapped so far
    agrees, backtracking on a dead end.

    As in ``matching.perfect_matching_tester``, the search recurses through
    a module-level function, not a closure that refers to itself, so a call
    leaves no reference cycle for the cyclic collector to free."""
    image = [0] * len(adj1)  # image[v]: the bit of the vertex v is mapped to
    if not _extend(adj1, colors1, adj2, cells2, order, image, 0, 0, 0):
        return None
    return [bit.bit_length() - 1 for bit in image]


def _extend(adj1, colors1, adj2, cells2, order, image,
            k: int, done1: int, done2: int) -> bool:
    """``_isomorphism``'s search from the k-th vertex of ``order`` on, with
    the vertices of ``done1`` mapped by ``image`` onto those of ``done2``.

    The search may start at any k whose first k vertices of ``order`` make
    up ``done1`` and are mapped consistently: ``_automorphisms`` starts
    past its fixed prefix, so the steps that map it are not walked again.
    Each entry of ``image`` for a vertex from the k-th on is overwritten
    before it is read, and all of them when the search succeeds."""
    if k == len(order):
        return True
    v = order[k]
    want = 0
    for u in bits_of(adj1[v] & done1):
        want |= image[u]
    for w in cells2[colors1[v]]:
        bit = 1 << w
        if not done2 & bit and adj2[w] & done2 == want:
            image[v] = bit
            if _extend(adj1, colors1, adj2, cells2, order, image,
                       k + 1, done1 | 1 << v, done2 | bit):
                return True
    return False


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
    so far fix F = {b_0..b_{i-1}} pointwise; each vertex w of b_i's colour
    outside the orbit of b_i under them is tried as the image of b_i, and
    an automorphism found joins the generators. A w in F, or whose
    neighbours in F differ from b_i's, is not tried: an automorphism that
    fixes F pointwise keeps adjacency to F, and a search with F pinned
    would fail at step i for exactly these w. So each search starts at
    step i + 1, from the identity on F and b_i -> w, which agree by the
    same test; a base point alone in its colour has no other image.

    One ``image`` list serves every search: its entries for F stay the
    identity, and a search that succeeds writes every other entry, so each
    generator is a copy taken then."""
    order = _search_order(colors, cells)
    generators = []
    image = [1 << v for v in range(len(order))]
    fixed = (1 << len(order)) - 1
    for i in reversed(range(len(order))):
        base = order[i]
        fixed ^= 1 << base  # b_0..b_{i-1}
        cell = cells[colors[base]]
        if len(cell) == 1:
            continue
        want = adj[base] & fixed
        done1 = fixed | 1 << base
        orbit = _orbit(base, generators)
        for w in cell:
            bit = 1 << w
            if w not in orbit and not fixed & bit and adj[w] & fixed == want:
                image[base] = bit
                if _extend(adj, colors, adj, cells, order, image, i + 1, done1, fixed | bit):
                    generators.append([b.bit_length() - 1 for b in image])
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


# I = S + _TRIANGLE_BIT * (triangles) + _SQUARE_BIT * (4-cycles), where S is
# the degree multiset as a sum of _COUNT_BIT terms: S is below 2^372, and a
# graph on n <= 62 vertices has fewer than 2^24 triangles.
_TRIANGLE_BIT = 1 << (6 * MAX_VERTICES)
_SQUARE_BIT = _TRIANGLE_BIT << 24
# A member of k + 1 vertices against one of k: _SIZE_STEP[k] in grow (one
# size step) and _PAIR_STEP[k] in shrink (k more pairs).
_SIZE_STEP = [b - a for a, b in zip(_COUNT_BIT, _COUNT_BIT[1:])]
_PAIR_STEP = [_SQUARE_BIT * k for k in range(MAX_VERTICES)]


def _tables(adj, family):
    """``(grow, shrink)`` of the parent with rows ``adj``, dicts keyed by the
    members of ``family``, an increasing sequence from 0 that holds every
    subset of each member. With d_u the degree of u and CB _COUNT_BIT,

    grow[X] = CB[|X|] + sum over u in X of (CB[d_u + 1] - CB[d_u])
              + _TRIANGLE_BIT * e(X)
              + _SQUARE_BIT * sum over pairs {a, b} of X of |N(a) & N(b)|,
    shrink[X] = sum over u in X of (CB[d_u + 1] - 2 CB[d_u] + CB[d_u - 1])
                + _SQUARE_BIT * C(|X|, 2).

    A member X with top vertex v is the earlier member Y = X - v plus the
    terms v adds: its degree step and bend, one size step, |Y| more pairs
    in shrink, and in grow its edge and common-neighbour counts with the
    vertices of Y, ``pairs[Y]``: those of Y less its least vertex plus that
    vertex's own."""
    grow = {0: _COUNT_BIT[0]}
    shrink = {0: 0}
    size_step, pair_step = _SIZE_STEP, _PAIR_STEP
    for top, members in groupby(family[1:], int.bit_length):
        v = top - 1
        v_bit = 1 << v
        d = adj[v].bit_count()
        step = size_step[d]
        bend = step - _COUNT_BIT[d] + (_COUNT_BIT[d - 1] if d else 0)
        with_v = {1 << b: _TRIANGLE_BIT * (adj[v] >> b & 1)
                  + _SQUARE_BIT * (adj[v] & row).bit_count() for b, row in enumerate(adj[:v])}
        with_v[0] = 0
        pairs = {0: 0}  # pairs[Y]: the sum of with_v over the vertices of Y
        for x in members:
            y = x ^ v_bit
            k = y.bit_count()
            pairs[y] = pairs[y & y - 1] + with_v[y & -y]
            grow[x] = grow[y] + step + size_step[k] + pairs[y]
            shrink[x] = shrink[y] + bend + pair_step[k]
    return grow, shrink


def _child_rows(adj, mask: int, bit: int) -> list[int]:
    """The rows of the parent ``adj`` plus a new vertex, of bit ``bit``,
    joined to the vertices in ``mask``."""
    return [row | bit if mask >> u & 1 else row for u, row in enumerate(adj)] + [mask]


def _isomorphic(adj, key, colors, others) -> bool:
    """Whether the graph ``adj``, refined to ``key`` and ``colors``, is
    isomorphic to one of ``others``, each (rows, key, colours)."""
    return any(key2 == key and _isomorphism(adj, colors, adj2, cells2,
                                            _search_order(colors, cells2)) is not None
               for adj2, key2, colors2 in others for cells2 in [_cells(colors2)])


def _drop(mask: int, v: int) -> int:
    """``mask`` without vertex v, the vertices above v moved down by one."""
    low = (1 << v) - 1
    return mask & low | mask >> 1 & ~low


class _Deletions(dict):
    """v -> (rows of P - v, tier 2's tied lists of the C - v built on them,
    by M - v) for the parent P = ``adj``: the rows are relabelled once per
    v, and the tied lists are shared, through ``memo``, by every parent of
    one sibling group with the same rows of P - v."""

    def __init__(self, adj, memo: dict):
        super().__init__()
        self.adj, self.memo = adj, memo

    def __missing__(self, v: int):
        rows = tuple(_drop(row, v) for u, row in enumerate(self.adj) if u != v)
        self[v] = rows, self.memo.setdefault(rows, {})
        return self[v]


def _earlier(rows, tied_by, mask: int, i: int, p: int, firsts, parents) -> bool:
    """Tiers 2 and 3: whether C - v is isomorphic to a parent before p, for
    C - v the graph ``rows`` plus a vertex joined to ``mask``;
    ``firsts[i, key]`` holds the parents with I = i = I(C - v) and
    first-round key ``key``, and ``tied_by`` remembers that list by mask."""
    tied = tied_by.get(mask)
    if tied is None:
        tied = tied_by[mask] = firsts[i, _first_key(_child_rows(rows, mask, 1 << len(rows)))]
    if tied[-1] < p or tied[0] >= p:
        return tied[-1] < p
    adj = _child_rows(rows, mask, 1 << len(rows))
    return _isomorphic(adj, *_refine(adj), [parents[q][:3] for q in tied if q < p])


def nonisomorphic_graphs(n: int, predicate=None, min_n: int = 0) -> list[Graph]:
    """The graphs of ``positioned_stream(n, predicate, min_n)``, in order."""
    return [g for _, g in positioned_stream(n, predicate, min_n)]


def positioned_stream(n: int, predicate=None, min_n: int = 0, shard=(0, 1)):
    """Yield one representative per isomorphism class with min_n..n
    vertices, each as soon as it is kept, as ``((level, parent index, mask),
    graph)``; positions increase along the stream. No work is done before
    the first graph is taken. With ``shard=(i, J)``, only the graphs whose
    parent index is i mod J are yielded, and at level n only those parents
    are extended.

    ``predicate`` must be invariant under isomorphism and hereditary under
    vertex deletion (triangle-free, girth bounds, cactus-like conditions all
    qualify); it prunes the level, so restricted families are generated
    directly. It sees each candidate as a ``Graph``, unless
    ``predicate.masks(adj)`` exists: then the candidates are only its
    increasing list of the masks whose child of a parent ``adj`` with the
    property keeps it, a list that holds every subset of each of its masks.
    """
    propose = getattr(predicate, "masks", None)
    test = predicate if propose is None else None
    index, count = shard
    if min_n <= 0 <= n and index == 0:
        yield (0, 0, 0), Graph(0, ())
    # (rows, key, colours, colour cells, I, [I(P - v) for v], its parent's
    # index) of each parent
    parents, sharing, firsts = [((), (), [], [], 0, [], 0)], {}, {}
    for k in range(1, n + 1):
        bit = 1 << (k - 1)
        clear = [~(1 << v) for v in range(k - 1)]
        kept, shared, split = [], {}, {}  # indices by I, by (I, first-round key)
        group = memo = None  # tier 2's memo, kept for one sibling group
        for p, (adj0, _, colors0, cells0, inv0, minus0, up) in enumerate(parents):
            if k == n and p % count != index:
                continue
            if up != group:
                group, memo = up, {}
            deletions = _Deletions(adj0, memo)
            family = propose(adj0) if propose else range(bit)
            masks = _augmenting_masks(adj0, colors0, cells0, family)
            grow, shrink = _tables(adj0, family)
            probes = list(zip(minus0, clear, adj0))[::-1]  # the newest vertex first
            twins = {}  # I(C) -> [(rows, key or None, colours)] of p's kept children
            for mask in masks:
                if test is not None and not test(Graph(k, tuple(_child_rows(adj0, mask, bit)))):
                    continue
                minus = []  # I(C - v) for v = k - 2 down to 0
                for i, c, row in probes:
                    i_v = i + grow[mask & c] - shrink[mask & row]  # I(C - v)
                    if sharing[i_v][-1] < p:  # tier 1
                        break
                    minus.append(i_v)
                if len(minus) < k - 1:
                    continue
                if any(sharing[i][0] < p and _earlier(
                        *deletions[v], _drop(mask, v), i, p, firsts, parents)
                       for v, i in zip(range(k - 2, -1, -1), minus)):  # tiers 2 and 3
                    continue
                minus.reverse()
                adj = _child_rows(adj0, mask, bit)
                inv = inv0 + grow[mask]
                same = twins.setdefault(inv, [])
                key, colors = _refine(adj) if same or k < n else (None, None)
                same[:] = [t if t[1] else (t[0], *_refine(t[0])) for t in same]
                if _isomorphic(adj, key, colors, same):
                    continue
                same.append((adj, key, colors))
                if k < n:
                    minus.append(inv0)  # C - w is the parent itself
                    shared.setdefault(inv, []).append(len(kept))
                    split.setdefault((inv, _first_key(adj)), []).append(len(kept))
                    kept.append((adj, key, colors, _cells(colors), inv, minus, p))
                if k >= min_n and p % count == index:
                    yield (k, p, mask), Graph(k, tuple(adj))
        parents, sharing, firsts = kept, shared, split


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

