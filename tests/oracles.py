"""Slow, independent reference implementations used to cross-check the
library. Everything here works from first principles (set arithmetic and
itertools over explicit vertex sets, or an integer program) and deliberately
shares no code with src/pairdom beyond the Graph accessors. The subset-bitmap
kernels below are the exception by design: they keep the old kernels of
``pairdom.domination``, so that the new ones can be compared bit for bit."""

from __future__ import annotations

import functools
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


# The per-matching lemmas as pair conditions on a set P whose G[P] has a
# perfect matching: each holds iff the lemma fails for some perfect
# matching of G[P]. An edge uv of G[P] lies in one iff G[P - u - v] has one.


def _matched_edges(g: Graph, P) -> list[tuple[int, int]]:
    P = set(P)
    return [(u, v) for u, v in itertools.combinations(sorted(P), 2)
            if g.has_edge(u, v) and has_perfect_matching(g, P - {u, v})]


def pair_without_leaf(g: Graph, P) -> bool:
    """pair-has-leaf fails: some matched edge has both ends of degree >= 2
    in G[P]."""
    def inner_degree(x):
        return sum(g.has_edge(x, y) for y in P)

    return any(inner_degree(u) >= 2 and inner_degree(v) >= 2
               for u, v in _matched_edges(g, P))


def pair_with_two_outside_contacts(g: Graph, P) -> bool:
    """pair-one-outside-contact fails: some matched edge has both ends
    adjacent outside P."""
    outside = set(range(g.n)) - set(P)

    def contact(x):
        return any(g.has_edge(x, y) for y in outside)

    return any(contact(u) and contact(v) for u, v in _matched_edges(g, P))


def outside_partners_apart(g: Graph, P) -> bool:
    """outside-partners-adjacent fails: some x outside P has other than two
    neighbours in P, or has two, a and b, with a' in N_P(a) and b' in N_P(b)
    such that {a, a'} and {b, b'} are disjoint edges, G[P - {a, a', b, b'}]
    has a perfect matching, and a' is not adjacent to b'."""
    P = set(P)
    for x in set(range(g.n)) - P:
        seen = [y for y in P if g.has_edge(x, y)]
        if len(seen) != 2:
            return True
        a, b = seen
        for a2, b2 in itertools.product(P, repeat=2):
            if (len({a, a2, b, b2}) == 4 and g.has_edge(a, a2) and g.has_edge(b, b2)
                    and not g.has_edge(a2, b2)
                    and has_perfect_matching(g, P - {a, a2, b, b2})):
                return True
    return False


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


def _vertices(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def lex_least(masks) -> tuple[int, ...]:
    """The lexicographically least of bitsets of one size, as its vertex
    tuple: A precedes B iff the lowest vertex in exactly one of them is in A."""
    best, *rest = masks
    for mask in rest:
        diff = mask ^ best
        if diff & -diff & mask:
            best = mask
    return _vertices(best)


def extremes(masks) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The least and the largest size in a non-empty list of bitsets, and
    the lexicographically least set of each of the two sizes."""
    sizes = [m.bit_count() for m in masks]
    low, high = min(sizes), max(sizes)
    return (low, high,
            lex_least([m for m, k in zip(masks, sizes) if k == low]),
            lex_least([m for m, k in zip(masks, sizes) if k == high]))


def first_lacking_half_mds(n: int, mds_masks, pds_masks) -> int | None:
    """The first bitset of pds_masks that contains no bitset of mds_masks of
    at least half its size, or None. One pass over each list: the sets of
    mds_masks are indexed as bits, holding[w] those that contain w and
    at_least[k] those of size at least k, so the ones inside P are
    at_least[k] less holding[w] for every w outside P."""
    holding = [0] * n
    at_least = [0] * (n + 2)
    for i, d in enumerate(mds_masks):
        at_least[d.bit_count()] |= 1 << i
        for w in _vertices(d):
            holding[w] |= 1 << i
    for k in reversed(range(n + 1)):
        at_least[k] |= at_least[k + 1]
    for pmask in pds_masks:
        inside = at_least[(pmask.bit_count() + 1) // 2]
        for w in range(n):
            if not pmask >> w & 1:
                inside &= ~holding[w]
        if not inside:
            return pmask
    return None


# --- the subset-bitmap kernels as they were before shift-then-mask -----------
# References for the bitmaps of ``pairdom.domination``: the matchable sets
# grown from vertex n - 1 down, every shift by ``members`` masked with a
# complement first, the dominating sets as an AND over v of the members of
# N[v], and the minimal PDSs as the PDSs outside ``_one_more`` of their
# up-closure. The per-set functions above are the independent oracle; these
# pin the new kernels to the old ones bit for bit, past n = 7.


@functools.lru_cache(maxsize=1)
def subset_members(n: int) -> tuple[int, ...]:
    """members[i]: the bitmap of the subsets of {0..n-1} that contain i."""
    out = []
    for i in range(n):
        bitmap, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < 1 << n:
            bitmap |= bitmap << width
            width <<= 1
        out.append(bitmap)
    return tuple(out)


@functools.lru_cache(maxsize=1)
def subset_layers(n: int) -> tuple[int, ...]:
    """layers[k]: the bitmap of the subsets of {0..n-1} with k members."""
    layers = [1] + [0] * n
    for i in range(n):
        for k in range(i + 1, 0, -1):
            layers[k] |= layers[k - 1] << (1 << i)
    return tuple(layers)


def _one_more(bitmap: int, members) -> int:
    out = 0
    for i, has_i in enumerate(members):
        out |= (bitmap & ~has_i) << (1 << i)
    return out


def _up_closure(bitmap: int, members) -> int:
    for i, has_i in enumerate(members):
        bitmap |= (bitmap & ~has_i) << (1 << i)
    return bitmap


def _dominating(g: Graph, members) -> int:
    out = (1 << (1 << g.n)) - 1
    for v in range(g.n):
        hit = 0
        for u in _vertices(g.adj[v] | (1 << v)):
            hit |= members[u]
        out &= hit
    return out


def minimal_dominating_bitmap(g: Graph) -> int:
    members = subset_members(g.n)
    dominating = _dominating(g, members)
    return dominating & ~_one_more(dominating, members)


def paired_dominating_bitmap(g: Graph) -> int:
    """A set with least vertex v has a perfect matching iff it is {v, u}
    plus a matchable set above v without u, u ~ v, u > v."""
    members = subset_members(g.n)
    matchable = 1
    for v in reversed(range(g.n)):
        above_v = matchable
        for u in _vertices(g.adj[v] >> (v + 1) << (v + 1)):
            matchable |= (above_v & ~members[u]) << ((1 << v) | (1 << u))
    return _dominating(g, members) & matchable


def minimal_paired_dominating_bitmap(g: Graph) -> int:
    pds = paired_dominating_bitmap(g)
    members = subset_members(g.n)
    return pds & ~_one_more(_up_closure(pds, members), members)


def lacking_half_mds_bitmap(n: int, mds: int, sets: int) -> int:
    """The sets of ``sets`` that contain no set of ``mds`` of at least half
    their size, by one up-closure per size k = n..0."""
    members, layers = subset_members(n), subset_layers(n)
    up = seeds = bad = 0
    for k in reversed(range(n + 1)):
        seeds |= mds & layers[k]
        due = sets & sum(layers[max(2 * k - 1, 0):2 * k + 1])
        if due and seeds:
            up |= _up_closure(seeds, members)
            seeds = 0
        bad |= due & ~up
    return bad


def independence_number(g: Graph) -> int:
    best = 0
    for S in _subsets(g.n):
        if all(not g.has_edge(u, v) for u, v in itertools.combinations(S, 2)):
            best = max(best, len(S))
    return best


def upper_gamma_milp(g: Graph) -> int:
    """Γ by an integer program in scipy's ``milp`` (HiGHS), sharing nothing
    with the subset bitmaps. A dominating set D is minimal iff each v in D
    has a private neighbour: a w in N[v] whose closed neighbourhood meets D
    in v alone (w = v when v has no neighbour in D). So Γ is

        max  sum_v x_v
        s.t. sum_{u in N[w]} x_u >= 1                    for every w
             sum_{u in N[w]} x_u + deg(w) z_w <= 1 + deg(w)   for every w
             sum_{w in N[v]} z_w >= x_v                  for every v
             x, z binary,

    where x_v says v is in D and z_w that N[w] meets D once. The rows say
    that D dominates, that z_w = 1 only where N[w] meets D at most once, and
    that each v in D has such a w in N[v], whose one vertex of D is then v.
    Γ_pr gets no such program: minimality of a paired dominating set is not
    local, since a proper paired dominating subset need not arise by
    dropping one vertex or one pair, so no per-vertex witness certifies it."""
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import coo_array

    n = g.n
    closed = [[v] + [u for u in range(n) if g.has_edge(u, v)] for v in range(n)]
    rows, cols, vals, low, high = [], [], [], [], []

    def row(terms, lower, upper):
        for col, val in terms:
            rows.append(len(low))
            cols.append(col)
            vals.append(val)
        low.append(lower)
        high.append(upper)

    for w in range(n):
        degree = len(closed[w]) - 1
        row([(u, 1) for u in closed[w]], 1, np.inf)
        row([(u, 1) for u in closed[w]] + [(n + w, degree)], -np.inf, 1 + degree)
    for v in range(n):
        row([(v, -1)] + [(n + w, 1) for w in closed[v]], 0, np.inf)
    matrix = coo_array((vals, (rows, cols)), shape=(len(low), 2 * n))
    result = milp(c=np.r_[-np.ones(n), np.zeros(n)],
                  constraints=LinearConstraint(matrix, low, high),
                  integrality=np.ones(2 * n), bounds=(0, 1))
    assert result.success, result.message
    return round(-result.fun)


def alpha_milp(g: Graph) -> int:
    """α by an integer program in scipy's ``milp`` (HiGHS), sharing nothing
    with ``pairdom.domination``: max sum_v x_v subject to x_u + x_v <= 1
    for every edge uv, x binary."""
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import coo_array

    edges = g.edges()
    rows = [i for i in range(len(edges)) for _ in range(2)]
    cols = [v for edge in edges for v in edge]
    constraints = []
    if edges:
        matrix = coo_array((np.ones(len(cols)), (rows, cols)), shape=(len(edges), g.n))
        constraints = [LinearConstraint(matrix, -np.inf, 1)]
    result = milp(c=-np.ones(g.n), constraints=constraints,
                  integrality=np.ones(g.n), bounds=(0, 1))
    assert result.success, result.message
    return round(-result.fun)


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
            if w in image or g2.adj[w].bit_count() != g1.adj[v].bit_count():
                continue
            if all(g1.has_edge(u, v) == g2.has_edge(x, w)
                   for u, x in enumerate(image)):
                image.append(w)
                if extend(v + 1):
                    return True
                image.pop()
        return False

    return extend(0)
