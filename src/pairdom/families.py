"""Named graph families: generators, recognizers, and class predicates.

The recognizable families are disjoint unions of edges (mK2), the triangle
and the 5-cycle, the once-subdivided star with triangles attached at the
center, and disjoint unions of edges and 5-cycles. Recognition names a
graph's family by its spec, the string ``parse_family_spec`` reads. It
follows each family's definition, not a general isomorphism test: a census
of the components (2-vertex ones, 5-cycles) for the unions, and for the
star a centre whose removal leaves a perfect matching with an end of each
edge on the centre.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    MAX_VERTICES,
    bfs_layers,
    bits_of,
    build_graph,
    components,
    girth,
    is_decimal,
)


@dataclass(frozen=True)
class ClassFlags:
    connected: bool
    bipartite: bool
    unicyclic: bool
    cactus: bool
    c3_free: bool
    girth: float  # int, or math.inf for acyclic graphs


# --- generators -------------------------------------------------------------


def make_cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycles need at least 3 vertices")
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def make_k2() -> Graph:
    return build_graph(2, [(0, 1)])


def make_subdivided_star(t: int, delta: int) -> Graph:
    """Star with t edges each subdivided once, plus delta triangles at the
    center. Layout: center 0, then leg pairs (x_i, y_i), then triangle
    pairs (p_j, q_j).

    t = 0 with delta >= 1 is allowed and yields the friendship graphs;
    they genuinely belong to the family (the butterfly, t=0 delta=2,
    has upper paired number n - 1)."""
    if t < 0 or delta < 0:
        raise GraphError("parameters must be nonnegative")
    if t == 0 and delta == 0:
        raise GraphError("subdivided star requires t + delta >= 1")
    n = 1 + 2 * t + 2 * delta
    if n > MAX_VERTICES:
        raise GraphError(f"order {n} outside 0..{MAX_VERTICES}")
    edges = []
    for i in range(t):
        x, y = 1 + 2 * i, 2 + 2 * i
        edges += [(0, x), (x, y)]
    for j in range(delta):
        p, q = 1 + 2 * t + 2 * j, 2 + 2 * t + 2 * j
        edges += [(0, p), (0, q), (p, q)]
    return build_graph(n, edges)


def disjoint_union(graphs) -> Graph:
    """Disjoint union with vertex blocks in input order."""
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        n += g.n
    return build_graph(n, edges)


# --- class predicates -------------------------------------------------------


def every_block_edge_or_cycle(g: Graph) -> bool:
    """True iff each biconnected block is a single edge or a cycle, i.e.
    every edge lies on at most one cycle (the cactus condition, minus the
    connectivity requirement).

    Grows a BFS spanning forest by mask layers, with path[v] the mask of v
    and its tree ancestors. Naming each tree edge by its lower endpoint,
    the fundamental cycle of a non-tree edge uw holds the tree edges
    path[u] ^ path[w], up to where the two tree paths meet. The answer is
    False as soon as two fundamental cycles share a tree edge. Exact:

    - In a cactus, each cycle block holds exactly one non-tree edge, and
      that edge's fundamental cycle stays inside the block.
    - Otherwise some block, neither an edge nor a cycle, contains a theta:
      three paths between two vertices. If no two fundamental cycles
      shared an edge, each cycle, the sum of those of its non-tree edges,
      would hold exactly one; but with k_i non-tree edges on path i of the
      theta, k_i + k_j = 1 for its three cycles gives 2(k_1 + k_2 + k_3) = 3.
    """
    path = [0] * (g.n + 1)  # path[-1] = 0: above a root
    used = 0  # the tree edges on some fundamental cycle, by lower endpoint
    for layer, above in bfs_layers(g):
        for w in bits_of(layer):
            up = g.adj[w] & above
            parent = up & -up
            path[w] = path[parent.bit_length() - 1] | 1 << w
            # the non-tree edges up, and to earlier vertices of the layer
            for u in bits_of((up ^ parent) | (g.adj[w] & layer & ((1 << w) - 1))):
                cycle = path[u] ^ path[w]
                if used & cycle:
                    return False
                used |= cycle
    return True


def classify(g: Graph) -> ClassFlags:
    """One BFS walk gives connected (one root) and bipartite: the layer
    parity 2-colours g unless an edge lies in a layer, closing an odd cycle."""
    gth = girth(g)
    roots, bipartite = 0, True
    for layer, above in bfs_layers(g):
        roots += not above
        bipartite = bipartite and not any(g.adj[v] & layer for v in bits_of(layer))
    connected = roots == 1
    return ClassFlags(
        connected=connected,
        bipartite=bipartite,
        unicyclic=connected and g.edge_count == g.n,
        cactus=connected and every_block_edge_or_cycle(g),
        c3_free=gth != 3,
        girth=gth,
    )


# --- recognition ------------------------------------------------------------


def _is_cycle_component(g: Graph, mask: int, length: int) -> bool:
    return mask.bit_count() == length and all(
        g.adj[v].bit_count() == 2 for v in bits_of(mask))


def _recognize_subdivided_star(g: Graph) -> str | None:
    """The subdivided star that g, connected of order at least 3, is: by
    definition, one with a centre c such that G - c is a perfect matching,
    each of whose edges has an end adjacent to c (as g is connected). A leg
    is such an edge with one end on c and a triangle one with both, so
    t + δ = ⌊n/2⌋ and deg(c) = t + 2δ."""
    if g.n % 2 == 0:
        return None
    for c in range(g.n):
        rest = g.full_mask ^ (1 << c)
        if all((g.adj[v] & rest).bit_count() == 1 for v in bits_of(rest)):
            delta = g.adj[c].bit_count() - g.n // 2
            return f"star:t={g.n // 2 - delta},d={delta}"
    return None


def recognize_family(g: Graph) -> str | None:
    """The spec that ``parse_family_spec`` builds g from, up to
    relabelling, or None outside every family. The spec is one of C3, C5,
    mK2:m, star:t=T,d=D and union:K2*a+C5*b; where several describe g, the
    first in that order is given: a triangle is C3, not star:t=0,d=1, a
    lone 5-cycle C5, not union:K2*0+C5*1, and a perfect matching mK2:m,
    not union:K2*m+C5*0."""
    if g.n == 0:
        return None
    masks = components(g)
    if len(masks) == 1:
        if g.n == 3 and g.edge_count == 3:
            return "C3"
        if _is_cycle_component(g, g.full_mask, 5):
            return "C5"
        if g.n > 2:  # K2 is mK2:1, and no subdivided star is disconnected
            return _recognize_subdivided_star(g)
    k2s = sum(1 for m in masks if m.bit_count() == 2)
    c5s = sum(1 for m in masks if _is_cycle_component(g, m, 5))
    if k2s == len(masks):
        return f"mK2:{k2s}"
    if k2s + c5s == len(masks):
        return f"union:K2*{k2s}+C5*{c5s}"
    return None


# --- family spec mini-syntax -------------------------------------------------

# The spec grammar: base names (a union's components too), then prefixes.
_SPEC_BASES = {"K2": make_k2, "C3": lambda: make_cycle(3), "C5": lambda: make_cycle(5)}
_SPEC_PREFIXES = ("mK2:", "star:", "union:")


def parse_family_spec(spec: str) -> Graph:
    """Build a graph from a spec string such as "C5", "mK2:3",
    "star:t=3,d=1", or "union:K2*2+C5*1". The order a spec asks for is
    checked before any graph of that order is built."""
    s = spec.strip()
    if s in _SPEC_BASES:
        return _SPEC_BASES[s]()
    if not s.startswith(_SPEC_PREFIXES):
        raise GraphError(f"unrecognized family spec {spec!r}")
    kind, _, arg = s.partition(":")
    if kind == "mK2":  # read as union:K2*m once m is a number, not more terms
        if not is_decimal(arg):
            raise GraphError(f"bad multiplicity in {spec!r}")
        kind, arg = "union", f"K2*{arg}"
    if kind == "star":
        pairs = [part.split("=") for part in arg.split(",")]
        params = dict(p for p in pairs if len(p) == 2)
        if len(params) < len(pairs):  # a part that is not key=value, or a key twice
            raise GraphError(f"bad star parameters in {spec!r}")
        t, d = params.pop("t", ""), params.pop("d", "0")
        if not (is_decimal(t) and is_decimal(d)):
            raise GraphError(f"bad star parameters in {spec!r}")
        if params:
            raise GraphError(f"unknown star parameters {sorted(params)}")
        return make_subdivided_star(int(t), int(d))
    parts = []
    for term in arg.split("+"):
        name, star, mult = term.partition("*")
        if name not in _SPEC_BASES:
            raise GraphError(f"unknown union component {name!r}")
        if star and not is_decimal(mult):
            raise GraphError(f"bad multiplicity in {spec!r}")
        parts.append((_SPEC_BASES[name](), int(mult) if star else 1))
    if not sum(m for _, m in parts):
        raise GraphError(f"no component in {spec!r}")
    if sum(g.n * m for g, m in parts) > MAX_VERTICES:
        raise GraphError(f"union exceeds {MAX_VERTICES} vertices")
    return disjoint_union(g for g, m in parts for _ in range(m))


def looks_like_family_spec(text: str) -> bool:
    s = text.strip()
    return s in _SPEC_BASES or s.startswith(_SPEC_PREFIXES)
