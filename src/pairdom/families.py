"""Named graph families: generators, recognizers, and class predicates.

The recognizable families are disjoint unions of edges (mK2), the triangle
and the 5-cycle, the once-subdivided star with triangles attached at the
center, and disjoint unions of edges and 5-cycles. Recognition is
structural (component census, degree/block analysis), not a general
isomorphism test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    MAX_VERTICES,
    bits_of,
    build_graph,
    components,
    girth,
    is_connected,
)

# Precedence when several family shapes describe the same graph: a triangle
# is reported as C3 (not a degenerate subdivided star), a lone 5-cycle as C5
# (not a one-copy union), a perfect matching as mK2.
_PRECEDENCE = ("C3", "C5", "mK2", "star", "mK2+mC5")


@dataclass(frozen=True)
class FamilyLabel:
    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _PRECEDENCE:
            raise GraphError(f"unknown family kind {self.kind!r}")

    def spec_string(self) -> str:
        if self.kind == "mK2":
            return f"mK2:{self.params[0]}"
        if self.kind == "star":
            t, d = self.params
            return f"star:t={t},d={d}"
        if self.kind == "mK2+mC5":
            m1, m2 = self.params
            return f"union:K2*{m1}+C5*{m2}"
        return self.kind


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


def make_path(k: int) -> Graph:
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def make_k2() -> Graph:
    return build_graph(2, [(0, 1)])


def make_star(t: int) -> Graph:
    return build_graph(t + 1, [(0, i) for i in range(1, t + 1)])


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
        if n > MAX_VERTICES:
            raise GraphError(f"union exceeds {MAX_VERTICES} vertices")
    return build_graph(n, edges)


def make_union(spec) -> Graph:
    """Disjoint union from (graph, multiplicity) pairs."""
    parts = []
    for g, mult in spec:
        if mult < 0:
            raise GraphError("multiplicity must be nonnegative")
        parts.extend([g] * mult)
    return disjoint_union(parts)


# --- class predicates -------------------------------------------------------


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in bits_of(g.adj[u]):
                if color[w] < 0:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def biconnected_blocks(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks (Hopcroft-Tarjan)."""
    disc = [-1] * g.n
    low = [0] * g.n
    blocks: list[list[tuple[int, int]]] = []
    stack: list[tuple[int, int]] = []
    counter = 0

    def dfs(u: int, parent: int):
        nonlocal counter
        disc[u] = low[u] = counter
        counter += 1
        parent_skipped = False
        for w in bits_of(g.adj[u]):
            if w == parent and not parent_skipped:
                parent_skipped = True
                continue
            if disc[w] < 0:
                stack.append((u, w))
                dfs(w, u)
                low[u] = min(low[u], low[w])
                if low[w] >= disc[u]:
                    block = []
                    while True:
                        e = stack.pop()
                        block.append(e)
                        if e == (u, w):
                            break
                    blocks.append(block)
            elif disc[w] < disc[u]:
                stack.append((u, w))
                low[u] = min(low[u], disc[w])

    for s in range(g.n):
        if disc[s] < 0:
            dfs(s, -1)
    return blocks


def every_block_edge_or_cycle(g: Graph) -> bool:
    """True iff each biconnected block is a single edge or a cycle, i.e.
    every edge lies on at most one cycle (the cactus condition, minus the
    connectivity requirement)."""
    for block in biconnected_blocks(g):
        if len(block) == 1:
            continue
        verts = {v for e in block for v in e}
        if len(block) != len(verts):
            return False
    return True


def classify(g: Graph) -> ClassFlags:
    gth = girth(g)
    connected = is_connected(g)
    return ClassFlags(
        connected=connected,
        bipartite=is_bipartite(g),
        unicyclic=connected and g.edge_count == g.n,
        cactus=connected and every_block_edge_or_cycle(g),
        c3_free=gth != 3,
        girth=gth,
    )


# --- recognition ------------------------------------------------------------


def _is_cycle_component(g: Graph, mask: int, length: int) -> bool:
    verts = list(bits_of(mask))
    if len(verts) != length:
        return False
    return all(g.adj[v].bit_count() == 2 for v in verts)


def _recognize_subdivided_star(g: Graph) -> FamilyLabel | None:
    if g.n < 3 or g.n % 2 == 0 or not is_connected(g):
        return None
    for c in range(g.n):
        t = 0
        delta = 0
        seen = 1 << c
        ok = True
        for x in bits_of(g.adj[c]):
            if (seen >> x) & 1:
                continue
            nbrs = g.adj[x]
            if nbrs.bit_count() != 2 or not (nbrs >> c) & 1:
                ok = False
                break
            other = nbrs & ~(1 << c)
            y = other.bit_length() - 1
            if (g.adj[y] >> c) & 1:
                # x, y, c form a triangle hanging off the center
                if g.adj[y].bit_count() != 2:
                    ok = False
                    break
                delta += 1
            else:
                # leg c - x - y: y must be a leaf of x
                if g.adj[y] != 1 << x:
                    ok = False
                    break
                t += 1
            seen |= (1 << x) | (1 << y)
        if ok and t + delta >= 1 and seen == g.full_mask and g.n == 1 + 2 * t + 2 * delta:
            return FamilyLabel("star", (t, delta))
    return None


def recognize_family(g: Graph) -> FamilyLabel | None:
    """Structural family recognition, up to isomorphism."""
    if g.n == 0:
        return None
    masks = components(g)
    if len(masks) == 1:
        if g.n == 3 and g.edge_count == 3:
            return FamilyLabel("C3")
        if _is_cycle_component(g, g.full_mask, 5) and g.edge_count == 5:
            return FamilyLabel("C5")
    k2s = sum(1 for m in masks if m.bit_count() == 2)
    c5s = sum(1 for m in masks if _is_cycle_component(g, m, 5))
    if k2s == len(masks) and 2 * k2s == g.n:
        return FamilyLabel("mK2", (k2s,))
    star = _recognize_subdivided_star(g)
    if star is not None:
        return star
    if k2s + c5s == len(masks) and 2 * k2s + 5 * c5s == g.n:
        return FamilyLabel("mK2+mC5", (k2s, c5s))
    return None


# --- family spec mini-syntax -------------------------------------------------


def parse_family_spec(spec: str) -> Graph:
    """Build a graph from a spec string such as "C5", "mK2:3",
    "star:t=3,d=1", or "union:K2*2+C5*1"."""
    s = spec.strip()
    base = {"K2": make_k2, "C3": lambda: make_cycle(3), "C5": lambda: make_cycle(5)}
    if s in base:
        return base[s]()
    if s.startswith("mK2:"):
        if not s[4:].isdecimal():
            raise GraphError(f"bad multiplicity in {spec!r}")
        m = int(s[4:])
        if m < 1:
            raise GraphError("mK2 requires m >= 1")
        return make_union([(make_k2(), m)])
    if s.startswith("star:"):
        try:
            params = dict(part.split("=") for part in s[5:].split(","))
            t, d = params.pop("t"), params.pop("d", "0")
        except (KeyError, ValueError):
            raise GraphError(f"bad star parameters in {spec!r}") from None
        if not (t.isdecimal() and d.isdecimal()):
            raise GraphError(f"bad star parameters in {spec!r}")
        if params:
            raise GraphError(f"unknown star parameters {sorted(params)}")
        return make_subdivided_star(int(t), int(d))
    if s.startswith("union:"):
        parts = []
        for term in s[6:].split("+"):
            name, star, mult = term.partition("*")
            if name not in base:
                raise GraphError(f"unknown union component {name!r}")
            if star and not mult.isdecimal():
                raise GraphError(f"bad multiplicity in {spec!r}")
            parts.append((base[name](), int(mult) if star else 1))
        return make_union(parts)
    raise GraphError(f"unrecognized family spec {spec!r}")


def looks_like_family_spec(text: str) -> bool:
    s = text.strip()
    return s in ("K2", "C3", "C5") or s.startswith(("mK2:", "star:", "union:"))
