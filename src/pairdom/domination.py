"""Dominating sets, private neighborhoods, and the four exact invariants.

Everything is computed by exhaustive scans over vertex subsets encoded as
bitsets. The scans are exact and deliberately simple; guards fail loudly
when an input is too large for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, GraphError, VertexSet, as_mask, bits_of
from .matching import perfect_matching_tester

DOMINATION_GUARD = 24
PAIRED_GUARD = 20


class GuardError(GraphError):
    """An enumeration guard was exceeded."""


class IsolatedVertexError(GraphError):
    """Paired domination is undefined for graphs with isolated vertices."""


def closed_neighborhoods(g: Graph) -> list[int]:
    return [g.adj[v] | (1 << v) for v in range(g.n)]


def has_isolated_vertex(g: Graph) -> bool:
    return any(row == 0 for row in g.adj)


def is_dominating(g: Graph, D) -> bool:
    """True iff every vertex is in D or adjacent to a vertex of D."""
    mask = as_mask(D, g.n)
    cover = mask
    for v in bits_of(mask):
        cover |= g.adj[v]
    return cover == g.full_mask


def private_neighborhood(g: Graph, v: int, S) -> VertexSet:
    """pn(v, S): the vertices u with N(u) ∩ S = {v}."""
    mask = as_mask(S, g.n)
    if not (mask >> v) & 1:
        raise GraphError(f"vertex {v} is not in S")
    target = 1 << v
    out = 0
    for u in range(g.n):
        if g.adj[u] & mask == target:
            out |= 1 << u
    return VertexSet(out, g.n)


def external_private_neighborhood(g: Graph, v: int, S) -> VertexSet:
    """epn(v, S) = pn(v, S) minus S."""
    mask = as_mask(S, g.n)
    pn = private_neighborhood(g, v, mask)
    return VertexSet(pn.bits & ~mask, g.n)


def epn_pair(g: Graph, u: int, v: int, S) -> VertexSet:
    """epn(u, v; S): vertices outside S seen only by u and/or v within S."""
    mask = as_mask(S, g.n)
    if u == v:
        raise GraphError("epn_pair requires two distinct vertices")
    for w in (u, v):
        if not (mask >> w) & 1:
            raise GraphError(f"vertex {w} is not in S")
    pair = (1 << u) | (1 << v)
    candidates = (g.adj[u] | g.adj[v]) & ~mask
    out = 0
    for w in bits_of(candidates):
        if g.adj[w] & mask & ~pair == 0:
            out |= 1 << w
    return VertexSet(out, g.n)


def _irredundant(g: Graph, mask: int) -> bool:
    """Every v in the set has a closed private neighbor: either some
    outside vertex whose only neighbor in the set is v, or v itself when
    none of v's neighbors is in the set."""
    flagged = 0
    for u in range(g.n):
        if (mask >> u) & 1:
            if g.adj[u] & mask == 0:
                flagged |= 1 << u
        else:
            t = g.adj[u] & mask
            if t and t.bit_count() == 1:
                flagged |= t
    return mask & ~flagged == 0


def is_minimal_dominating(g: Graph, D) -> bool:
    """Dominating with no dominating proper subset.

    Decided via private neighbors: every v in D either has some vertex whose
    only D-neighbor is v, or has no neighbor in D at all (so v dominates
    itself privately).
    """
    mask = as_mask(D, g.n)
    return is_dominating(g, mask) and _irredundant(g, mask)


def is_paired_dominating(g: Graph, P) -> bool:
    mask = as_mask(P, g.n)
    if not is_dominating(g, mask):
        return False
    if mask.bit_count() % 2:
        return False
    return perfect_matching_tester(g)(mask)


def is_minimal_paired_dominating(g: Graph, P) -> bool:
    """A PDS with no paired dominating proper subset (literal definition)."""
    mask = as_mask(P, g.n)
    if not is_paired_dominating(g, mask):
        return False
    pm = perfect_matching_tester(g)
    closed = closed_neighborhoods(g)
    full = g.full_mask
    sub = (mask - 1) & mask
    while sub:
        if sub.bit_count() % 2 == 0:
            cover = 0
            for v in bits_of(sub):
                cover |= closed[v]
            if cover == full and pm(sub):
                return False
        sub = (sub - 1) & mask
    return True


# --- whole-graph scans ------------------------------------------------------


def coverage_table(g: Graph) -> list[int]:
    """cover[mask] = union of closed neighborhoods over the mask (n <= 20)."""
    if g.n > PAIRED_GUARD:
        raise GuardError(f"coverage table limited to n <= {PAIRED_GUARD}")
    closed = closed_neighborhoods(g)
    cover = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        cover[mask] = cover[mask ^ low] | closed[low.bit_length() - 1]
    return cover


def minimal_dominating_masks(g: Graph) -> list[int]:
    """All minimal dominating sets as bitsets, in increasing mask order."""
    if g.n > DOMINATION_GUARD:
        raise GuardError(f"dominating-set scan limited to n <= {DOMINATION_GUARD}")
    full = g.full_mask
    if g.n == 0:
        return [0]
    out = []
    if g.n <= PAIRED_GUARD:
        cover = coverage_table(g)
        for mask in range(1 << g.n):
            if cover[mask] == full and _irredundant(g, mask):
                out.append(mask)
    else:
        closed = closed_neighborhoods(g)
        for mask in range(1 << g.n):
            c = 0
            for v in bits_of(mask):
                c |= closed[v]
            if c == full and _irredundant(g, mask):
                out.append(mask)
    return out


def paired_dominating_masks(g: Graph) -> list[int]:
    """All paired dominating sets (not only minimal ones) as bitsets."""
    if g.n > PAIRED_GUARD:
        raise GuardError(f"paired-dominating scan limited to n <= {PAIRED_GUARD}")
    if has_isolated_vertex(g):
        raise IsolatedVertexError("graph has an isolated vertex")
    if g.n == 0:
        return [0]
    cover = coverage_table(g)
    full = g.full_mask
    pm = perfect_matching_tester(g)
    return [
        mask
        for mask in range(1 << g.n)
        if mask.bit_count() % 2 == 0 and cover[mask] == full and pm(mask)
    ]


def minimal_paired_dominating_masks(g: Graph) -> list[int]:
    pds = paired_dominating_masks(g)
    pds_set = set(pds)
    out = []
    for mask in pds:
        sub = (mask - 1) & mask
        minimal = True
        while sub:
            if sub in pds_set:
                minimal = False
                break
            sub = (sub - 1) & mask
        if minimal:
            out.append(mask)
    return out


def _lex_sorted(masks, n: int) -> list[VertexSet]:
    sets = [VertexSet(m, n) for m in masks]
    sets.sort(key=VertexSet.sort_key)
    return sets


def enumerate_minimal_dominating_sets(g: Graph) -> list[VertexSet]:
    return _lex_sorted(minimal_dominating_masks(g), g.n)


def enumerate_minimal_paired_dominating_sets(g: Graph) -> list[VertexSet]:
    return _lex_sorted(minimal_paired_dominating_masks(g), g.n)


def independence_number(g: Graph) -> int:
    """Maximum independent set size, by scanning all subsets."""
    if g.n > DOMINATION_GUARD:
        raise GuardError(f"independence scan limited to n <= {DOMINATION_GUARD}")
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        if all(g.adj[v] & mask == 0 for v in bits_of(mask)):
            best = mask.bit_count()
    return best


@dataclass(frozen=True)
class InvariantReport:
    """γ, Γ, γ_pr, Γ_pr with lexicographically least witness sets, and the
    minimal (paired) dominating sets they were taken from, as bitsets in
    increasing order.

    The paired fields are None, and there are no minimal PDS masks, when
    the graph has an isolated vertex, where paired domination is undefined.
    """

    gamma: int
    upper_gamma: int
    gamma_pr: int | None
    upper_gamma_pr: int | None
    witnesses: dict
    mds_masks: list[int] = field(repr=False, compare=False)
    mpds_masks: list[int] = field(repr=False, compare=False)

    @property
    def paired_defined(self) -> bool:
        return self.gamma_pr is not None


def _lex_least(masks, n: int) -> VertexSet:
    return min((VertexSet(m, n) for m in masks), key=VertexSet.sort_key)


def invariants(g: Graph) -> InvariantReport:
    """Exact γ, Γ, γ_pr, Γ_pr by exhaustive enumeration."""
    mds = minimal_dominating_masks(g)
    sizes = [m.bit_count() for m in mds]
    gamma = min(sizes)
    upper_gamma = max(sizes)
    witnesses = {
        "gamma": _lex_least([m for m in mds if m.bit_count() == gamma], g.n),
        "upper_gamma": _lex_least(
            [m for m in mds if m.bit_count() == upper_gamma], g.n
        ),
        "gamma_pr": None,
        "upper_gamma_pr": None,
    }
    gamma_pr = upper_gamma_pr = None
    mpds = []
    if not has_isolated_vertex(g):
        mpds = minimal_paired_dominating_masks(g)
        psizes = [m.bit_count() for m in mpds]
        gamma_pr = min(psizes)
        upper_gamma_pr = max(psizes)
        witnesses["gamma_pr"] = _lex_least(
            [m for m in mpds if m.bit_count() == gamma_pr], g.n
        )
        witnesses["upper_gamma_pr"] = _lex_least(
            [m for m in mpds if m.bit_count() == upper_gamma_pr], g.n
        )
    return InvariantReport(gamma, upper_gamma, gamma_pr, upper_gamma_pr, witnesses,
                           mds, mpds)
