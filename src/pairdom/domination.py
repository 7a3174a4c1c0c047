"""Dominating sets, paired dominating sets, and the four exact invariants.

A vertex subset is a bitset S. The whole-graph scans hold one property of
all 2^n subsets in a *subset bitmap*, an int whose bit S is set iff S has
the property. ``_members(n)[i]`` is the bitmap of the subsets containing
i; ORs and ANDs of these combine conditions, and ``(x & ~members[i]) <<
2^i`` maps each subset in x without i to itself plus i, so a scan is
O(n + m) big-int operations. The PDS scan returns its bitmap as a
``Subsets``, and only the minimal sets are ever listed. Every exact scan,
the paired ones and the independence branching included, refuses a graph
past the one guard ``DOMINATION_GUARD`` before it starts. The per-set
predicates (``is_dominating`` and the like) share nothing with the
bitmaps: they are the cross-check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .graph import Graph, GraphError, as_mask, bits_of
from .matching import perfect_matching_tester

# One guard for every exact scan, so that Γ and Γ_pr are always computed on
# the same graphs. Its budget at n = 24, on a 2-vCPU Xeon with Python 3.11,
# one process per graph, one run each: the time of invariants, then of a
# following run_checks(g, ALL_CHECK_IDS), which scans again, and the peak
# RSS (ru_maxrss) of both. No check is skipped on any of them.
#   K24          1.9 s  1.8 s  106 MB      C24       0.7 s  0.7 s  113 MB
#   K12,12       1.2 s  1.1 s  109 MB      P24       0.6 s  0.6 s  113 MB
#   11K2         0.1 s  0.1 s   39 MB      12K2      0.6 s  0.4 s  112 MB
#   7K2 + 2C5    0.5 s  0.4 s  112 MB      2K2 + 4C5 0.6 s  0.5 s  114 MB
#   ten connected G(24, p), p = 0.15-0.7:  at most 1.5 s  1.5 s  116 MB
DOMINATION_GUARD = 24


class GuardError(GraphError):
    """An enumeration guard was exceeded."""


class IsolatedVertexError(GraphError):
    """Paired domination is undefined on K0 and on a graph with an isolated
    vertex (``paired_domination_defined`` is false)."""


def closed_neighborhoods(g: Graph) -> list[int]:
    return [g.adj[v] | (1 << v) for v in range(g.n)]


def has_isolated_vertex(g: Graph) -> bool:
    return any(row == 0 for row in g.adj)


def paired_domination_defined(g: Graph) -> bool:
    """Whether Γ_pr is defined: a non-empty graph with no isolated vertex."""
    return g.n > 0 and not has_isolated_vertex(g)


def _cover(closed: list[int], mask: int) -> int:
    """The union of the closed neighborhoods ``closed[v]`` over v in mask."""
    cover = 0
    for v in bits_of(mask):
        cover |= closed[v]
    return cover


def is_dominating(g: Graph, D) -> bool:
    """True iff every vertex is in D or adjacent to a vertex of D."""
    return _cover(closed_neighborhoods(g), as_mask(D, g.n)) == g.full_mask


def is_minimal_dominating(g: Graph, D) -> bool:
    """Dominating with no dominating proper subset: D dominates and no
    D - v does, for any v in D. Supersets of dominating sets dominate, so
    dropping one vertex at a time is enough."""
    closed = closed_neighborhoods(g)
    mask = as_mask(D, g.n)
    return _cover(closed, mask) == g.full_mask and all(
        _cover(closed, mask ^ (1 << v)) != g.full_mask for v in bits_of(mask))


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
        if sub.bit_count() % 2 == 0 and _cover(closed, sub) == full and pm(sub):
            return False
        sub = (sub - 1) & mask
    return True


# --- whole-graph scans ------------------------------------------------------


@lru_cache(maxsize=1)
def _members(n: int) -> tuple[int, ...]:
    """members[i]: the subsets of {0..n-1} that contain i, by doubling a
    2^(i+1)-bit period. Only the last order is kept (48 MB at n = 24)."""
    out = []
    for i in range(n):
        bitmap, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < 1 << n:
            bitmap |= bitmap << width
            width <<= 1
        out.append(bitmap)
    return tuple(out)


def _one_more(bitmap: int, members) -> int:
    """The subsets S + v for every S in the bitmap and every v not in S."""
    out = 0
    for i, has_i in enumerate(members):
        out |= (bitmap & ~has_i) << (1 << i)
    return out


def _dominating(g: Graph, members) -> int:
    """Bitmap of the dominating sets: for every v, some u in N[v] is in S."""
    out = (1 << (1 << g.n)) - 1
    for closed in closed_neighborhoods(g):
        hit = 0
        for u in bits_of(closed):
            hit |= members[u]
        out &= hit
    return out


def _masks(bitmap: int) -> list[int]:
    """The set bits of a bitmap, in increasing order."""
    return [m.start() for m in re.finditer("1", format(bitmap, "b")[::-1])]


class Subsets(int):
    """A subset bitmap read as the increasing list of its set bits: ``len``
    is the popcount, iterating lists them. Arithmetic gives a plain int."""

    def __len__(self) -> int:
        return self.bit_count()

    def __iter__(self):
        return iter(_masks(self))


def _guard(g: Graph) -> None:
    """Refuse a graph past the exact scans' guard, before any 2^n work."""
    if g.n > DOMINATION_GUARD:
        raise GuardError(f"exact scans limited to n <= {DOMINATION_GUARD}")


def minimal_dominating_masks(g: Graph) -> list[int]:
    """All minimal dominating sets as bitsets, in increasing mask order: the
    dominating sets S with no dominating S - v (not in ``_one_more``)."""
    _guard(g)
    members = _members(g.n)
    dominating = _dominating(g, members)
    return _masks(dominating & ~_one_more(dominating, members))


def paired_dominating_masks(g: Graph) -> Subsets:
    """The bitmap of all paired dominating sets (not only minimal ones),
    read as their bitsets in increasing mask order. A set with least vertex
    v has a perfect matching iff it is {v, u} plus a matchable set above v
    without u, u ~ v, u > v. Raises IsolatedVertexError where paired
    domination is undefined."""
    _guard(g)
    if not paired_domination_defined(g):
        raise IsolatedVertexError("paired domination is undefined on K0 and "
                                  "on a graph with an isolated vertex")
    members = _members(g.n)
    matchable = 1
    for v in reversed(range(g.n)):
        above_v = matchable
        for u in bits_of(g.adj[v] >> (v + 1) << (v + 1)):
            matchable |= (above_v & ~members[u]) << ((1 << v) | (1 << u))
    return Subsets(_dominating(g, members) & matchable)


def minimal_paired_dominating_masks(g: Graph) -> list[int]:
    """The paired dominating sets with no paired dominating proper subset:
    those outside ``_one_more`` of the up-closure of all of them."""
    pds = paired_dominating_masks(g)
    members = _members(g.n)
    above = pds
    for i, has_i in enumerate(members):
        above |= (above & ~has_i) << (1 << i)
    return _masks(pds & ~_one_more(above, members))


def _alpha(adj: list[int], cand: int) -> int:
    """Largest independent subset of the bitset cand: the least vertex v is
    taken outright when it has no neighbour in cand, else
    max(alpha(cand - v), 1 + alpha(cand - N[v]))."""
    size = 0
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand ^= 1 << v
        if adj[v] & cand:
            return size + max(_alpha(adj, cand), 1 + _alpha(adj, cand & ~adj[v]))
        size += 1
    return size


def independence_number(g: Graph) -> int:
    """Maximum independent set size, by branching on vertices. Shares no
    code with the subset bitmaps, so alpha <= Gamma stays a cross-check."""
    _guard(g)
    return _alpha(g.adj, g.full_mask)


@dataclass(frozen=True)
class InvariantReport:
    """γ, Γ, γ_pr, Γ_pr with lexicographically least witness sets, as
    increasing vertex tuples, and the minimal (paired) dominating sets they
    were taken from, as bitsets in increasing order.

    The paired fields are None, and there are no minimal PDS masks, where
    paired domination is undefined: on K0 and on a graph with an isolated
    vertex.
    """

    gamma: int
    upper_gamma: int
    gamma_pr: int | None
    upper_gamma_pr: int | None
    witnesses: dict
    mds_masks: list[int] = field(repr=False, compare=False)
    mpds_masks: list[int] = field(repr=False, compare=False)


def _lex_least(masks) -> tuple[int, ...]:
    """The lexicographically least of bitsets of one size, as its vertex
    tuple: A precedes B iff the lowest vertex in exactly one of them is in A."""
    best, *rest = masks
    for mask in rest:
        diff = mask ^ best
        if diff & -diff & mask:
            best = mask
    return bits_of(best)


def _extremes(masks) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The least and the largest size in a non-empty list of bitsets, and
    the lexicographically least set of each of the two sizes."""
    sizes = [m.bit_count() for m in masks]
    low, high = min(sizes), max(sizes)
    return (low, high,
            _lex_least([m for m, k in zip(masks, sizes) if k == low]),
            _lex_least([m for m, k in zip(masks, sizes) if k == high]))


def invariants(g: Graph) -> InvariantReport:
    """Exact γ, Γ, γ_pr, Γ_pr by exhaustive enumeration."""
    mds = minimal_dominating_masks(g)
    gamma, upper_gamma, low, high = _extremes(mds)
    witnesses = {"gamma": low, "upper_gamma": high,
                 "gamma_pr": None, "upper_gamma_pr": None}
    gamma_pr = upper_gamma_pr = None
    mpds = []
    if paired_domination_defined(g):
        mpds = minimal_paired_dominating_masks(g)
        (gamma_pr, upper_gamma_pr,
         witnesses["gamma_pr"], witnesses["upper_gamma_pr"]) = _extremes(mpds)
    return InvariantReport(gamma, upper_gamma, gamma_pr, upper_gamma_pr, witnesses,
                           mds, mpds)
