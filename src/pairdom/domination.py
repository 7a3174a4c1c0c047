"""Dominating sets, paired dominating sets, and the four exact invariants.

A vertex subset is a bitset S. The whole-graph scans hold one property of
all 2^n subsets in a *subset bitmap*, an int whose bit S is set iff S has
the property. ``_members(n)[i]`` is the bitmap of the subsets containing
i and ``_layers(n)[k]`` that of the k-subsets; ORs and ANDs of these
combine conditions, and ``(x << 2^i) & members[i]`` maps each subset in x
without i to itself plus i (adding 2^i to a subset with i carries out of
bit i, so the AND drops it), so a scan is O(n + m) big-int operations. The
scans return ``Subsets``, which list their sets only when iterated. γ and
Γ are the least and largest k with ``bitmap & layers[k]``, and the
lexicographically least k-set is what ANDing the layer with
``members[v]``, v = 0..n-1, leaves where that keeps a set. Every exact scan,
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
# one process per graph, the least of three runs: the time of invariants,
# then of a following run_checks(g, ALL_CHECK_IDS), which scans again, and
# the peak RSS (ru_maxrss) of both. No check is skipped on any of them.
#   K24          0.5 s  0.3 s  156 MB      C24       0.4 s  0.5 s  167 MB
#   K12,12       0.4 s  0.3 s  147 MB      P24       0.4 s  0.4 s  164 MB
#   11K2         0.1 s  0.1 s   55 MB      12K2      0.4 s  0.4 s  179 MB
#   7K2 + 2C5    0.4 s  0.4 s  175 MB      2K2 + 4C5 0.3 s  0.4 s  175 MB
#   ten connected G(24, p), p = 0.15-0.69:  at most 0.5 s  0.5 s  166 MB
# _members(24) and _layers(24) are 98 MB of that, and touching them first
# is about 25,000 of the 50,000-70,000 minor page faults invariants takes
# on each graph. Most of the rest are glibc's: it maps and unmaps each 2 MB
# temporary on its own, and with MALLOC_MMAP_THRESHOLD_ and
# MALLOC_TRIM_THRESHOLD_ set to 64 MB and 1 GB, C24 takes 31,000 and 0.3 s.
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


@lru_cache(maxsize=1)
def _layers(n: int) -> tuple[int, ...]:
    """layers[k]: the subsets of {0..n-1} with k members. A k-subset of
    {0..i} is one of {0..i-1}, or a (k-1)-subset of it plus i, which is
    2^i bits higher. Only the last order is kept (25 x 2 MB at n = 24)."""
    layers = [1] + [0] * n
    for i in range(n):
        for k in range(i + 1, 0, -1):
            layers[k] |= layers[k - 1] << (1 << i)
    return tuple(layers)


def _one_more(bitmap: int, members) -> int:
    """The subsets S + v for every S in the bitmap and every v not in S."""
    out = 0
    for i, has_i in enumerate(members):
        out |= (bitmap << (1 << i)) & has_i
    return out


def _up_closure(bitmap: int, members) -> int:
    """The supersets of the sets in the bitmap."""
    for i, has_i in enumerate(members):
        bitmap |= (bitmap << (1 << i)) & has_i
    return bitmap


@lru_cache(maxsize=1)
def _dominating(g: Graph) -> int:
    """Bitmap of the dominating sets: for every v, some u in N[v] is in S.
    Kept for the last graph, so that both scans of ``invariants`` read it."""
    members = _members(g.n)
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


def minimal_dominating_masks(g: Graph) -> Subsets:
    """Bitmap of the minimal dominating sets: the dominating sets S with no
    dominating S - v, which are all but ``_one_more`` of them."""
    _guard(g)
    dominating = _dominating(g)
    return Subsets(dominating ^ _one_more(dominating, _members(g.n)))


def paired_dominating_masks(g: Graph) -> Subsets:
    """The bitmap of all paired dominating sets (not only minimal ones),
    read as their bitsets in increasing mask order. A set with largest
    vertex v has a perfect matching iff it is {u, v} plus a matchable set
    below v without u, u ~ v, u < v; so after step v, ``matchable`` holds
    the matchable subsets of {0..v}, 2^(v+1) bits. Raises
    IsolatedVertexError where paired domination is undefined."""
    _guard(g)
    if not paired_domination_defined(g):
        raise IsolatedVertexError("paired domination is undefined on K0 and "
                                  "on a graph with an isolated vertex")
    members = _members(g.n)
    matchable = 1
    for v in range(g.n):
        with_u = 0
        for u in bits_of(g.adj[v] & ((1 << v) - 1)):
            with_u |= (matchable << (1 << u)) & members[u]
        matchable |= with_u << (1 << v)
    return Subsets(_dominating(g) & matchable)


def minimal_paired_dominating_masks(g: Graph) -> Subsets:
    """Bitmap of the PDSs with no paired dominating proper subset: those
    outside ``_one_more`` of the up-closure of all of them."""
    pds = paired_dominating_masks(g)
    members = _members(g.n)
    return Subsets(pds & ~_one_more(_up_closure(pds, members), members))


def sets_of_size(bitmap: int, n: int, k: int) -> Subsets:
    """The k-sets of a subset bitmap over n vertices."""
    return Subsets(bitmap & _layers(n)[k])


def lacking_half_mds(n: int, mds: int, sets: int) -> int:
    """The bitmap of the sets in ``sets`` that contain no set of ``mds``
    of at least half their size. For k = n..0, the sets of size 2k - 1 and
    2k must be in ``up``, the supersets of the sets of ``mds`` of size at
    least k; those wait in ``seeds`` until a size is due, so that one
    up-closure serves every size in between."""
    members, layers = _members(n), _layers(n)
    up = seeds = bad = 0
    for k in reversed(range(n + 1)):
        seeds |= mds & layers[k]
        due = sets & sum(layers[max(2 * k - 1, 0):2 * k + 1])
        if due and seeds:
            up |= _up_closure(seeds, members)
            seeds = 0
        bad |= due & ~up
    return bad


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
    increasing vertex tuples, and the subset bitmaps of the minimal
    (paired) dominating sets they were taken from.

    The paired fields are None, and the minimal PDS bitmap is empty, where
    paired domination is undefined: on K0 and on a graph with an isolated
    vertex.
    """

    gamma: int
    upper_gamma: int
    gamma_pr: int | None
    upper_gamma_pr: int | None
    witnesses: dict
    mds_masks: Subsets = field(repr=False, compare=False)
    mpds_masks: Subsets = field(repr=False, compare=False)


def _least_of_size(bitmap: int, n: int, k: int) -> tuple[int, ...]:
    """The lexicographically least k-set of a subset bitmap, as its vertex
    tuple: of the k-sets left, keep those with vertex v, for v = 0..n-1,
    whenever one has it. The k-th vertex kept leaves one set."""
    left = bitmap & _layers(n)[k]
    taken = 0
    for has_v in _members(n):
        if taken == k:
            break
        if left & has_v:
            left &= has_v
            taken += 1
    return bits_of(left.bit_length() - 1)


def _size_extremes(bitmap: int, n: int) -> tuple[int, int, tuple, tuple]:
    """The least and the largest size of a set in a non-empty subset bitmap,
    and the lexicographically least set of each of the two sizes."""
    layers = _layers(n)
    low = next(k for k in range(n + 1) if bitmap & layers[k])
    high = next(k for k in reversed(range(n + 1)) if bitmap & layers[k])
    return low, high, _least_of_size(bitmap, n, low), _least_of_size(bitmap, n, high)


def invariants(g: Graph) -> InvariantReport:
    """Exact γ, Γ, γ_pr, Γ_pr by exhaustive enumeration."""
    mds = minimal_dominating_masks(g)
    gamma, upper_gamma, low, high = _size_extremes(mds, g.n)
    witnesses = {"gamma": low, "upper_gamma": high,
                 "gamma_pr": None, "upper_gamma_pr": None}
    gamma_pr = upper_gamma_pr = None
    mpds = Subsets(0)
    if paired_domination_defined(g):
        mpds = minimal_paired_dominating_masks(g)
        (gamma_pr, upper_gamma_pr, witnesses["gamma_pr"],
         witnesses["upper_gamma_pr"]) = _size_extremes(mpds, g.n)
    return InvariantReport(gamma, upper_gamma, gamma_pr, upper_gamma_pr, witnesses,
                           mds, mpds)
