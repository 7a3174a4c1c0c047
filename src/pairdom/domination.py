"""Dominating sets, paired dominating sets, and the four exact invariants.

A vertex subset is a bitset S. The whole-graph scans hold one property of
all 2^n subsets in a *subset bitmap*, an int whose bit S is set iff S has
the property. ``_members(n)[i]`` is the bitmap of the subsets containing
i and ``_layers(n)[k]`` that of the k-subsets. ``s |= s << 2^u`` adds u to
every set of s, so the subsets of V - N[v], the sets that miss N[v], are a
product; ``(x << 2^i) & members[i]`` adds i to the sets of x without it
(adding 2^i to a set with i carries out of bit i, so the AND drops it). A
scan is O(n + m) such passes over 2^n bits and returns ``Subsets``, which
list their sets only when iterated. γ and Γ are the least and largest k
with ``bitmap & layers[k]``, and the lexicographically least k-set is what
ANDing the layer with ``members[v]``, v = 0..n-1, leaves where that keeps
a set. Every exact scan, the paired ones and the independence branching
included, refuses a graph past the one guard ``DOMINATION_GUARD`` before
it starts. The per-set predicates (``is_dominating`` and the like) share
nothing with the bitmaps: they are the cross-check.
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
# then of every check on a new Facts of the same graph, which scans again,
# and the peak RSS (ru_maxrss) of both. A graph this large is a chunk of
# one in ``harness``, so a run holds no other graph's scans beside it. No
# check is skipped on any of them.
#   K24         0.22 s  0.20 s  139 MB     C24        0.22 s  0.25 s  150 MB
#   K12,12      0.23 s  0.21 s  140 MB     P24        0.26 s  0.28 s  151 MB
#   11K2        0.05 s  0.05 s   46 MB     12K2       0.26 s  0.25 s  149 MB
#   7K2 + 2C5   0.26 s  0.24 s  154 MB     2K2 + 4C5  0.27 s  0.28 s  155 MB
#   ten connected G(24, p), p = 0.15-0.69:  at most 0.25 s  0.31 s  155 MB
# _members(24) and _layers(24) are 98 MB of that, and their first touch
# 25,000 of the 50,000-70,000 minor faults of invariants; glibc maps each
# 2 MB temporary anew, and with MALLOC_MMAP_THRESHOLD_ and
# MALLOC_TRIM_THRESHOLD_ at 64 MB and 1 GB C24 takes 35,000 and 0.2 s.
DOMINATION_GUARD = 24


class GuardError(GraphError):
    """An enumeration guard was exceeded."""


def closed_neighborhoods(g: Graph) -> list[int]:
    return [g.adj[v] | (1 << v) for v in range(g.n)]


def has_isolated_vertex(g: Graph) -> bool:
    return 0 in g.adj


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


# _LOW_SUBSETS[m]: the subset bitmap of the subsets of the 8-bit set m.
_LOW_SUBSETS = [1]
for _i in range(8):
    _LOW_SUBSETS += [s | s << (1 << _i) for s in _LOW_SUBSETS]


@lru_cache(maxsize=1)
def _dominating(g: Graph) -> int:
    """Bitmap of the dominating sets: all but the subsets of some V - N[v],
    each built below the top vertex t from the table entry of its low 8
    vertices; those of a V - N[v] with t are also kept in ``with_top``, which
    one last shift adds t to. Kept for the last graph, so that both scans of
    ``invariants`` read it."""
    missed = with_top = 0
    for closed in closed_neighborhoods(g):
        low = ~closed & g.full_mask >> 1
        subsets = _LOW_SUBSETS[low & 255]
        for u in bits_of(low >> 8):
            subsets |= subsets << (256 << u)
        missed |= subsets
        if not closed >> (g.n - 1):
            with_top |= subsets
    return ((1 << (1 << g.n)) - 1) ^ (missed | with_top << ((1 << g.n) >> 1))


def _masks(bitmap: int) -> list[int]:
    """The set bits of a bitmap, in increasing order, read off one string of
    its 2^n digits: at n = 24 that string sets the checks' peak memory."""
    digits = bin(bitmap)
    top = len(digits) - 1
    return [top - m.start() for m in re.finditer("1", digits)][::-1]


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
    the matchable subsets of {0..v}, 2^(v+1) bits. Raises GraphError
    where paired domination is undefined (``paired_domination_defined``)."""
    _guard(g)
    if not paired_domination_defined(g):
        raise GraphError("paired domination is undefined on K0 and "
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
    """Bitmap of the PDSs with no paired dominating proper subset. Step i
    of the up-closure grows S from an S - i in ``up``, so S strictly holds
    a PDS, and grows each S strictly above a PDS T at i = max(S - T); the
    sets of ``up`` never grown, outside ``strict``, are the minimal PDSs."""
    up, strict = paired_dominating_masks(g), 0
    for i, has_i in enumerate(_members(g.n)):
        grown = (up << (1 << i)) & has_i
        up |= grown
        strict |= grown
    return Subsets(up ^ strict)


def sets_of_size(bitmap: int, n: int, k: int) -> Subsets:
    """The k-sets of a subset bitmap over n vertices."""
    return Subsets(bitmap & _layers(n)[k])


def lacking_half_mds(n: int, mds: int, sets: int) -> int:
    """The bitmap of the sets in ``sets`` that contain no set of ``mds``
    of at least half their size. For k = n..0, the sets of size 2k - 1 and
    2k must be in ``up``, the supersets of the sets of ``mds`` of size at
    least k; those wait in ``seeds`` until a size is due, so that one
    up-closure serves every size in between. A k whose two sizes ``sets``
    lacks costs three ANDs and no closure. The n zeros after the layers
    stand for the sizes past n and for size -1 (n = 0 reads layer 0 twice)."""
    members, layers = _members(n), _layers(n) + (0,) * n
    up = seeds = bad = 0
    for k in reversed(range(n + 1)):
        seeds |= mds & layers[k]
        due = sets & layers[2 * k] | sets & layers[2 * k - 1]
        if due and seeds:
            up |= _up_closure(seeds, members)
            seeds = 0
        bad |= due ^ (due & up)
    return bad


def _alpha(adj: list[int], cand: int) -> int:
    """Largest independent subset of the bitset cand. A vertex v with at
    most one neighbour u in cand is taken outright: it lies in some maximum
    independent set, as a maximum set I without v holds u (else I + v would
    be larger), and I - u + v is independent and as large. Otherwise a
    vertex v of largest degree is branched on: max(alpha(cand - v),
    1 + alpha(cand - N[v]))."""
    size = 0
    while cand:
        top = top_degree = 0
        for v in bits_of(cand):
            degree = (adj[v] & cand).bit_count()
            if degree <= 1:
                break
            if degree > top_degree:
                top, top_degree = v, degree
        else:
            cand ^= 1 << top
            return size + max(_alpha(adj, cand), 1 + _alpha(adj, cand & ~adj[top]))
        cand &= ~(adj[v] | 1 << v)
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
        kept = left & has_v
        if kept:
            left = kept
            taken += 1
    return bits_of(left.bit_length() - 1)


def _size_extremes(bitmap: int, n: int, step: int = 1) -> tuple[int, int, tuple, tuple]:
    """The least and the largest size of a set in a non-empty subset bitmap,
    and the lexicographically least set of each of the two sizes, among the
    multiples of ``step``. ``invariants`` passes 2 for the minimal PDSs: a
    PDS is the disjoint pairs of a perfect matching, so its size is even."""
    layers, sizes = _layers(n), range(0, n + 1, step)
    low = next(k for k in sizes if bitmap & layers[k])
    high = next(k for k in reversed(sizes) if bitmap & layers[k])
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
         witnesses["upper_gamma_pr"]) = _size_extremes(mpds, g.n, 2)
    return InvariantReport(gamma, upper_gamma, gamma_pr, upper_gamma_pr, witnesses,
                           mds, mpds)
