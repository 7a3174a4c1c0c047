"""Perfect matchings of induced subgraphs.

The sets handled here are tiny (paired dominating sets of small graphs), so
everything is a recursive search on bitsets: repeatedly pair the least
unmatched vertex with each of its unmatched neighbors.
"""

from __future__ import annotations

from functools import partial

from .graph import Graph, as_mask, bits_of


def _has_perfect_matching(adj: list[int], memo: dict, mask: int) -> bool:
    cached = memo.get(mask)
    if cached is not None:
        return cached
    v = (mask & -mask).bit_length() - 1
    rest = mask ^ (1 << v)
    ok = False
    for u in bits_of(adj[v] & rest):
        if _has_perfect_matching(adj, memo, rest ^ (1 << u)):
            ok = True
            break
    memo[mask] = ok
    return ok


def perfect_matching_tester(g: Graph):
    """A memoized ``mask -> bool`` test for perfect matchings of G[mask].

    The search recurses through a module-level function, not a closure
    that refers to itself, so no reference cycle holds the memo: it is
    freed as soon as the tester is dropped."""
    return partial(_has_perfect_matching, g.adj, {0: True})


def all_perfect_matchings(g: Graph, S) -> list[tuple[tuple[int, int], ...]]:
    """Every perfect matching of G[S] as a tuple of its pairs (u, v), u < v,
    in lexicographic order: the search pairs the least unmatched vertex
    with its partners in increasing order, so it emits them sorted.

    The checks call it only on a maximum minimal PDS S of an equality graph
    whose components are triangle-free cacti, so G[S] is an induced
    subgraph of one, with no limit needed on |S|. For two perfect matchings
    M and M0 of G[S], M ^ M0 is a disjoint union of even cycles of G[S], and
    each cycle of a cactus is a block. So M is M0 flipped on a set of cycle
    blocks, and there are at most 2^c of them, c the number of cycle blocks
    of G[S]. Each block is a cycle of length >= 4 that adds at least 3
    vertices to its component, so c <= (|S| - 1) / 3: at most 2^7 = 128
    matchings for |S| <= 24, the scans' guard."""
    mask = as_mask(S, g.n)
    if mask.bit_count() % 2:
        return []
    out = []
    _matchings(g.adj, mask, [], out)
    return out


def _matchings(adj, rest: int, pairs: list, out: list) -> None:
    """Append to ``out`` each perfect matching of G[rest] after ``pairs``,
    pairing the least vertex of ``rest`` with its partners in increasing
    order. A module-level function, not a closure that refers to itself, so
    a call leaves no reference cycle."""
    if not rest:
        out.append(tuple(pairs))
        return
    v = (rest & -rest).bit_length() - 1
    body = rest ^ (1 << v)
    for u in bits_of(adj[v] & body):
        pairs.append((v, u))
        _matchings(adj, body ^ (1 << u), pairs, out)
        pairs.pop()
