"""Perfect matchings of induced subgraphs.

The sets handled here are tiny (paired dominating sets of small graphs), so
everything is a recursive search on bitsets: repeatedly pair the least
unmatched vertex with each of its unmatched neighbors.
"""

from __future__ import annotations

from functools import partial

from .graph import Graph, GraphError, as_mask, bits_of

ENUMERATION_LIMIT = 20


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
    with its partners in increasing order, so it emits them sorted."""
    mask = as_mask(S, g.n)
    if mask.bit_count() > ENUMERATION_LIMIT:
        raise GraphError(
            f"matching enumeration limited to |S| <= {ENUMERATION_LIMIT}"
        )
    if mask.bit_count() % 2:
        return []
    out = []
    pairs: list[tuple[int, int]] = []

    def rec(rest: int):
        if not rest:
            out.append(tuple(pairs))
            return
        v = (rest & -rest).bit_length() - 1
        body = rest ^ (1 << v)
        for u in bits_of(g.adj[v] & body):
            pairs.append((v, u))
            rec(body ^ (1 << u))
            pairs.pop()

    rec(mask)
    return out
