"""Perfect matchings of induced subgraphs.

The sets handled here are tiny (paired dominating sets of small graphs), so
everything is a recursive search on bitsets: repeatedly pair the least
unmatched vertex with each of its unmatched neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .graph import Graph, GraphError, as_mask, bits_of

ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint edge pairs (u, v) with u < v, sorted ascending."""

    pairs: tuple[tuple[int, int], ...]

    def covered(self) -> int:
        mask = 0
        for u, v in self.pairs:
            mask |= (1 << u) | (1 << v)
        return mask


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


def has_perfect_matching(g: Graph, S) -> bool:
    """True iff the subgraph induced by S has a perfect matching."""
    mask = as_mask(S, g.n)
    if mask.bit_count() % 2:
        return False
    return perfect_matching_tester(g)(mask)


def find_perfect_matching(g: Graph, S) -> Matching | None:
    """The lexicographically least perfect matching of G[S], or None.

    Greedy on the least unmatched vertex with a completability check, which
    yields the least sorted pair list.
    """
    mask = as_mask(S, g.n)
    if mask.bit_count() % 2:
        return None
    pm = perfect_matching_tester(g)
    if not pm(mask):
        return None
    pairs = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        for u in bits_of(g.adj[v] & rest):
            if pm(rest ^ (1 << u)):
                pairs.append((v, u))
                mask = rest ^ (1 << u)
                break
    return Matching(tuple(pairs))


def all_perfect_matchings(g: Graph, S) -> list[Matching]:
    """Every perfect matching of G[S], in lexicographic order."""
    mask = as_mask(S, g.n)
    if mask.bit_count() > ENUMERATION_LIMIT:
        raise GraphError(
            f"matching enumeration limited to |S| <= {ENUMERATION_LIMIT}"
        )
    if mask.bit_count() % 2:
        return []
    out: list[Matching] = []
    pairs: list[tuple[int, int]] = []

    def rec(rest: int):
        if not rest:
            out.append(Matching(tuple(pairs)))
            return
        v = (rest & -rest).bit_length() - 1
        body = rest ^ (1 << v)
        for u in bits_of(g.adj[v] & body):
            pairs.append((v, u))
            rec(body ^ (1 << u))
            pairs.pop()

    rec(mask)
    out.sort(key=lambda m: m.pairs)
    return out
