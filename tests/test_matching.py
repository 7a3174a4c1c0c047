import gc
import itertools
import weakref

import pytest

import oracles
from pairdom.graph import build_graph
from pairdom.families import make_cycle, make_path
from pairdom.matching import (
    ENUMERATION_LIMIT,
    Matching,
    all_perfect_matchings,
    find_perfect_matching,
    has_perfect_matching,
    perfect_matching_tester,
)


class TestHasPerfectMatching:
    def test_examples(self):
        g = make_cycle(4)
        assert has_perfect_matching(g, [0, 1, 2, 3])
        assert has_perfect_matching(g, [0, 1])
        assert not has_perfect_matching(g, [0, 2])  # non-adjacent pair
        assert not has_perfect_matching(g, [0, 1, 2])  # odd

    def test_empty_set(self):
        assert has_perfect_matching(make_path(3), [])

    def test_against_oracle(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            for r in range(0, g.n + 1, 2):
                for S in itertools.combinations(range(g.n), r):
                    assert has_perfect_matching(g, S) == oracles.has_perfect_matching(g, S), (
                        g.edges(),
                        S,
                    )

    def test_tester_matches_per_call_api(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            pm = perfect_matching_tester(g)
            for mask in range(1 << g.n):
                S = [v for v in range(g.n) if (mask >> v) & 1]
                assert pm(mask) == has_perfect_matching(g, S)

    def test_tester_is_freed_without_cyclic_gc(self):
        g = make_cycle(6)
        pm = perfect_matching_tester(g)
        assert pm(g.full_mask)
        ref = weakref.ref(pm)
        gc.disable()
        try:
            del pm
            assert ref() is None
        finally:
            gc.enable()


class TestFindPerfectMatching:
    def test_lexicographically_least_on_c4(self):
        m = find_perfect_matching(make_cycle(4), [0, 1, 2, 3])
        assert m.pairs == ((0, 1), (2, 3))

    def test_none_when_impossible(self):
        assert find_perfect_matching(make_path(4), [0, 2]) is None

    def test_returns_least_of_enumeration(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            for r in range(0, g.n + 1, 2):
                for S in itertools.combinations(range(g.n), r):
                    found = find_perfect_matching(g, S)
                    every = all_perfect_matchings(g, S)
                    if not every:
                        assert found is None
                    else:
                        assert found == every[0]
                        assert every == sorted(every, key=lambda m: m.pairs)

    def test_covered(self):
        m = Matching(((0, 1), (2, 3)))
        assert m.covered() == 0b1111


class TestAllPerfectMatchings:
    def test_k4_has_three(self):
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        ms = all_perfect_matchings(k4, [0, 1, 2, 3])
        assert [m.pairs for m in ms] == [
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        ]

    def test_pairs_are_normalized(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            full = list(range(g.n))
            for m in all_perfect_matchings(g, full):
                assert all(u < v for u, v in m.pairs)
                assert list(m.pairs) == sorted(m.pairs)

    def test_guard(self):
        big = build_graph(30, [(i, i + 1) for i in range(29)])
        with pytest.raises(Exception):
            all_perfect_matchings(big, list(range(ENUMERATION_LIMIT + 2)))
