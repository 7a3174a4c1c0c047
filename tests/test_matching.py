import gc
import itertools
import weakref

import oracles
from oracles import path_graph
from pairdom.graph import build_graph
from pairdom.families import make_cycle
from pairdom.matching import all_perfect_matchings, perfect_matching_tester


def mask_of(S) -> int:
    return sum(1 << v for v in S)


class TestHasPerfectMatching:
    def test_examples(self):
        pm = perfect_matching_tester(make_cycle(4))
        assert pm(mask_of([0, 1, 2, 3]))
        assert pm(mask_of([0, 1]))
        assert not pm(mask_of([0, 2]))  # non-adjacent pair
        assert not pm(mask_of([0, 1, 2]))  # odd

    def test_empty_set(self):
        assert perfect_matching_tester(path_graph(3))(0)

    def test_against_oracle(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            pm = perfect_matching_tester(g)
            for r in range(0, g.n + 1):
                for S in itertools.combinations(range(g.n), r):
                    assert pm(mask_of(S)) == oracles.has_perfect_matching(g, S), (
                        g.edges(),
                        S,
                    )

    def test_tester_matches_per_call_api(self, graphs_up_to_5):
        # One tester's memo, shared by every call, must answer as a fresh
        # tester does for each single call.
        for g in graphs_up_to_5:
            pm = perfect_matching_tester(g)
            for mask in range(1 << g.n):
                assert pm(mask) == perfect_matching_tester(g)(mask)

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


class TestAllPerfectMatchings:
    def test_k4_has_three(self):
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        ms = all_perfect_matchings(k4, [0, 1, 2, 3])
        assert ms == [
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        ]

    def test_pairs_are_normalized(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            full = list(range(g.n))
            for m in all_perfect_matchings(g, full):
                assert isinstance(m, tuple)
                assert all(u < v for u, v in m)
                assert list(m) == sorted(m)

    def test_enumeration_is_sorted(self, graphs_up_to_5):
        # The search emits the matchings in lexicographic order, with no
        # sort: every S of every graph with n <= 5 pins that, and a set is
        # enumerated to nothing exactly when it has no perfect matching.
        for g in graphs_up_to_5:
            pm = perfect_matching_tester(g)
            for mask in range(1 << g.n):
                every = all_perfect_matchings(g, mask)
                assert every == sorted(every)
                assert bool(every) == pm(mask)
