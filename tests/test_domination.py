import itertools

import pytest

import oracles
from oracles import path_graph, star_graph
from pairdom import domination
from pairdom.characterizations import hunt_record
from pairdom.graph import GraphError, build_graph
from pairdom.families import (
    disjoint_union,
    make_cycle,
    make_k2,
    make_subdivided_star,
)
from pairdom.domination import (
    GuardError,
    IsolatedVertexError,
    has_isolated_vertex,
    independence_number,
    invariants,
    is_dominating,
    is_minimal_dominating,
    is_minimal_paired_dominating,
    is_paired_dominating,
    minimal_dominating_masks,
    minimal_paired_dominating_masks,
    paired_domination_defined,
    paired_dominating_masks,
)
from pairdom.matching import all_perfect_matchings


def members(mask: int, n: int) -> tuple[int, ...]:
    """The increasing vertex tuple of a bitset, read bit by bit."""
    return tuple(v for v in range(n) if (mask >> v) & 1)


class TestVertexArguments:
    @pytest.mark.parametrize(
        "fn", [is_dominating, is_minimal_paired_dominating, all_perfect_matchings])
    @pytest.mark.parametrize(
        "arg", [[0, 5], [-1, 0], 1 << 5, -1, -(1 << 5)],
        ids=["vertex-n", "vertex-minus-1", "mask-bit-n", "mask-minus-1",
             "mask-negative"])
    def test_out_of_range_raises(self, fn, arg):
        with pytest.raises(GraphError):
            fn(make_cycle(5), arg)


class TestPrivateNeighborhoods:
    def test_epn_pair(self):
        # epn(u, v; S): outside vertices dominated only via the pair.
        cases = [
            (path_graph(4), 1, 2, [1, 2], {0, 3}),
            (make_cycle(5), 0, 1, [0, 1], {2, 4}),
            # vertex 4 also sees 3 in S, and 2 sees 3, so neither is private
            (make_cycle(5), 0, 1, [0, 1, 3], set()),
        ]
        for g, u, v, S, expect in cases:
            assert oracles.epn_pair(g, u, v, S) == expect


class TestMinimalDominating:
    def test_examples(self):
        g = make_cycle(5)
        assert is_dominating(g, [0, 2])
        assert not is_dominating(g, [0])
        assert is_minimal_dominating(g, [0, 2])
        assert not is_minimal_dominating(g, [0, 1, 2])

    def test_against_literal_oracle(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            for mask in range(1 << g.n):
                S = [v for v in range(g.n) if (mask >> v) & 1]
                assert is_dominating(g, S) == oracles.dominates(g, S)
                assert is_minimal_dominating(g, S) == oracles.is_minimal_dominating(
                    g, S
                ), (g.edges(), S)

    def test_c5_has_exactly_five_minimal_dominating_sets(self):
        got = minimal_dominating_masks(make_cycle(5))
        assert [members(m, 5) for m in got] == [
            (0, 2),
            (0, 3),
            (1, 3),
            (1, 4),
            (2, 4),
        ]


class TestPairedDominating:
    def test_examples(self):
        star = star_graph(3)  # center 0, leaves 1..3
        assert is_paired_dominating(star, [0, 1])
        assert is_minimal_paired_dominating(star, [0, 1])
        assert not is_paired_dominating(star, [1, 2])  # not adjacent
        assert not is_paired_dominating(star, [0])  # odd

    def test_against_literal_oracle(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            for mask in range(1 << g.n):
                S = [v for v in range(g.n) if (mask >> v) & 1]
                assert is_paired_dominating(g, S) == oracles.is_paired_dominating(
                    g, S
                )
                assert is_minimal_paired_dominating(
                    g, S
                ) == oracles.is_minimal_paired_dominating(g, S), (g.edges(), S)

    def test_enumeration_matches_oracle_on_c5(self):
        g = make_cycle(5)
        got = {members(m, 5) for m in minimal_paired_dominating_masks(g)}
        expect = {
            tuple(S)
            for r in range(0, 6, 2)
            for S in itertools.combinations(range(5), r)
            if oracles.is_minimal_paired_dominating(g, S)
        }
        assert got == expect


def _accepted(g, predicate) -> list[int]:
    """The masks of g whose vertex sets the oracle predicate accepts, in
    increasing order."""
    return [
        mask
        for mask in range(1 << g.n)
        if predicate(g, [v for v in range(g.n) if (mask >> v) & 1])
    ]


SCANS = [
    (minimal_dominating_masks, oracles.is_minimal_dominating),
    (paired_dominating_masks, oracles.is_paired_dominating),
    (minimal_paired_dominating_masks, oracles.is_minimal_paired_dominating),
]


class TestScans:
    def test_paired_scans_refuse_empty_graph(self):
        # Γ_pr is undefined on K0, as on a graph with an isolated vertex.
        k0 = build_graph(0, [])
        for scan in (paired_dominating_masks, minimal_paired_dominating_masks):
            with pytest.raises(IsolatedVertexError, match="K0"):
                scan(k0)
        assert minimal_dominating_masks(k0) == [0]

    def test_scans_match_literal_oracle(self, graphs_up_to_6):
        for g in graphs_up_to_6:
            for scan, predicate in SCANS:
                if scan is not minimal_dominating_masks and not paired_domination_defined(g):
                    with pytest.raises(IsolatedVertexError):
                        scan(g)
                else:
                    expected = _accepted(g, predicate)
                    got = scan(g)
                    assert list(got) == expected, (scan.__name__, g.edges())
                    if scan is paired_dominating_masks:
                        # the PDS scan's bitmap: bit S is set iff S is a PDS
                        assert len(got) == len(expected)
                        assert got == sum(1 << mask for mask in expected)

    @pytest.mark.parametrize(
        "scan, predicate, cycle, copies",
        [
            (*SCANS[0], 7, 3),
            (*SCANS[0], 8, 3),
            (*SCANS[1], 5, 4),
            (*SCANS[2], 5, 4),
        ],
        ids=["mds-3C7", "mds-3C8", "pds-4C5", "mpds-4C5"],
    )
    def test_disjoint_union_is_product(self, scan, predicate, cycle, copies):
        # Domination and perfect matchings split over components, so the
        # (minimal) (paired) dominating sets of a union are the unions of
        # one such set per component: orders 20-24 checked without 2^n
        # oracle calls.
        parts = _accepted(make_cycle(cycle), predicate)
        expect = [0]
        for k in range(copies):
            expect = [m | (part << (k * cycle)) for m in expect for part in parts]
        union = disjoint_union([make_cycle(cycle)] * copies)
        assert list(scan(union)) == sorted(expect)

    def test_minimality_filter_lists_only_minimal_sets(self, monkeypatch):
        # The filter reads the PDS bitmap, so the one list it builds is the
        # minimal PDSs, never the whole PDS family.
        listed = []
        original = domination._masks

        def recording(bitmap):
            listed.append(bitmap.bit_count())
            return original(bitmap)

        monkeypatch.setattr(domination, "_masks", recording)
        minimal = minimal_paired_dominating_masks(disjoint_union([make_cycle(5)] * 4))
        assert listed == [len(minimal)]


class TestInvariants:
    def test_closed_forms(self):
        # C3: Gamma = 1, Gamma_pr = 2.
        r = invariants(make_cycle(3))
        assert (r.gamma, r.upper_gamma, r.gamma_pr, r.upper_gamma_pr) == (1, 1, 2, 2)
        # C5: Gamma = 2, Gamma_pr = 4.
        r = invariants(make_cycle(5))
        assert (r.upper_gamma, r.upper_gamma_pr) == (2, 4)
        # mK2: Gamma = m, Gamma_pr = 2m.
        for m in (1, 2, 3):
            r = invariants(disjoint_union([make_k2()] * m))
            assert (r.upper_gamma, r.upper_gamma_pr) == (m, 2 * m)
        # Subdivided star with one triangle: Gamma = t + 1, Gamma_pr = 2(t + 1).
        for t in (1, 2, 3):
            r = invariants(make_subdivided_star(t, 1))
            assert (r.upper_gamma, r.upper_gamma_pr) == (t + 1, 2 * (t + 1))

    def test_matches_oracle(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            r = invariants(g)
            assert r.gamma == oracles.gamma(g)
            assert r.upper_gamma == oracles.upper_gamma(g)
            # The literal oracle lets the empty set pair K0; Γ_pr is
            # undefined there, as on a graph with an isolated vertex.
            if g.n == 0:
                assert (r.gamma_pr, r.upper_gamma_pr) == (None, None)
                continue
            assert r.gamma_pr == oracles.gamma_pr(g)
            assert r.upper_gamma_pr == oracles.upper_gamma_pr(g)

    def test_isolated_vertex_leaves_paired_undefined(self):
        g = build_graph(3, [(0, 1)])
        assert has_isolated_vertex(g)
        r = invariants(g)
        assert r.gamma_pr is None and r.upper_gamma_pr is None
        assert r.witnesses["gamma_pr"] is None

    def test_empty_graph_leaves_paired_undefined(self):
        k0 = build_graph(0, [])
        assert not paired_domination_defined(k0)
        r = invariants(k0)
        assert (r.gamma, r.upper_gamma, r.gamma_pr, r.upper_gamma_pr) == (0, 0, None, None)
        assert r.witnesses == {"gamma": (), "upper_gamma": (),
                               "gamma_pr": None, "upper_gamma_pr": None}
        assert r.mpds_masks == []

    def test_witnesses_are_lex_least_and_valid(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            r = invariants(g)
            w = r.witnesses["upper_gamma"]
            assert isinstance(w, tuple) and list(w) == sorted(set(w))
            assert len(w) == r.upper_gamma
            assert is_minimal_dominating(g, w)
            candidates = [
                members(m, g.n)
                for m in minimal_dominating_masks(g)
                if m.bit_count() == r.upper_gamma
            ]
            assert w == min(candidates)
            if r.gamma_pr is not None:
                wp = r.witnesses["upper_gamma_pr"]
                assert len(wp) == r.upper_gamma_pr
                assert is_minimal_paired_dominating(g, wp)

    def test_lex_least_matches_sort_key_order(self, graphs_up_to_7):
        # The integer rule must pick what the member-tuple order (plain min
        # over the member tuples) picks, for every size class of every scan
        # and so for every witness.
        for g in graphs_up_to_7:
            r = invariants(g)
            for masks in (r.mds_masks, r.mpds_masks):
                by_size = {}
                for m in masks:
                    by_size.setdefault(m.bit_count(), []).append(m)
                for group in by_size.values():
                    expect = min(members(m, g.n) for m in group)
                    assert domination._lex_least(group) == expect
            for kind, masks in (("gamma", r.mds_masks),
                                ("upper_gamma", r.mds_masks),
                                ("gamma_pr", r.mpds_masks),
                                ("upper_gamma_pr", r.mpds_masks)):
                size = getattr(r, kind)
                group = [members(m, g.n) for m in masks if m.bit_count() == size]
                expect = min(group) if group else None
                assert r.witnesses[kind] == expect

    def test_component_additivity(self):
        parts = [make_cycle(5), star_graph(3), path_graph(4)]
        whole = invariants(disjoint_union(parts))
        per = [invariants(p) for p in parts]
        assert whole.gamma == sum(r.gamma for r in per)
        assert whole.upper_gamma == sum(r.upper_gamma for r in per)
        assert whole.gamma_pr == sum(r.gamma_pr for r in per)
        assert whole.upper_gamma_pr == sum(r.upper_gamma_pr for r in per)


class TestIndependence:
    def test_against_oracle(self, graphs_up_to_6):
        for g in graphs_up_to_6:
            assert independence_number(g) == oracles.independence_number(g)

    @pytest.mark.parametrize(
        "g, alpha",
        [(make_cycle(24), 12), (disjoint_union([make_cycle(8)] * 3), 12),
         (disjoint_union([make_cycle(7)] * 3), 9)],
        ids=["C24", "3C8", "3C7"],
    )
    def test_large_orders(self, g, alpha):
        assert independence_number(g) == alpha


class TestGuards:
    def test_domination_guard(self):
        big = build_graph(25, [(i, (i + 1) % 25) for i in range(25)])
        with pytest.raises(GuardError):
            minimal_dominating_masks(big)

    def test_paired_guard(self):
        big = build_graph(25, [(i, (i + 1) % 25) for i in range(25)])
        with pytest.raises(GuardError):
            minimal_paired_dominating_masks(big)

    @pytest.mark.parametrize(
        "scan, n",
        [(minimal_dominating_masks, 25),
         (minimal_dominating_masks, 40),
         (paired_dominating_masks, 25),
         (minimal_paired_dominating_masks, 25),
         (minimal_paired_dominating_masks, 40)],
        ids=["mds-25", "mds-40", "pds-25", "mpds-25", "mpds-40"],
    )
    def test_guard_fires_before_any_bitmap(self, scan, n, monkeypatch):
        # A subset bitmap has 2^n bits, so an oversized graph must be
        # refused before one is built.
        def no_bitmaps(order):
            raise AssertionError(f"subset bitmaps built for n = {order}")

        monkeypatch.setattr(domination, "_members", no_bitmaps)
        with pytest.raises(GuardError):
            scan(make_cycle(n))

    def test_one_guard_for_every_scan(self):
        # Every exact scan stops at n = 24 with the same message; with an
        # isolated vertex the paired scans are not run at all.
        c25 = make_cycle(25)
        guard = r"exact scans limited to n <= 24"
        for scan in (invariants, independence_number):
            with pytest.raises(GuardError, match=guard):
                scan(c25)
        assert hunt_record(c25) == {"skipped": "too_large"}
        c20_k1 = disjoint_union([make_cycle(20), build_graph(1, [])])
        report = invariants(c20_k1)
        assert report.gamma_pr is None and report.gamma == 8
