import itertools
import json
import random
from pathlib import Path

import pytest

import oracles
from oracles import path_graph, star_graph
from pairdom import domination
from pairdom.characterizations import hunt_record
from pairdom.graph import GraphError, bits_of, build_graph, components, parse_graph6
from pairdom.families import (
    disjoint_union,
    make_cycle,
    make_k2,
    make_subdivided_star,
)
from pairdom.domination import (
    GuardError,
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
            with pytest.raises(GraphError, match="K0"):
                scan(k0)
        assert list(minimal_dominating_masks(k0)) == [0]

    def test_scans_match_literal_oracle(self, graphs_up_to_6):
        for g in graphs_up_to_6:
            for scan, predicate in SCANS:
                if scan is not minimal_dominating_masks and not paired_domination_defined(g):
                    with pytest.raises(GraphError, match="isolated vertex"):
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
        # The filter reads the PDS bitmap and lists nothing; iterating its
        # result lists the minimal PDSs, never the whole PDS family.
        listed = []
        original = domination._masks

        def recording(bitmap):
            listed.append(bitmap.bit_count())
            return original(bitmap)

        monkeypatch.setattr(domination, "_masks", recording)
        minimal = minimal_paired_dominating_masks(disjoint_union([make_cycle(5)] * 4))
        assert listed == []
        assert len(list(minimal)) == len(minimal) and listed == [len(minimal)]


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
        assert list(r.mpds_masks) == []

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
        # The bitmap rule must pick what the member-tuple order (plain min
        # over the member tuples) picks, for every size class of every scan
        # and so for every witness.
        for g in graphs_up_to_7:
            r = invariants(g)
            for bitmap in (r.mds_masks, r.mpds_masks):
                by_size = {}
                for m in bitmap:
                    by_size.setdefault(m.bit_count(), []).append(m)
                for k, group in by_size.items():
                    expect = min(members(m, g.n) for m in group)
                    assert domination._least_of_size(bitmap, g.n, k) == expect
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


def connected_gnp(count: int) -> list:
    """count seeded connected G(n, p) graphs, n in 16..18, p in 0.15..0.4."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        n, p = 16 + seed % 3, 0.15 + 0.05 * (seed % 6)
        g = build_graph(n, [])
        while len(components(g)) != 1:
            g = build_graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < p])
        out.append(g)
    return out


def extremes_mismatches(graphs) -> list:
    """The graphs whose four invariants and witnesses differ from the list
    rule of ``oracles.extremes`` over the listed minimal sets."""
    out = []
    for g in graphs:
        r = invariants(g)
        w = r.witnesses
        got = [(r.gamma, r.upper_gamma, w["gamma"], w["upper_gamma"])]
        expect = [oracles.extremes(list(r.mds_masks))]
        if paired_domination_defined(g):
            got.append((r.gamma_pr, r.upper_gamma_pr,
                        w["gamma_pr"], w["upper_gamma_pr"]))
            expect.append(oracles.extremes(list(r.mpds_masks)))
        if got != expect:
            out.append((g.edges(), got, expect))
    return out


def least_walking_down(bitmap: int, n: int, k: int) -> tuple[int, ...]:
    """``domination._least_of_size`` with the vertices walked from n - 1
    down to 0: the rule a differential test of the extremes must reject."""
    left = bitmap & domination._layers(n)[k]
    taken = 0
    for has_v in reversed(domination._members(n)):
        if taken == k:
            break
        if left & has_v:
            left &= has_v
            taken += 1
    return bits_of(left.bit_length() - 1)


class TestExtremes:
    @pytest.fixture(scope="class")
    def graphs(self, graphs_up_to_7):
        return graphs_up_to_7 + connected_gnp(12)

    def test_layers_are_the_sets_of_each_size(self):
        for n in range(9):
            layers = domination._layers(n)
            assert len(layers) == n + 1
            for k, layer in enumerate(layers):
                assert layer == sum(1 << m for m in range(1 << n)
                                    if m.bit_count() == k)

    def test_match_the_list_rule(self, graphs):
        # Every graph with n <= 7 and twelve connected G(n, p), n 16-18:
        # the values read off the size layers and the witnesses left by the
        # member walk equal the list rule's.
        assert extremes_mismatches(graphs) == []

    def test_minimal_pds_sizes_are_even(self, graphs):
        # A PDS is covered by the pairs of a perfect matching, so the
        # minimal-PDS bitmap meets no odd layer: the premise of scanning
        # only the even ones for γ_pr and Γ_pr.
        for g in graphs:
            if paired_domination_defined(g):
                mpds = minimal_paired_dominating_masks(g)
                assert mpds and not mpds & sum(domination._layers(g.n)[1::2]), g.edges()

    def test_high_to_low_walk_is_rejected(self, graphs, monkeypatch):
        monkeypatch.setattr(domination, "_least_of_size", least_walking_down)
        assert extremes_mismatches(graphs)


UNIONS = [disjoint_union([make_cycle(7)] * 3), disjoint_union([make_cycle(8)] * 3),
          disjoint_union([make_cycle(5)] * 4)]


def one_connected_gnp(n: int, p: float, seed: int):
    """A seeded connected G(n, p)."""
    rng = random.Random(seed)
    while True:
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2)
                            if rng.random() < p])
        if len(components(g)) == 1:
            return g


# Dense graphs: N[v] is large and V - N[v] small, the opposite of the sparse
# graphs above, so each subset product is short where the OR over N[v] of
# the old kernel was long.
DENSE = {
    "K16": build_graph(16, list(itertools.combinations(range(16), 2))),
    "K8,8": build_graph(16, [(i, 8 + j) for i in range(8) for j in range(8)]),
    "co-C18": build_graph(18, [(i, j) for i, j in itertools.combinations(range(18), 2)
                               if j - i not in (1, 17)]),
    "G(20,0.5)": one_connected_gnp(20, 0.5, 20),
}


def old_kernel_mismatches(graphs) -> list:
    """The graphs on which a minimal dominating, paired dominating or
    minimal paired dominating bitmap, or ``lacking_half_mds`` on the minimal
    PDSs and on all PDSs, differs from the old kernels of ``oracles``."""
    out = []
    for g in graphs:
        mds, old_mds = minimal_dominating_masks(g), oracles.minimal_dominating_bitmap(g)
        got, expect = [mds], [old_mds]
        if paired_domination_defined(g):
            pds, mpds = paired_dominating_masks(g), minimal_paired_dominating_masks(g)
            old_pds = oracles.paired_dominating_bitmap(g)
            old_mpds = oracles.minimal_paired_dominating_bitmap(g)
            got += [pds, mpds, domination.lacking_half_mds(g.n, mds, mpds),
                    domination.lacking_half_mds(g.n, mds, pds)]
            expect += [old_pds, old_mpds, oracles.lacking_half_mds_bitmap(g.n, old_mds, old_mpds),
                       oracles.lacking_half_mds_bitmap(g.n, old_mds, old_pds)]
        if got != expect:
            out.append(g.edges())
    return out


class TestOldKernels:
    # The kernels grow the matchable sets from vertex 0 and shift before
    # they mask; every bitmap must equal the old kernels' bit for bit.
    def test_every_graph_up_to_7(self, graphs_up_to_7):
        assert old_kernel_mismatches(graphs_up_to_7) == []

    def test_connected_gnp_16_to_18(self):
        assert old_kernel_mismatches(connected_gnp(12)) == []

    def test_unions_20_to_24(self):
        assert old_kernel_mismatches(UNIONS) == []

    @pytest.mark.parametrize("name", DENSE)
    def test_dense_graphs(self, name):
        assert old_kernel_mismatches([DENSE[name]]) == []


def sparse_pool_sample() -> list:
    """Every ninth graph of the p = 0.15 cells of the invariants-gnp pool."""
    with open(Path(__file__).resolve().parents[1] / "perfbench" / "refs"
              / "invariants-gnp.json") as fh:
        cells = json.load(fh)["cells"]
    sparse = [entry["g6"] for cell in cells if cell["p"] == 0.15
              for entry in cell["graphs"]]
    return [parse_graph6(text) for text in sparse[::9]]


class TestUpperGammaMilp:
    def test_matches_scan(self):
        # An oracle past n = 7 that shares nothing with the bitmaps: C24,
        # P24, K12,12, 12K2 and eight sparse graphs of the gnp pool.
        k12_12 = build_graph(24, [(i, 12 + j) for i in range(12) for j in range(12)])
        graphs = [make_cycle(24), path_graph(24), k12_12,
                  disjoint_union([make_k2()] * 12)] + sparse_pool_sample()
        assert [oracles.upper_gamma_milp(g) for g in graphs] == [
            invariants(g).upper_gamma for g in graphs]


def circulant(n: int, steps):
    return build_graph(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def generalized_petersen(n: int, k: int):
    """GP(n, k): an outer n-cycle, spokes i ~ n + i, inner edges at step k."""
    return build_graph(2 * n, [(i, (i + 1) % n) for i in range(n)]
                       + [(i, n + i) for i in range(n)]
                       + [(n + i, n + (i + k) % n) for i in range(n)])


class TestIndependence:
    def test_against_oracle(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            assert independence_number(g) == oracles.independence_number(g)

    def test_kernel_past_the_guard_against_milp(self):
        # The reduction and branching kernel itself, against an integer
        # program, on orders up to 60 past independence_number's guard and
        # on the sparse gnp sample: taking a vertex of degree two outright
        # is wrong on these.
        graphs = [circulant(30, [1]), circulant(40, [1, 6]), generalized_petersen(15, 2),
                  generalized_petersen(30, 7), circulant(60, [1, 4])] + sparse_pool_sample()
        assert [domination._alpha(g.adj, g.full_mask) for g in graphs] == [
            oracles.alpha_milp(g) for g in graphs]

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
