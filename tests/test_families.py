import math
import random

import pytest

from oracles import relabel
from pairdom.graph import GraphError, build_graph, girth, is_connected
from pairdom.families import (
    FamilyLabel,
    biconnected_blocks,
    classify,
    disjoint_union,
    every_block_edge_or_cycle,
    is_bipartite,
    make_cycle,
    make_k2,
    make_path,
    make_star,
    make_subdivided_star,
    make_union,
    parse_family_spec,
    recognize_family,
)


class TestConstructions:
    def test_cycle_path_star(self):
        assert make_cycle(5).edge_count == 5
        assert make_path(5).edge_count == 4
        assert make_k2().edges() == [(0, 1)]
        star = make_star(4)
        assert star.n == 5 and star.degree(0) == 4
        with pytest.raises(GraphError):
            make_cycle(2)

    def test_subdivided_star_shape(self):
        g = make_subdivided_star(3, 2)
        assert g.n == 1 + 2 * 3 + 2 * 2
        assert g.degree(0) == 3 + 2 * 2
        # each leg contributes one leaf at distance 2
        leaves = [v for v in range(g.n) if g.degree(v) == 1]
        assert len(leaves) == 3
        assert girth(g) == 3

    def test_subdivided_star_degenerate(self):
        # t = 0 with triangles gives the friendship graphs; both zero is empty.
        butterfly = make_subdivided_star(0, 2)
        assert butterfly.n == 5 and butterfly.edge_count == 6
        assert make_subdivided_star(0, 1).edges() == make_cycle(3).edges()
        with pytest.raises(GraphError):
            make_subdivided_star(0, 0)
        with pytest.raises(GraphError):
            make_subdivided_star(-1, 0)

    def test_disjoint_union(self):
        g = disjoint_union([make_k2(), make_cycle(3)])
        assert g.n == 5 and g.edge_count == 4
        assert not is_connected(g)


class TestPredicates:
    def test_bipartite(self):
        assert is_bipartite(make_path(5))
        assert is_bipartite(make_cycle(6))
        assert not is_bipartite(make_cycle(5))
        assert is_bipartite(build_graph(3, []))

    def test_blocks(self):
        # two triangles sharing a cut vertex: two blocks of three edges
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        blocks = biconnected_blocks(g)
        assert sorted(len(b) for b in blocks) == [3, 3]
        assert every_block_edge_or_cycle(g)

    def test_cactus(self):
        assert classify(make_cycle(5)).cactus
        assert classify(make_subdivided_star(2, 3)).cactus
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        assert not classify(k4).cactus
        # diamond: two triangles sharing an edge
        diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert not classify(diamond).cactus
        # cactus must be connected; componentwise version need not be
        two = disjoint_union([make_cycle(3), make_cycle(4)])
        assert not classify(two).cactus
        assert every_block_edge_or_cycle(two)

    def test_classify_flags(self):
        f = classify(make_cycle(5))
        assert f.connected and f.unicyclic and f.cactus and f.c3_free
        assert not f.bipartite
        assert f.girth == 5
        f = classify(make_path(4))
        assert f.bipartite and f.c3_free and not f.unicyclic
        assert f.girth == math.inf


class TestRecognition:
    def test_precedence(self):
        assert recognize_family(make_cycle(3)) == FamilyLabel("C3")
        assert recognize_family(make_cycle(5)) == FamilyLabel("C5")
        assert recognize_family(make_k2()).spec_string() == "mK2:1"
        assert recognize_family(make_cycle(4)) is None
        # P3 is the t=1, d=0 subdivided star (and has Gamma_pr = n - 1)
        assert recognize_family(make_path(3)) == FamilyLabel("star", (1, 0))
        assert recognize_family(make_path(4)) is None

    def test_mk2_and_unions(self):
        three = disjoint_union([make_k2()] * 3)
        assert recognize_family(three).spec_string() == "mK2:3"
        mix = disjoint_union([make_k2(), make_cycle(5), make_k2()])
        lab = recognize_family(mix)
        assert lab.kind == "mK2+mC5" and lab.params == (2, 1)
        assert recognize_family(disjoint_union([make_cycle(5)] * 2)).params == (0, 2)

    def test_star_round_trip(self):
        for t in range(0, 5):
            for d in range(0, 4):
                if t + d == 0 or (t, d) == (0, 1):
                    continue  # empty, or C3 by precedence
                g = make_subdivided_star(t, d)
                lab = recognize_family(g)
                assert lab == FamilyLabel("star", (t, d)), (t, d)

    def test_butterfly_is_a_star_with_no_legs(self):
        assert recognize_family(make_subdivided_star(0, 2)) == FamilyLabel(
            "star", (0, 2)
        )

    def test_invariant_under_relabeling(self):
        rng = random.Random(7)
        samples = [
            make_cycle(5),
            disjoint_union([make_k2(), make_k2()]),
            make_subdivided_star(2, 1),
            make_subdivided_star(0, 3),
            disjoint_union([make_cycle(5), make_k2()]),
        ]
        for g in samples:
            expect = recognize_family(g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert recognize_family(relabel(g, perm)) == expect

    def test_near_misses(self):
        # star with an extra pendant on a leg midpoint is not in the family
        g = make_subdivided_star(2, 1)
        extra = build_graph(
            g.n + 1, g.edges() + [(1, g.n)]
        )
        assert recognize_family(extra) is None
        assert recognize_family(make_cycle(7)) is None
        assert recognize_family(disjoint_union([make_k2(), make_cycle(3)])) is None


class TestSpecParsing:
    def test_round_trip(self):
        for spec in ("K2", "C3", "C5", "mK2:3", "star:t=3,d=1", "star:t=0,d=2"):
            g = parse_family_spec(spec)
            assert g.n > 0

    def test_union_syntax(self):
        g = parse_family_spec("union:K2*2+C5*1")
        assert g.n == 9
        lab = recognize_family(g)
        assert lab.kind == "mK2+mC5" and lab.params == (2, 1)

    def test_make_union_matches(self):
        built = make_union([(make_k2(), 2), (make_cycle(5), 1)])
        assert built.adj == parse_family_spec("union:K2*2+C5*1").adj

    def test_star_d_defaults_to_zero(self):
        assert parse_family_spec("star:t=3").adj == make_subdivided_star(3, 0).adj

    def test_rejects_bad(self):
        with pytest.raises(GraphError):
            parse_family_spec("star:d=1")  # t is required
        with pytest.raises(GraphError):
            parse_family_spec("star:t=1,x=2")
        for spec in ("mK2:x", "mK2:1_0", "mK2:+2", "mK2: 2"):
            with pytest.raises(GraphError, match="bad multiplicity"):
                parse_family_spec(spec)
        for spec in ("star:t=1_0", "star:t=+2", "star:t=2,d= 1"):
            with pytest.raises(GraphError, match="bad star parameters"):
                parse_family_spec(spec)
        for spec in ("union:K2*x", "union:K2*", "union:K2*2+C5*-1"):
            with pytest.raises(GraphError, match="bad multiplicity"):
                parse_family_spec(spec)
        with pytest.raises(GraphError):
            parse_family_spec("union:P4*2")
        with pytest.raises(GraphError):
            parse_family_spec("nonsense")
