import math
import random
import re
import tracemalloc

import pytest

from oracles import are_isomorphic, labeled_graphs, path_graph, relabel, star_graph
from pairdom import families
from pairdom.generate import triangle_free
from pairdom.graph import (Graph, GraphError, bits_of, build_graph, components,
                           encode_graph6, girth)
from pairdom.families import (
    ClassFlags,
    classify,
    disjoint_union,
    every_block_edge_or_cycle,
    make_cycle,
    make_k2,
    make_subdivided_star,
    parse_family_spec,
    recognize_family,
)


class TestConstructions:
    def test_cycle_path_star(self):
        assert make_cycle(5).edge_count == 5
        assert path_graph(5).edge_count == 4
        assert make_k2().edges() == [(0, 1)]
        star = star_graph(4)
        assert star.n == 5 and star.adj[0].bit_count() == 4
        with pytest.raises(GraphError):
            make_cycle(2)

    def test_subdivided_star_shape(self):
        g = make_subdivided_star(3, 2)
        assert g.n == 1 + 2 * 3 + 2 * 2
        assert g.adj[0].bit_count() == 3 + 2 * 2
        # each leg contributes one leaf at distance 2
        leaves = [v for v in range(g.n) if g.adj[v].bit_count() == 1]
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
        assert components(g) == [0b00011, 0b11100]
        # build_graph refuses the order before it allocates
        with pytest.raises(GraphError, match=r"^order 64 outside 0\.\.62$"):
            disjoint_union([make_k2()] * 32)


def networkx_graph(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def networkx_blocks_edge_or_cycle(nx, h) -> bool:
    """Every biconnected block is one edge, or a cycle: as many edges as
    vertices."""
    return all(len(block) == 1 or len(block) == len({v for e in block for v in e})
               for block in nx.biconnected_component_edges(h))


class TestPredicates:
    def test_bipartite(self):
        assert classify(path_graph(5)).bipartite
        assert classify(make_cycle(6)).bipartite
        assert not classify(make_cycle(5)).bipartite
        assert classify(build_graph(3, [])).bipartite

    def test_blocks(self):
        nx = pytest.importorskip("networkx")
        # two triangles sharing a cut vertex: two blocks of three edges
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        h = networkx_graph(nx, g)
        assert sorted(len(b) for b in nx.biconnected_component_edges(h)) == [3, 3]
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

    def test_triangle_free_matches_classify(self, graphs_up_to_8):
        # the hunt's scope test and the c3free: generator read the
        # predicate; the checks read the flag
        for g in graphs_up_to_8:
            assert triangle_free(g) == classify(g).c3_free, encode_graph6(g)

    def test_classify_flags(self):
        f = classify(make_cycle(5))
        assert f.connected and f.unicyclic and f.cactus and f.c3_free
        assert not f.bipartite
        assert f.girth == 5
        f = classify(path_graph(4))
        assert f.bipartite and f.c3_free and not f.unicyclic
        assert f.girth == math.inf


class TestAgainstNetworkx:
    def test_flags_match_networkx(self, graphs_up_to_7):
        # every graph of order at most 7 up to isomorphism, and every
        # labeled graph of order at most 5
        nx = pytest.importorskip("networkx")
        labeled = [g for n in range(6) for g in labeled_graphs(n)]
        disconnected = 0
        for g in graphs_up_to_7 + labeled:
            h = networkx_graph(nx, g)
            connected = g.n > 0 and nx.is_connected(h)
            blocks = networkx_blocks_edge_or_cycle(nx, h)
            assert classify(g) == ClassFlags(
                connected=connected,
                bipartite=nx.is_bipartite(h),
                unicyclic=connected and h.number_of_edges() == g.n,
                cactus=connected and blocks,
                c3_free=nx.girth(h) != 3,
                girth=nx.girth(h),
            ), encode_graph6(g)
            assert every_block_edge_or_cycle(g) == blocks, encode_graph6(g)
            assert triangle_free(g) == (nx.girth(h) != 3), encode_graph6(g)
            disconnected += not connected
        # connected: 1, 1, 2, 6, 21, 112, 853 for n = 1..7 (OEIS A001349),
        # and 1, 1, 4, 38, 728 labeled for n = 1..5 (A001187); K0 is not
        assert disconnected == (1253 - 996) + (1100 - 772)


class TestRecognition:
    def test_precedence(self):
        assert recognize_family(make_cycle(3)) == "C3"
        assert recognize_family(make_cycle(5)) == "C5"
        assert recognize_family(make_k2()) == "mK2:1"
        assert recognize_family(make_cycle(4)) is None
        # P3 is the t=1, d=0 subdivided star (and has Gamma_pr = n - 1)
        assert recognize_family(path_graph(3)) == "star:t=1,d=0"
        assert recognize_family(path_graph(4)) is None

    def test_mk2_and_unions(self):
        three = disjoint_union([make_k2()] * 3)
        assert recognize_family(three) == "mK2:3"
        mix = disjoint_union([make_k2(), make_cycle(5), make_k2()])
        assert recognize_family(mix) == "union:K2*2+C5*1"
        assert recognize_family(disjoint_union([make_cycle(5)] * 2)) == "union:K2*0+C5*2"

    def test_star_round_trip(self):
        for t in range(0, 5):
            for d in range(0, 4):
                if t + d == 0 or (t, d) == (0, 1):
                    continue  # empty, or C3 by precedence
                g = make_subdivided_star(t, d)
                assert recognize_family(g) == f"star:t={t},d={d}", (t, d)

    def test_butterfly_is_a_star_with_no_legs(self):
        assert recognize_family(make_subdivided_star(0, 2)) == "star:t=0,d=2"

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

    def test_matches_networkx_isomorphism(self, graphs_up_to_8):
        # Every graph with n <= 8 gets the label of the first family member
        # of its order and size, in precedence order, that networkx finds
        # isomorphic to it, and None when there is none.
        nx = pytest.importorskip("networkx")
        members = [("C3", make_cycle(3)), ("C5", make_cycle(5))]
        members += [(f"mK2:{m}", disjoint_union([make_k2()] * m)) for m in range(1, 5)]
        members += [(f"star:t={t},d={d}", make_subdivided_star(t, d))
                    for t in range(4) for d in range(4) if 1 <= t + d <= 3]
        members += [(f"union:K2*{m}+C5*1",
                     disjoint_union([make_k2()] * m + [make_cycle(5)])) for m in (0, 1)]
        by_shape = {}
        for label, h in members:
            by_shape.setdefault((h.n, h.edge_count), []).append(
                (label, networkx_graph(nx, h)))
        labeled = 0
        for g in graphs_up_to_8:
            h = networkx_graph(nx, g)
            expect = next((label for label, f in by_shape.get((g.n, g.edge_count), ())
                           if nx.is_isomorphic(h, f)), None)
            assert recognize_family(g) == expect, encode_graph6(g)
            labeled += expect is not None
        # each member is met once; star (0, 1) is C3 and the union (0, 1) is C5
        assert labeled == len(members) - 2 == 15

    def test_near_misses(self):
        # star with an extra pendant on a leg midpoint is not in the family
        g = make_subdivided_star(2, 1)
        extra = build_graph(
            g.n + 1, g.edges() + [(1, g.n)]
        )
        assert recognize_family(extra) is None
        assert recognize_family(make_cycle(7)) is None
        assert recognize_family(disjoint_union([make_k2(), make_cycle(3)])) is None


def full_centre_scan(g: Graph) -> str | None:
    """``_recognize_subdivided_star`` without its parity and edge bounds:
    every centre is tried."""
    for c in range(g.n):
        rest = g.full_mask ^ (1 << c)
        if all((g.adj[v] & rest).bit_count() == 1 for v in bits_of(rest)):
            delta = g.adj[c].bit_count() - g.n // 2
            return f"star:t={g.n // 2 - delta},d={delta}"
    return None


class TestEdgeBounds:
    """Each edge-count exit against the walk it skips."""

    def test_cactus_bound_matches_the_walk(self, graphs_up_to_8, monkeypatch):
        # With edge_count read as 0, the bound fires on no graph with
        # 0 < n <= 8, and the walk decides. K0 has no block at all, so the
        # bound asks for n > 0.
        assert every_block_edge_or_cycle(build_graph(0, []))
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "edge_count", 0)
            walked = [every_block_edge_or_cycle(g) for g in graphs_up_to_8]
        assert [every_block_edge_or_cycle(g) for g in graphs_up_to_8] == walked
        assert sum(2 * g.edge_count > 3 * (g.n - 1) for g in graphs_up_to_8[1:]) > 5000

    def test_dense_graphs_have_a_block_neither_edge_nor_cycle(self, graphs_up_to_8):
        # The premise of the bound, on networkx's blocks.
        nx = pytest.importorskip("networkx")
        for g in graphs_up_to_8:
            if g.n and 2 * g.edge_count > 3 * (g.n - 1):
                h = networkx_graph(nx, g)
                assert not networkx_blocks_edge_or_cycle(nx, h), encode_graph6(g)

    def test_star_bounds_match_the_full_centre_scan(self, graphs_up_to_7, c3free_up_to_9,
                                                    monkeypatch):
        # Every odd-order graph with n <= 7, every triangle-free one with
        # n <= 9 and every star with n <= 21, relabelled.
        rng = random.Random(5)
        stars = []
        for t in range(11):
            for d in range(11 - t):
                if t + d:
                    perm = list(range(1 + 2 * (t + d)))
                    rng.shuffle(perm)
                    stars.append(relabel(make_subdivided_star(t, d), perm))
        graphs = [g for g in graphs_up_to_7 if g.n % 2] + c3free_up_to_9 + stars
        bounded = [recognize_family(g) for g in graphs]
        monkeypatch.setattr(families, "_recognize_subdivided_star", full_centre_scan)
        assert [recognize_family(g) for g in graphs] == bounded
        assert None not in bounded[-len(stars):]
        assert sum(g.n % 2 and not g.n - 1 <= g.edge_count <= 3 * (g.n - 1) // 2
                   for g in graphs) > 500


class TestSpecParsing:
    def test_round_trip(self):
        for spec in ("K2", "C3", "C5", "mK2:3", "star:t=3,d=1", "star:t=0,d=2"):
            g = parse_family_spec(spec)
            assert g.n > 0
            assert recognize_family(g) == ("mK2:1" if spec == "K2" else spec)

    def test_every_recognized_name_parses_back(self, graphs_up_to_8):
        # The name recognition gives builds the graph it was given, up to
        # relabelling, and is given again for what it builds.
        named = 0
        for g in graphs_up_to_8:
            name = recognize_family(g)
            if name is None:
                continue
            built = parse_family_spec(name)
            assert are_isomorphic(built, g), (name, encode_graph6(g))
            assert recognize_family(built) == name
            named += 1
        assert named == 15

    def test_union_syntax(self):
        g = parse_family_spec("union:K2*2+C5*1")
        assert g.n == 9
        assert recognize_family(g) == "union:K2*2+C5*1"

    def test_union_matches_disjoint_union(self):
        built = disjoint_union([make_k2(), make_k2(), make_cycle(5)])
        assert built.adj == parse_family_spec("union:K2*2+C5*1").adj

    def test_order_limit(self):
        assert parse_family_spec("mK2:31").n == 62
        assert parse_family_spec("union:C5*12+K2").n == 62
        assert parse_family_spec("star:t=10,d=20").n == 61

    # The order a spec asks for is checked before anything of that size is
    # allocated, so a huge one fails at once and in constant memory.
    @pytest.mark.parametrize("spec, message", [
        ("mK2:32", "union exceeds 62 vertices"),
        ("union:C5*12+K2*2", "union exceeds 62 vertices"),
        ("star:t=11,d=20", "order 63 outside 0..62"),
        ("star:t=200000", "order 400001 outside 0..62"),
        ("mK2:1000000", "union exceeds 62 vertices"),
        ("union:K2*1000000+C5*1", "union exceeds 62 vertices"),
    ])
    def test_oversized_spec_fails_before_it_is_built(self, spec, message):
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
                parse_family_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    # int() refuses a run of more than 4,300 digits with its own error.
    @pytest.mark.parametrize("spec, message", [
        ("mK2:{}", "bad multiplicity"),
        ("star:t=3,d={}", "bad star parameters"),
        ("union:K2*1+C5*{}", "bad multiplicity"),
    ])
    def test_5000_digit_number_is_a_bad_field(self, spec, message):
        with pytest.raises(GraphError, match=message):
            parse_family_spec(spec.format("9" * 5000))

    def test_star_d_defaults_to_zero(self):
        assert parse_family_spec("star:t=3").adj == make_subdivided_star(3, 0).adj

    def test_rejects_bad(self):
        with pytest.raises(GraphError):
            parse_family_spec("star:d=1")  # t is required
        with pytest.raises(GraphError):
            parse_family_spec("star:t=1,x=2")
        # mK2:m is union:K2*m once m is a number, so never a longer union
        for spec in ("mK2:x", "mK2:1_0", "mK2:+2", "mK2: 2", "mK2:2+C5"):
            with pytest.raises(GraphError, match="bad multiplicity"):
                parse_family_spec(spec)
        with pytest.raises(GraphError, match="^no component in 'mK2:0'$"):
            parse_family_spec("mK2:0")
        for spec in ("star:t=1_0", "star:t=+2", "star:t=2,d= 1",
                     "star:t=1,t=2", "star:d=1,t=1,d=2"):  # a key given twice
            with pytest.raises(GraphError, match="bad star parameters"):
                parse_family_spec(spec)
        for spec in ("union:K2*x", "union:K2*", "union:K2*2+C5*-1"):
            with pytest.raises(GraphError, match="bad multiplicity"):
                parse_family_spec(spec)
        with pytest.raises(GraphError):
            parse_family_spec("union:P4*2")
        with pytest.raises(GraphError):
            parse_family_spec("nonsense")
