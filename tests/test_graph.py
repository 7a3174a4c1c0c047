import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import edge_list_text, path_graph
from pairdom.graph import (
    Graph,
    GraphError,
    bits_of,
    build_graph,
    components,
    encode_graph6,
    girth,
    parse_edge_list,
    parse_graph6,
)
from pairdom.families import make_cycle


def edge_sets(max_n=7):
    """Hypothesis strategy for (n, edges) pairs."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
                .filter(lambda e: e[0] != e[1]),
                max_size=12,
            )
            if n >= 2
            else st.just([]),
        )
    )


class TestBitsOf:
    @staticmethod
    def by_definition(mask):
        return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)

    def test_matches_definition(self):
        rng = random.Random(7)
        masks = [*range(1 << 12), 1 << 61, (1 << 62) - 1,
                 *(rng.getrandbits(rng.randint(1, 62)) for _ in range(10_000))]
        for mask in masks:
            got = bits_of(mask)
            assert type(got) is tuple and got == self.by_definition(mask), mask


class TestBuild:
    def test_basic(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.edge_count == 3
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.adj[1].bit_count() == 2

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_loops_and_bad_vertices(self):
        # Graph itself refuses the loop
        with pytest.raises(GraphError, match="^loop at vertex 1$"):
            build_graph(3, [(1, 1)])
        with pytest.raises(GraphError):
            build_graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            build_graph(-1, [])
        with pytest.raises(GraphError):
            build_graph(63, [])

    def test_edges_sorted(self):
        g = build_graph(4, [(3, 2), (1, 0)])
        assert g.edges() == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("n, adj, message", [
        (3, (0b010, 0b000, 0b000), "asymmetric adjacency at (0,1)"),
        (3, (0b100, 0b100, 0b001), "asymmetric adjacency at (1,2)"),
        (2, (0b10, 0b100), "adjacency row mentions a vertex >= n"),
        (2, (0b10, 0b10), "loop at vertex 1"),
        (2, (0b1,), "adjacency length does not match order"),
        (63, (0,) * 63, "order 63 outside 0..62"),
    ])
    def test_rejects_malformed_adjacency(self, n, adj, message):
        with pytest.raises(GraphError) as excinfo:
            Graph(n, adj)
        assert str(excinfo.value) == message


class TestGirth:
    def test_known(self):
        assert girth(path_graph(4)) == math.inf
        assert girth(make_cycle(3)) == 3
        assert girth(make_cycle(7)) == 7
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert girth(g) == 3

    def test_against_oracle(self, graphs_up_to_7, girth6_up_to_9):
        for g in graphs_up_to_7 + girth6_up_to_9:
            expect = oracles.girth(g)
            got = girth(g)
            assert got == (math.inf if expect is None else expect), g.edges()


class TestComponents:
    def test_counts(self):
        g = build_graph(5, [(0, 1), (2, 3)])
        assert components(g) == [0b00011, 0b01100, 0b10000]
        assert len(components(make_cycle(5))) == 1
        assert components(build_graph(0, [])) == []

    def test_masks_are_the_components(self, graphs_up_to_7):
        # The masks partition V in increasing order of least vertex; each is
        # connected (growing from its least vertex by neighbours inside it
        # reaches all of it), and no edge leaves it.
        for g in graphs_up_to_7:
            masks = components(g)
            assert all(masks) and sum(masks) == g.full_mask
            union = 0
            for mask in masks:
                assert union & mask == 0
                union |= mask
            lows = [m & -m for m in masks]
            assert lows == sorted(lows)
            for mask in masks:
                reached, grown = 0, mask & -mask
                while grown != reached:
                    reached = grown
                    for v in range(g.n):
                        if (reached >> v) & 1:
                            grown |= g.adj[v] & mask
                assert reached == mask, (g.edges(), mask)
                assert all(g.adj[v] & ~mask == 0 for v in range(g.n)
                           if (mask >> v) & 1), (g.edges(), mask)


class TestGraph6:
    def test_known_values(self):
        # Hand-derived: C5 upper-triangle bits 1 01 001 1001 -> 101001 100100.
        assert encode_graph6(make_cycle(5)) == "Dhc"
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        assert encode_graph6(k4) == "C~"
        assert parse_graph6("Dhc").edges() == make_cycle(5).edges()

    def test_round_trip_all_small_labeled(self):
        for n in range(7):
            for g in oracles.labeled_graphs(n):
                line = encode_graph6(g)
                assert line == oracles.encode_graph6(g)
                back = parse_graph6(line)
                assert back.n == g.n and back.adj == g.adj

    def test_rejects_garbage(self):
        with pytest.raises(GraphError):
            parse_graph6("")
        with pytest.raises(GraphError):
            parse_graph6("D")  # truncated body
        with pytest.raises(GraphError):
            parse_graph6("Dq\x01")  # byte out of range
        with pytest.raises(GraphError):
            parse_graph6("~??")  # long form unsupported
        with pytest.raises(GraphError, match="^nonzero graph6 padding bits$"):
            parse_graph6("A@")  # K1 + K1 with its one padding bit set

    def test_networkx_header(self, graphs_up_to_6):
        # networkx writes ">>graph6<<" before each graph, as its reader
        # accepts.
        nx = pytest.importorskip("networkx")
        for g in graphs_up_to_6:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            line = nx.to_graph6_bytes(h).decode()
            assert line.startswith(">>graph6<<")
            assert parse_graph6(line).adj == g.adj

    @settings(max_examples=60, deadline=None)
    @given(edge_sets())
    def test_round_trip_random(self, ne):
        n, edges = ne
        g = build_graph(n, edges)
        assert parse_graph6(encode_graph6(g)).adj == g.adj


class TestEdgeList:
    def test_round_trip(self):
        g = make_cycle(5)
        text = edge_list_text(g)
        first = text.splitlines()[0].split()
        assert first == ["5", "5"]
        assert parse_edge_list(text).adj == g.adj

    def test_parse_rejects_bad(self):
        for text in ("", "\n  \n"):
            with pytest.raises(GraphError, match="^empty edge-list input$"):
                parse_edge_list(text)
        with pytest.raises(GraphError):
            parse_edge_list("2 1\n0 0\n")
        with pytest.raises(GraphError):
            parse_edge_list("2 2\n0 1\n")  # wrong edge count
        with pytest.raises(GraphError, match="bad edge line '1 x'"):
            parse_edge_list("2 1\n1 x\n")

    # past 4,300 digits int() would raise its own error
    def test_5000_digit_number_is_bad(self):
        big = "9" * 5000
        with pytest.raises(GraphError, match="bad edge-list header"):
            parse_edge_list(f"{big} 1\n0 1\n")
        with pytest.raises(GraphError, match="bad edge line"):
            parse_edge_list(f"4 1\n0 {big}\n")

    # a non-ASCII digit (Arabic-Indic three), a sign, an underscore
    @pytest.mark.parametrize("number", ["\u0663", "+3", "1_0"])
    def test_numbers_are_ascii_digits(self, number):
        with pytest.raises(GraphError, match="bad edge-list header"):
            parse_edge_list(f"{number} 1\n0 1\n")
        with pytest.raises(GraphError, match="bad edge-list header"):
            parse_edge_list(f"4 {number}\n0 1\n")
        with pytest.raises(GraphError, match="bad edge line"):
            parse_edge_list(f"4 1\n0 {number}\n")
