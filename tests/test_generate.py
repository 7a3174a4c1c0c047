import hashlib
import itertools
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import path_graph, relabel
from pairdom import generate
from pairdom.graph import Graph, bits_of, build_graph, encode_graph6, girth
from pairdom.families import make_cycle, disjoint_union
from pairdom.generate import (
    _augmenting_masks,
    _automorphisms,
    _cells,
    _isomorphism,
    _refine,
    at_most_one_cycle_per_component,
    girth_at_least,
    nonisomorphic_graphs,
    triangle_free,
)

# Published counts of graphs up to isomorphism on n = 0..8 vertices.
CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]

# sha256 of the graph6 stream (one line per graph) of each generated list.
# The generator keeps the first candidate of each isomorphism class in
# (parent, mask) order, so these pin its labeled output, not just counts.
PINNED_STREAMS = {
    "graphs_up_to_7":
        "434bc757ac10473178bb7ca3f96f58aac2d25897662c3b47ad070505a6808c87",
    "graphs_up_to_8":
        "beef61fbf5d902f8db83f02fbca62c200d5769b8d73db30681e189057370000c",
    "c3free_up_to_9":
        "a1aeea0c08e2367ae9936700ba55606e5720bd9258081e1f65b4ac007424cd34",
    "girth6_up_to_9":
        "3e3151bff3d80b4b4e1d9f98121f64d9b6c426c440cce53823340a9d283d7e2a",
    "one_cycle_per_component_up_to_8":
        "b402d8395de891668ab2b64ec9a8e85dd146cde1244df4c85007e98bec57cbff",
}


# Published counts of triangle-free graphs up to isomorphism on n = 0..9
# vertices (OEIS A006785).
C3FREE_COUNTS = [1, 1, 2, 3, 7, 14, 38, 107, 410, 1897]


def _graph6_stream(graphs) -> list[str]:
    return [encode_graph6(g) for g in graphs]


def are_isomorphic(g, h) -> bool:
    """The generator's verdict, refinement keys and then backtracking,
    checked against the oracle's; a mapping it finds must carry g onto h."""
    key1, colors1 = _refine(g.adj)
    key2, colors2 = _refine(h.adj)
    found = None
    if key1 == key2:
        found = _isomorphism(g.adj, colors1, h.adj, _cells(colors2))
        assert found is None or relabel(g, found).adj == h.adj
    assert (found is not None) == oracles.are_isomorphic(g, h)
    return found is not None


@pytest.fixture(scope="module")
def c3free_graph_path():
    """The triangle-free graphs with n <= 9 under a plain wrapper, which has
    no ``masks`` form and so sees each candidate as a Graph, and its number
    of calls."""
    calls = 0

    def counting(g):
        nonlocal calls
        calls += 1
        return triangle_free(g)

    graphs = nonisomorphic_graphs(9, predicate=counting)
    return graphs, calls


class TestLabeledEnumeration:
    def test_labeled_counts(self):
        for n in range(5):
            assert len(list(oracles.labeled_graphs(n))) == 2 ** (n * (n - 1) // 2)

    def test_dedup_counts(self):
        for n in range(6):
            assert len(oracles.nonisomorphic_by_permutation(n)) == CLASS_COUNTS[n]


class TestIsomorphism:
    def test_positive(self):
        c5 = make_cycle(5)
        assert are_isomorphic(c5, relabel(c5, [2, 0, 3, 1, 4]))
        assert are_isomorphic(build_graph(0, []), build_graph(0, []))

    def test_negative(self):
        assert not are_isomorphic(make_cycle(6), disjoint_union([make_cycle(3)] * 2))
        assert not are_isomorphic(path_graph(4), make_cycle(4))
        # same degree sequence, different graphs
        a = disjoint_union([make_cycle(3), make_cycle(4)])
        b = make_cycle(7)
        assert not are_isomorphic(a, b)

    def test_random_relabelings(self):
        rng = random.Random(11)
        for g in nonisomorphic_graphs(5, min_n=5):
            perm = list(range(5))
            rng.shuffle(perm)
            assert are_isomorphic(g, relabel(g, perm))

    def test_exhaustive_pairs_n4(self):
        graphs = nonisomorphic_graphs(4, min_n=4)
        for a, b in itertools.combinations(graphs, 2):
            assert not are_isomorphic(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_relabel_finds_only_its_representative(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        reps = nonisomorphic_graphs(n, min_n=n)
        g = data.draw(st.sampled_from(reps))
        h = relabel(g, data.draw(st.permutations(range(n))))
        assert are_isomorphic(g, h)
        assert [r for r in reps if are_isomorphic(h, r)] == [g]


class TestAugmentationGenerator:
    def test_counts_match_published(self):
        for n in range(7):
            assert len(nonisomorphic_graphs(n, min_n=n)) == CLASS_COUNTS[n]

    def test_matches_labeled_dedup(self):
        for n in range(6):
            ours = nonisomorphic_graphs(n, min_n=n)
            ref = oracles.nonisomorphic_by_permutation(n)
            assert len(ours) == len(ref)
            for g in ours:
                assert any(are_isomorphic(g, h) for h in ref)

    def test_matches_networkx_atlas(self, graphs_up_to_7):
        nx = pytest.importorskip("networkx")

        def profile(n, degrees):
            return n, sum(degrees) // 2, tuple(sorted(degrees))

        def order_size(groups):
            counts = Counter()
            for (n, m, _), group in groups.items():
                counts[n, m] += len(group)
            return counts

        atlas = defaultdict(list)
        for a in nx.graph_atlas_g():
            atlas[profile(a.number_of_nodes(), [d for _, d in a.degree()])].append(a)
        ours = defaultdict(list)
        for g in graphs_up_to_7:
            ours[profile(g.n, [g.degree(v) for v in range(g.n)])].append(g)
        assert order_size(ours) == order_size(atlas)
        for key, group in ours.items():
            unmatched = list(atlas[key])
            for g in group:
                h = nx.Graph()
                h.add_nodes_from(range(g.n))
                h.add_edges_from(g.edges())
                match = next(a for a in unmatched if nx.is_isomorphic(h, a))
                unmatched.remove(match)

    def test_cumulative(self):
        assert len(nonisomorphic_graphs(4)) == sum(CLASS_COUNTS[:5])

    def test_predicate_streams(self):
        tf = nonisomorphic_graphs(6, predicate=triangle_free, min_n=6)
        assert all(girth(g) != 3 for g in tf)
        # triangle-free counts on n = 6: known value 38
        assert len(tf) == 38
        g6 = nonisomorphic_graphs(6, predicate=girth_at_least(6), min_n=6)
        assert all(girth(g) >= 6 for g in g6)
        uni = nonisomorphic_graphs(6, predicate=at_most_one_cycle_per_component)
        for g in uni:
            # at most one cycle per component: m <= n within each component
            assert g.edge_count <= g.n

    def test_predicate_is_consistent_with_filtering(self):
        expect = [g for g in nonisomorphic_graphs(5, min_n=5) if triangle_free(g)]
        got = nonisomorphic_graphs(5, predicate=triangle_free, min_n=5)
        assert len(expect) == len(got)

    def test_predicate_sees_one_candidate_per_orbit(self, c3free_graph_path):
        # Triangle-free n <= 9: 121,683 candidates without the orbit rule.
        graphs, calls = c3free_graph_path
        assert len(graphs) == 2480
        assert calls == 57395

    def test_mask_path_builds_only_kept_graphs(self, monkeypatch):
        built = 0

        class CountingGraph(Graph):
            def __post_init__(self):
                nonlocal built
                built += 1
                super().__post_init__()

        monkeypatch.setattr(generate, "Graph", CountingGraph)
        graphs = nonisomorphic_graphs(9, predicate=triangle_free)
        assert len(graphs) == built == 2480

    def test_mask_path_matches_graph_path(self, c3free_up_to_9, c3free_graph_path):
        assert _graph6_stream(c3free_up_to_9) == _graph6_stream(c3free_graph_path[0])
        girth5 = girth_at_least(5)
        assert _graph6_stream(nonisomorphic_graphs(9, girth5)) == _graph6_stream(
            nonisomorphic_graphs(9, lambda g: girth5(g)))

    def test_c3free_counts_match_published(self, c3free_up_to_9):
        counts = Counter(g.n for g in c3free_up_to_9)
        assert [counts[n] for n in range(10)] == C3FREE_COUNTS

    def test_girth_counts_match_filtered_universe(self, graphs_up_to_8,
                                                  girth6_up_to_9):
        girths = [oracles.girth(g) for g in graphs_up_to_8]
        streams = {5: nonisomorphic_graphs(8, girth_at_least(5)),
                   6: [g for g in girth6_up_to_9 if g.n <= 8]}
        for k, stream in streams.items():
            expect = Counter(g.n for g, gi in zip(graphs_up_to_8, girths)
                             if gi is None or gi >= k)
            assert Counter(g.n for g in stream) == expect

    @pytest.mark.parametrize("stream", sorted(PINNED_STREAMS))
    def test_pinned_graph6_stream(self, request, stream):
        graphs = request.getfixturevalue(stream)
        text = "".join(encode_graph6(g) + "\n" for g in graphs)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_STREAMS[stream]


def _image(mask: int, perm) -> int:
    """The vertex set mask under the permutation perm."""
    return sum(1 << perm[v] for v in bits_of(mask))


class TestParentMaskRule:
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_masks_match_oracle_girth(self, k):
        # Every parent with n <= 7 of the girth >= k stream: the masks it is
        # offered are those whose child, by the oracle, has girth >= k, and
        # every automorphism of the parent maps that list onto itself.
        predicate = triangle_free if k == 4 else girth_at_least(k)
        for parent in nonisomorphic_graphs(7, predicate):
            new = 1 << parent.n
            expect = []
            for mask in range(new):
                adj = [row | new if (mask >> u) & 1 else row
                       for u, row in enumerate(parent.adj)]
                gi = oracles.girth(Graph(parent.n + 1, (*adj, mask)))
                if gi is None or gi >= k:
                    expect.append(mask)
            masks = predicate.masks(parent.adj)
            assert masks == expect, parent.edges()
            for perm in oracles.automorphisms(parent):
                assert sorted(_image(mask, perm) for mask in masks) == masks


def _parent_state(g):
    """The adjacency rows, colours and colour cells the generator keeps for
    a representative that becomes a parent."""
    _, colors = _refine(g.adj)
    return list(g.adj), colors, _cells(colors)


class TestOrbitPruning:
    def test_group_order_matches_oracle(self, graphs_up_to_6):
        # The generators are automorphisms, and the group they generate is
        # as large as Aut(G), so it is Aut(G).
        for g in graphs_up_to_6:
            group = set(oracles.automorphisms(g))
            generators = _automorphisms(*_parent_state(g))
            assert all(tuple(p) in group for p in generators)
            closure = {tuple(range(g.n))}
            stack = list(closure)
            while stack:
                p = stack.pop()
                for q in generators:
                    qp = tuple(q[v] for v in p)
                    if qp not in closure:
                        closure.add(qp)
                        stack.append(qp)
            assert len(closure) == len(group)

    def test_kept_masks_are_oracle_orbit_minima(self, graphs_up_to_6):
        # over every subset, and over the independent sets alone
        for g in graphs_up_to_6:
            group = oracles.automorphisms(g)
            subsets = range(1 << g.n)
            independent = [mask for mask in subsets
                           if not any(g.adj[v] & mask for v in bits_of(mask))]
            for family in (subsets, independent):
                minima = [mask for mask in family
                          if all(_image(mask, p) >= mask for p in group)]
                assert _augmenting_masks(*_parent_state(g), family) == minima


def _degrees(g, gone: int = 0) -> tuple[int, ...]:
    """The sorted degree sequence of g less the vertices in the mask gone."""
    return tuple(sorted((row & ~gone).bit_count()
                        for u, row in enumerate(g.adj) if not (gone >> u) & 1))


class TestDeletionRule:
    @pytest.mark.parametrize("n, predicate", [(7, None), (8, triangle_free)])
    def test_skips_only_candidates_an_earlier_parent_yields(
            self, monkeypatch, n, predicate):
        # Every candidate (parent, orbit-least mask) up to order n, and the
        # rule's verdict from sorted degree sequences: skipped iff deleting
        # some old vertex leaves a sequence whose last parent is before its
        # own. The generator refines exactly the others, in order, and the
        # one representative of a skipped candidate's class has an earlier
        # parent, by the oracle.
        refined = []
        refine = generate._refine
        with monkeypatch.context() as patch:
            patch.setattr(generate, "_refine",
                          lambda adj: refined.append(tuple(adj)) or refine(adj))
            stream = list(generate.positioned_stream(n, predicate))
        levels = defaultdict(list)  # order -> [(parent index, degrees, graph)]
        for (k, p, _), g in stream:
            levels[k].append((p, _degrees(g), g))
        kept = []
        skipped = 0
        for k in range(1, n + 1):
            last = {degrees: q for q, (_, degrees, _) in enumerate(levels[k - 1])}
            for p, (_, _, parent) in enumerate(levels[k - 1]):
                new = 1 << parent.n
                family = predicate.masks(parent.adj) if predicate else range(new)
                for mask in _augmenting_masks(*_parent_state(parent), family):
                    child = Graph(k, (*(row | new if (mask >> u) & 1 else row
                                        for u, row in enumerate(parent.adj)), mask))
                    if all(last[_degrees(child, 1 << v)] >= p
                           for v in range(parent.n)):
                        kept.append(child.adj)
                        continue
                    skipped += 1
                    degrees = _degrees(child)
                    assert any(oracles.are_isomorphic(child, g)
                               for q, d, g in levels[k] if q < p and d == degrees)
        assert refined == kept
        assert skipped > len(kept)

    def test_refinements_on_enum8(self, monkeypatch):
        # 85,023 candidates reach the rule; without it each is refined.
        calls = 0
        refine = generate._refine

        def counting(adj):
            nonlocal calls
            calls += 1
            return refine(adj)

        monkeypatch.setattr(generate, "_refine", counting)
        assert len(nonisomorphic_graphs(8)) == sum(CLASS_COUNTS)
        assert calls == 34666


class TestRelabel:
    def test_roundtrip(self):
        g = path_graph(4)
        perm = [3, 1, 0, 2]
        h = relabel(g, perm)
        inverse = [perm.index(i) for i in range(4)]
        assert relabel(h, inverse).adj == g.adj
        assert sorted(g.degree(v) for v in range(4)) == sorted(
            h.degree(v) for v in range(4)
        )
