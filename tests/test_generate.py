import gc
import hashlib
import itertools
import math
import random
import sys
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
    _search_order,
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
        cells2 = _cells(colors2)
        found = _isomorphism(g.adj, colors1, h.adj, cells2, _search_order(colors1, cells2))
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
            ours[profile(g.n, [g.adj[v].bit_count() for v in range(g.n)])].append(g)
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


def _pinned_search(adj, colors, cells, order, pinned, image, k: int) -> bool:
    """Map order[k:] onto unused vertices of the same colour, order[j] onto
    pinned[j] while j < len(pinned), each image adjacent to the images of
    the mapped vertices iff the vertex is adjacent to them; ``image`` holds
    the map, and the first map found in that order is kept."""
    if k == len(order):
        return True
    v = order[k]
    for w in [pinned[k]] if k < len(pinned) else cells[colors[v]]:
        if w not in image.values() and all(
                adj[v] >> u & 1 == adj[w] >> x & 1 for u, x in image.items()):
            image[v] = w
            if _pinned_search(adj, colors, cells, order, pinned, image, k + 1):
                return True
            del image[v]
    return False


def _automorphisms_walking_the_prefix(adj, colors, cells) -> list[list[int]]:
    """``_automorphisms`` as a search from step 0 does it: each vertex w of
    b_i's colour outside the orbit of b_i under the generators found so far
    is tried, with b_0..b_{i-1} pinned to themselves and b_i to w."""
    order = _search_order(colors, cells)
    generators = []
    for i in reversed(range(len(order))):
        base = order[i]
        for w in cells[colors[base]]:
            orbit, grown = set(), {base}
            while grown != orbit:
                orbit = grown
                grown = orbit | {g[x] for g in generators for x in orbit}
            image = {}
            if w not in orbit and _pinned_search(adj, colors, cells, order,
                                                 order[:i] + [w], image, 0):
                generators.append([image[v] for v in range(len(order))])
    return generators


class TestOrbitPruning:
    def test_searches_past_the_prefix_find_the_same_generators(
            self, graphs_up_to_6, c3free_up_to_9):
        # Every parent of enum <= 7 and of c3free <= 9: a search that starts
        # past its fixed prefix, and skips base points alone in their colour
        # and images in the prefix, yields the same generator lists, in the
        # same order, as one that walks the pinned prefix for every w.
        parents = [*graphs_up_to_6, *(g for g in c3free_up_to_9 if g.n <= 8)]
        assert len(parents) == 209 + 583
        for g in parents:
            state = _parent_state(g)
            assert _automorphisms(*state) == _automorphisms_walking_the_prefix(*state), (
                g.edges())

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


def _counts(g, gone: int = 0) -> tuple[tuple[int, ...], int, int]:
    """The sorted degree sequence, the triangles and the 4-cycles (as
    subgraphs) of g less the vertices in the mask gone, from scratch: a
    4-cycle has two diagonals, each a pair with two common neighbours."""
    keep = [u for u in range(g.n) if not (gone >> u) & 1]
    rows = {u: g.adj[u] & ~gone for u in keep}
    degrees = tuple(sorted(rows[u].bit_count() for u in keep))
    triangles = sum(1 for a, b, c in itertools.combinations(keep, 3)
                    if (rows[a] >> b) & 1 and (rows[a] >> c) & 1 and (rows[b] >> c) & 1)
    squares = sum(math.comb((rows[a] & rows[b]).bit_count(), 2)
                  for a, b in itertools.combinations(keep, 2)) // 2
    return degrees, triangles, squares


def _invariant(g, gone: int = 0) -> int:
    """_counts packed as the generator packs them: 6 bits of count per
    degree, the triangles from bit 372 and the 4-cycles from bit 396."""
    degrees, triangles, squares = _counts(g, gone)
    return sum(1 << 6 * d for d in degrees) + (triangles << 372) + (squares << 396)


def _candidates(stream, predicate):
    """Every candidate the generator walks, level by level: per parent p of
    level k - 1 its family and each orbit-least mask with the child it
    gives, as (k, levels, p, family, mask, child), where levels maps each
    order to the stream's graphs of that order."""
    levels = defaultdict(list)
    for (k, _, _), g in stream:
        levels[k].append(g)
    for k in range(1, max(levels) + 1):
        for p, parent in enumerate(levels[k - 1]):
            new = 1 << parent.n
            family = predicate.masks(parent.adj) if predicate else range(new)
            for mask in _augmenting_masks(*_parent_state(parent), family):
                child = Graph(k, (*(row | new if (mask >> u) & 1 else row
                                    for u, row in enumerate(parent.adj)), mask))
                yield k, levels, p, family, mask, child


def _deleted(g, v: int) -> Graph:
    """g less vertex v, the vertices above v moved down by one."""
    return oracles.graph_of(g.n - 1, [(a - (a > v), b - (b > v))
                                      for a, b in g.edges() if v not in (a, b)])


class TestDeletionRule:
    # (kept, dropped for a parent q < p) of each stream. No candidate there
    # has an earlier isomorphic sibling; the 4 of enum:8 are dropped, as the
    # pinned stream and the published count of order 8 show.
    @pytest.mark.parametrize("n, predicate, expected",
                             [(7, None, (1252, 4507)), (8, triangle_free, (582, 2037))],
                             ids=["7-None", "8-triangle_free"])
    def test_keeps_iff_no_earlier_parent_or_sibling(self, n, predicate, expected):
        # Every candidate C = P_p + w(M) (parent, orbit-least mask) up to
        # order n is yielded, at its position and with its labels, iff by the
        # oracle no old vertex v has C - v isomorphic to a parent q < p and no
        # earlier mask of p gives a child isomorphic to C. The oracle is asked
        # about every pair with equal degree sequences, triangles and
        # 4-cycles, counted from scratch.
        stream = list(generate.positioned_stream(n, predicate))
        yielded = dict(stream)
        parents = {}  # order -> {counts: [(index, parent)]}
        tried = None
        verdicts = Counter()
        for k, levels, p, _, mask, child in _candidates(stream, predicate):
            if k not in parents:
                parents[k] = defaultdict(list)
                for q, g in enumerate(levels[k - 1]):
                    parents[k][_counts(g)].append((q, g))
            if tried != (k, p):
                tried, earlier = (k, p), []  # (counts, child) of p's candidates
            by_parent = any(oracles.are_isomorphic(_deleted(child, v), g)
                            for v in range(k - 1)
                            for q, g in parents[k][_counts(child, 1 << v)] if q < p)
            counts = _counts(child)
            by_mask = any(oracles.are_isomorphic(child, h) for c, h in earlier if c == counts)
            earlier.append((counts, child))
            kept = yielded.pop((k, p, mask), None)
            assert (kept is not None) == (not by_parent and not by_mask), (k, p, mask)
            assert kept is None or kept.adj == child.adj
            verdicts[by_parent, by_mask] += 1
        assert list(yielded) == [(0, 0, 0)]  # the one graph of no parent
        assert verdicts == {(False, False): expected[0], (True, False): expected[1]}

    @pytest.mark.parametrize("n, predicate",
                             [(7, None), (8, triangle_free),
                              pytest.param(8, girth_at_least(5), id="8-girth5")])
    def test_tables_match_counts_from_scratch(self, n, predicate):
        # For every candidate C = P + w(M) up to order n, I(C) and each
        # I(C - v) from the parent's tables equal the counts from scratch.
        stream = generate.positioned_stream(n, predicate)
        tabled = None
        for k, levels, p, family, mask, child in _candidates(stream, predicate):
            parent = levels[k - 1][p]
            if tabled != (k, p):
                tabled = k, p
                grow, shrink = generate._tables(parent.adj, family)
            assert _invariant(child) == _invariant(parent) + grow[mask]
            for v in range(parent.n):
                assert _invariant(child, 1 << v) == (
                    _invariant(parent, 1 << v) + grow[mask & ~(1 << v)]
                    - shrink[mask & parent.adj[v]])

    # One refinement per parent (the 1,253 graphs of order <= 7 and the 583
    # triangle-free ones of order <= 8), and one for each child whose parent
    # already kept a child with its I, and once for that child: 1,727 and
    # 190. Tier 3 refines none here. Without the rule each of the 85,023
    # candidates of enum:8 would be refined, and with the level-wide store
    # each that passed its tier 1, 18,096 and 3,597.
    def test_refinements_on_enum8(self, monkeypatch):
        assert self.refinements(monkeypatch, 8, None) == 1253 + 1727

    def test_refinements_on_c3free9(self, monkeypatch):
        assert self.refinements(monkeypatch, 9, triangle_free) == 583 + 190

    # The backtracking searches of the same streams: the pinned searches for
    # the parents' automorphism generators, each started past its fixed
    # prefix (2,234 and 1,405; an image in the prefix, or whose adjacency
    # to it differs from the base point's, is not searched, nor a base
    # point alone in its colour), and one ``_isomorphism`` per earlier
    # sibling with a child's refinement key, 4 on enum:8, each a duplicate;
    # tier 3 searches none here. ``_extend`` counts every node of every
    # search: 8,291 and 6,010. The search order is sorted once per parent
    # for its automorphism group and once per sibling search.
    def test_searches_on_enum8(self, monkeypatch):
        assert self.searches(monkeypatch, 8, None) == {
            "pinned": 2234, "_isomorphism": 4, "_extend": 8291, "_search_order": 1253 + 4}

    def test_searches_on_c3free9(self, monkeypatch):
        assert self.searches(monkeypatch, 9, triangle_free) == {
            "pinned": 1405, "_isomorphism": 0, "_extend": 6010, "_search_order": 583}

    def test_generation_leaves_no_cyclic_garbage(self):
        # Every search recurses through a module-level function, so a stream
        # is freed by reference counting alone; a closure that refers to
        # itself would leave one reference cycle per search.
        gc.collect()
        gc.disable()
        try:
            assert len(nonisomorphic_graphs(9, triangle_free)) == sum(C3FREE_COUNTS)
            assert gc.collect() == 0
        finally:
            gc.enable()

    # The first-round keys of the same streams: one per child kept below
    # the last level (1,252 and 582), for the level's store, and one per
    # tier-2 deletion C - v that the sibling group's memo has not met:
    # 4,460 of the 12,297 deletions tier 2 reads on enum:8, and 1,796 of
    # the 3,387 on c3free:9. Tier 2 probes the newest vertex first and
    # stops at the first that drops C, as tier 1 does.
    def test_first_keys_on_enum8(self, monkeypatch):
        assert self.calls(monkeypatch, 8, None, "_first_key") == {"_first_key": 1252 + 4460}

    def test_first_keys_on_c3free9(self, monkeypatch):
        assert self.calls(monkeypatch, 9, triangle_free, "_first_key") == {
            "_first_key": 582 + 1796}

    # Each stream of PINNED_STREAMS: its order and predicate, and its
    # refinements when tier 2 always ties: those without that plus one per
    # deletion tier 2 reads, newest vertex first (232, 12,297, 3,387, 211
    # and 160).
    TIED = {
        "graphs_up_to_7": (7, None, 278 + 232),
        "graphs_up_to_8": (8, None, 2980 + 12297),
        "c3free_up_to_9": (9, triangle_free, 773 + 3387),
        "girth6_up_to_9": (9, girth_at_least(6), 201 + 211),
        "one_cycle_per_component_up_to_8": (8, at_most_one_cycle_per_component, 223 + 160),
    }

    @pytest.mark.parametrize("stream", sorted(PINNED_STREAMS))
    def test_tier_three_alone_keeps_the_pinned_streams(self, monkeypatch, stream):
        # With every first-round key equal, every deletion that tier 1 leaves
        # unsure is refined and backtracked against the tied parents before p.
        n, predicate, refinements = self.TIED[stream]
        monkeypatch.setattr(generate, "_first_key", lambda adj: ())
        calls = Counter()
        refine = generate._refine
        monkeypatch.setattr(generate, "_refine",
                            lambda adj: calls.update(["_refine"]) or refine(adj))
        text = "".join(encode_graph6(g) + "\n" for g in nonisomorphic_graphs(n, predicate))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_STREAMS[stream]
        assert calls["_refine"] == refinements

    @staticmethod
    def refinements(monkeypatch, n, predicate) -> int:
        """The ``_refine`` calls of generating the stream up to order n."""
        return TestDeletionRule.calls(monkeypatch, n, predicate, "_refine")["_refine"]

    @staticmethod
    def searches(monkeypatch, n, predicate) -> dict:
        """The calls of ``_isomorphism``, ``_extend`` and ``_search_order``
        in generating the stream up to order n, and under "pinned" the
        ``_extend`` calls made by ``_automorphisms``, one per pinned
        search."""
        nodes = Counter()  # _extend calls by the name of the caller
        extend = generate._extend

        def counted(*args):
            nodes[sys._getframe(1).f_code.co_name] += 1
            return extend(*args)

        monkeypatch.setattr(generate, "_extend", counted)
        calls = TestDeletionRule.calls(monkeypatch, n, predicate, "_isomorphism", "_search_order")
        return {"pinned": nodes["_automorphisms"], "_isomorphism": calls.get("_isomorphism", 0),
                "_extend": nodes.total(), "_search_order": calls["_search_order"]}

    @staticmethod
    def calls(monkeypatch, n, predicate, *names) -> dict:
        """The calls of each ``generate.<name>`` in generating the stream up
        to order n."""
        calls = Counter()

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)
            return counted

        for name in names:
            monkeypatch.setattr(generate, name, counting(name, getattr(generate, name)))
        counts = CLASS_COUNTS if predicate is None else C3FREE_COUNTS
        assert len(nonisomorphic_graphs(n, predicate)) == sum(counts[:n + 1])
        return dict(calls)


class TestRelabel:
    def test_roundtrip(self):
        g = path_graph(4)
        perm = [3, 1, 0, 2]
        h = relabel(g, perm)
        inverse = [perm.index(i) for i in range(4)]
        assert relabel(h, inverse).adj == g.adj
        assert sorted(g.adj[v].bit_count() for v in range(4)) == sorted(
            h.adj[v].bit_count() for v in range(4)
        )
