import collections
import dataclasses
import gc
import json
from itertools import combinations

import pytest

import oracles
from conftest import call_bounded
from oracles import path_graph
from pairdom import characterizations, domination, families, harness
from pairdom.graph import build_graph, components, encode_graph6
from pairdom.families import (
    disjoint_union,
    make_cycle,
    make_k2,
    make_subdivided_star,
)
from pairdom.characterizations import (
    ALL_CHECK_IDS,
    CHECKS,
    Facts,
    HUNT_SKIP_REASONS,
    HuntReport,
    STRUCTURAL_LEMMAS,
    hunt_c3free_counterexamples,
    hunt_record,
    run_checks,
)
from pairdom.generate import nonisomorphic_graphs, positioned_stream, triangle_free
from pairdom.matching import all_perfect_matchings
from pairdom.harness import RunConfig, run

STRUCTURAL_IDS = tuple(lemma.check_id for lemma in STRUCTURAL_LEMMAS)


def check(g, check_id):
    """The verdict of one registry check on g."""
    (verdict,) = run_checks(g, [check_id])
    return verdict


class TestDecideBruteforce:
    def test_examples(self):
        assert Facts(make_k2()).equality is True
        assert Facts(make_cycle(5)).equality is True
        assert Facts(path_graph(4)).equality is False
        assert Facts(make_cycle(4)).equality is False

    def test_undefined_is_none(self):
        assert Facts(build_graph(3, [(0, 1)])).equality is None
        assert Facts(build_graph(0, [])).equality is None

    def test_matches_oracle(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            ug_pr = oracles.upper_gamma_pr(g)
            if g.n == 0 or ug_pr is None or any(
                g.adj[v].bit_count() == 0 for v in range(g.n)
            ):
                continue
            expect = ug_pr == 2 * oracles.upper_gamma(g)
            assert Facts(g).equality is expect


class TestDecideFastpath:
    def test_applicable_classes(self):
        # C5 is both a triangle-free cactus and unicyclic; the votes come
        # in precedence order, so the first names the fast-path method
        assert Facts(make_cycle(5)).votes == {
            "c3-free-cactus": True, "unicyclic": True}
        assert set(Facts(make_k2()).votes.values()) == {True}
        assert set(Facts(path_graph(4)).votes.values()) == {False}
        votes = Facts(make_cycle(7)).votes
        assert next(iter(votes)) == "girth-at-least-6"
        assert set(votes.values()) == {False}

    def test_inapplicable_returns_none(self):
        # no class applies, so no class votes
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        assert Facts(k4).votes == {}
        # butterfly: has triangles, two cycles, not bipartite, not girth >= 6
        assert Facts(make_subdivided_star(0, 2)).votes == {}
        # paired domination is undefined: no class votes
        assert Facts(build_graph(3, [(0, 1)])).votes == {}

    def test_agrees_with_bruteforce(self, graphs_up_to_6):
        checked = 0
        for g in graphs_up_to_6:
            if g.n == 0 or any(g.adj[v].bit_count() == 0 for v in range(g.n)):
                continue
            facts = Facts(g)
            votes = facts.votes
            if not votes:
                continue
            checked += 1
            assert set(votes.values()) == {facts.equality}, facts.graph6
        assert checked >= 40

    def test_disagreement_is_a_failure(self, monkeypatch, tmp_path):
        c6 = make_cycle(6)
        facts = Facts(c6)
        table = characterizations.EQUALITY_CLASSES
        assert all(c.applies(facts) for c in table)
        wrong = dataclasses.replace(table[0], expected=lambda fam: True)
        monkeypatch.setattr(characterizations, "EQUALITY_CLASSES",
                            (wrong,) + table[1:])
        assert len(set(facts.votes.values())) == 2
        v = check(c6, "fastpath-matches-brute")
        assert v.status == "fails"
        assert v.witness == {
            "votes": {"girth-at-least-6": True, "c3-free-cactus": False,
                      "unicyclic": False, "bipartite": False},
            "brute": False,
        }
        # The theorem's check reads the same vote.
        theorem = check(c6, "equality-girth6")
        assert (theorem.status, theorem.witness) == (
            "fails", {"equality": False, "family": None})
        path = tmp_path / "c6.g6"
        path.write_text(encode_graph6(c6) + "\n")
        report, code = run(RunConfig("invariants", str(path)))
        assert code == 1
        (rec,) = report.results
        assert rec["agree"] is False and report.failures == [rec]
        assert rec["votes"] == v.witness["votes"]
        # Past the guard the votes still split, with no scan to compare.
        path.write_text(encode_graph6(make_cycle(25)) + "\n")
        report, code = run(RunConfig("invariants", str(path)))
        assert code == 1
        (rec,) = report.results
        assert rec["agree"] is False and "skipped" in rec
        assert rec["votes"] == {"girth-at-least-6": True, "c3-free-cactus": False,
                                "unicyclic": False}

    def test_wrong_unanimous_vote_is_a_failure(self, monkeypatch, tmp_path):
        # Every class votes the equality on C6, which misses it. Past the
        # guard the same votes compare with nothing, so agree is null.
        table = tuple(dataclasses.replace(c, expected=lambda fam: True)
                      for c in characterizations.EQUALITY_CLASSES)
        monkeypatch.setattr(characterizations, "EQUALITY_CLASSES", table)
        path = tmp_path / "graphs.g6"
        for k, exit_code, agree in ((6, 1, False), (25, 0, None)):
            path.write_text(encode_graph6(make_cycle(k)) + "\n")
            report, code = run(RunConfig("invariants", str(path)))
            (rec,) = report.results
            assert (code, rec["agree"]) == (exit_code, agree)
            assert set(rec["votes"].values()) == {True}
            assert rec.get("equality") is (False if k == 6 else None)


def hypothesis_triples(g, masks):
    """The literal hypothesis of the private-pair lemmas: each (S, u, v),
    S from masks and u < v in S, such that u and v each have a neighbor in
    S - {u, v} and G[S - {u, v}] has a perfect matching, in mask then pair
    order."""
    out = []
    for smask in masks:
        members = [x for x in range(g.n) if smask >> x & 1]
        for u, v in combinations(members, 2):
            rest = [x for x in members if x not in (u, v)]
            if (any(g.has_edge(u, x) for x in rest)
                    and any(g.has_edge(v, x) for x in rest)
                    and oracles.has_perfect_matching(g, rest)):
                out.append((smask, u, v))
    return out


class TestPrivatePairs:
    def test_adjacent_hypothesis_pairs_are_the_matched_pairs(self, graphs_up_to_7):
        # The matched-pair lemma reads its pairs off the adjacent pairs that
        # meet the hypothesis instead of enumerating matchings; check that
        # against enumeration.
        compared = 0
        for g in graphs_up_to_7:
            if not domination.paired_domination_defined(g):
                continue
            masks = Facts(g).report.mpds_masks
            walked = {(smask, u, v) for smask, u, v in hypothesis_triples(g, masks)
                      if g.has_edge(u, v)}
            matched = {
                (smask, u, v)
                for smask in masks
                for m in all_perfect_matchings(g, smask)
                for u, v in m
                if (g.adj[u] & smask).bit_count() >= 2
                and (g.adj[v] & smask).bit_count() >= 2
            }
            assert walked == matched, encode_graph6(g)
            compared += len(matched)
        assert compared > 0

    def test_pairs_without_epn_match_literal_oracle(self, graphs_up_to_7):
        # On a real minimal PDS the list is empty, so feed it every PDS:
        # the non-minimal ones give real violations, from sets of size 4
        # (read off the dominating edges) and of size 6 (walked).
        sizes = collections.Counter()
        for g in graphs_up_to_7:
            if not domination.paired_domination_defined(g):
                continue
            facts = Facts(g)
            masks = list(domination.paired_dominating_masks(g))
            facts.report = dataclasses.replace(facts.report, mpds_masks=masks)
            expected = [
                (smask, u, v) for smask, u, v in hypothesis_triples(g, masks)
                if not oracles.epn_pair(
                    g, u, v, [x for x in range(g.n) if smask >> x & 1])]
            assert facts.pairs_without_epn == expected, encode_graph6(g)
            sizes.update(smask.bit_count() for smask, _, _ in expected)
        assert sizes[4] > 0 and sizes[6] > 0, sizes

    def test_k4_flags_every_pair(self):
        # Each edge of K4 dominates it, so its vertex set, fed as a minimal
        # PDS, flags all six pairs, in pair order.
        facts = Facts(build_graph(4, combinations(range(4), 2)))
        facts.report = dataclasses.replace(facts.report, mpds_masks=[15])
        assert facts.pairs_without_epn == [
            (15, 0, 1), (15, 0, 2), (15, 0, 3), (15, 1, 2), (15, 1, 3), (15, 2, 3)]

    @pytest.mark.parametrize("cid,adjacent", [
        ("pds-pair-removal-private", False), ("pds-matched-pair-private", True)])
    def test_witness_is_pds_and_pair(self, cid, adjacent):
        # The triangle 0-2-3 with a pendant vertex 1 at 3. Its vertex set is
        # a PDS but not a minimal one ({1, 3} is a PDS), and no vertex lies
        # outside it, so no pair has an external private neighbor. The
        # first pair that meets the hypothesis is 0, 1; the first adjacent
        # one is 0, 2.
        g = build_graph(4, [(0, 2), (0, 3), (1, 3), (2, 3)])
        facts = Facts(g)
        facts.report = dataclasses.replace(facts.report, mpds_masks=[g.full_mask])
        v = characterizations.CHECKS[cid](facts)
        assert v.status == "fails"
        assert v.witness == {"pds": [0, 1, 2, 3], "pair": [0, 2] if adjacent else [0, 1]}


class TestIndependentCore:
    def test_holds_on_equality_graphs(self):
        for g in (make_k2(), make_cycle(5), disjoint_union([make_k2()] * 2),
                  make_cycle(3), make_subdivided_star(2, 1)):
            v = check(g, "independent-core")
            assert v.status == "holds", v

    def test_na_when_equality_fails_or_undefined(self):
        assert check(path_graph(4), "independent-core").status == "na"
        assert check(build_graph(2, []), "independent-core").status == "na"

    def test_definition_against_first_principles(self, graphs_up_to_5):
        import itertools

        for g in graphs_up_to_5:
            v = check(g, "independent-core")
            if v.status == "na":
                continue
            facts = Facts(g)
            target = facts.report.upper_gamma
            for pmask in facts.upper_pds_masks:
                pds = [x for x in range(g.n) if (pmask >> x) & 1]
                found = any(
                    all(
                        not g.has_edge(a, b)
                        for a, b in itertools.combinations(sub, 2)
                    )
                    and oracles.is_minimal_dominating(g, sub)
                    for sub in itertools.combinations(pds, target)
                )
                assert found == (v.status == "holds")

    def test_core_rule_on_every_vertex_subset(self, graphs_up_to_5):
        # The check never fails on a real maximum minimal PDS, so a
        # weakened rule would still hold everywhere; feed it every subset.
        import itertools

        for g in graphs_up_to_5:
            target = Facts(g).report.upper_gamma
            for pmask in range(1 << g.n):
                facts = Facts(g)
                facts.upper_pds_masks = [pmask]
                pds = [x for x in range(g.n) if (pmask >> x) & 1]
                found = any(
                    not any(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
                    and oracles.is_minimal_dominating(g, sub)
                    for sub in itertools.combinations(pds, target)
                )
                got = characterizations._independent_core(facts)
                assert (got is None) == found, (encode_graph6(g), pds)


class TestHalfMds:
    def test_rule_on_every_vertex_subset(self, graphs_up_to_6):
        # The check never fails on a real minimal PDS, so feed it every
        # vertex subset and compare with a search over the subset's subsets.
        for g in graphs_up_to_6:
            facts = Facts(g)
            report = facts.report
            for pmask in range(1 << g.n):
                facts.report = dataclasses.replace(
                    report, mpds_masks=domination.Subsets(1 << pmask))
                pds = [v for v in range(g.n) if pmask >> v & 1]
                found = any(oracles.is_minimal_dominating(g, sub)
                            for size in range((len(pds) + 1) // 2, len(pds) + 1)
                            for sub in combinations(pds, size))
                witness = characterizations._pds_contains_half_mds(facts)
                assert witness == (None if found else {"pds": pds}), (g.edges(), pds)

    def test_every_pds_against_per_set_loop(self, graphs_up_to_7):
        # Fed every PDS, minimal or not, the bitmap rule must name the PDS
        # that the per-set loop over the listed sets finds first.
        violating = 0
        for g in graphs_up_to_7:
            if not domination.paired_domination_defined(g):
                continue
            facts = Facts(g)
            pds = domination.paired_dominating_masks(g)
            facts.report = dataclasses.replace(facts.report, mpds_masks=pds)
            first = oracles.first_lacking_half_mds(
                g.n, list(facts.report.mds_masks), list(pds))
            expect = None if first is None else {
                "pds": [v for v in range(g.n) if first >> v & 1]}
            assert characterizations._pds_contains_half_mds(facts) == expect, (
                encode_graph6(g))
            violating += first is not None
        assert violating > 0

    @pytest.mark.parametrize("sizes", [(0, 3), (1, 4, 5), (2, 6), (7,)])
    def test_sets_that_skip_sizes(self, graphs_up_to_7, sizes):
        # ``sets`` holds every vertex subset of the given sizes and none of
        # the sizes between; the bitmap rule must name exactly the subsets
        # that contain no minimal dominating set of at least half their size.
        for g in graphs_up_to_7:
            mds = domination.minimal_dominating_masks(g)
            sets = sum(domination.sets_of_size((1 << (1 << g.n)) - 1, g.n, k)
                       for k in sizes if k <= g.n)
            expect = sum(1 << s for s in range(1 << g.n) if s.bit_count() in sizes
                         and not any(d & s == d and 2 * d.bit_count() >= s.bit_count()
                                     for d in mds))
            assert domination.lacking_half_mds(g.n, mds, sets) == expect, (
                encode_graph6(g), sizes)


class TestUnicyclicBound:
    def test_bound_values(self):
        assert check(make_cycle(6), "unicyclic-gamma-bound").status == "holds"
        assert check(make_cycle(5), "unicyclic-gamma-bound").status == "holds"

    def test_requires_unicyclic(self):
        assert check(path_graph(4), "unicyclic-gamma-bound").status == "na"

    def test_all_small_unicyclic(self):
        for g in nonisomorphic_graphs(7):
            if not Facts(g).flags.unicyclic:
                continue
            assert check(g, "unicyclic-gamma-bound").status == "holds"


class TestStructuralChecks:
    def test_holds_on_c5_and_unions(self):
        for g in (make_cycle(5), disjoint_union([make_cycle(5)] * 2),
                  disjoint_union([make_k2(), make_cycle(5)])):
            for v in run_checks(g, STRUCTURAL_IDS):
                assert v.status == "holds", v

    def test_na_outside_scope(self):
        # C3 meets the equality but is not triangle-free
        for v in run_checks(make_cycle(3), STRUCTURAL_IDS):
            assert v.status == "na", v
        # P4 is a triangle-free cactus but fails the equality
        for v in run_checks(path_graph(4), STRUCTURAL_IDS):
            assert v.status == "na", v

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            run_checks(make_cycle(5), ["no-such-check"])

    def test_never_fails_on_small_graphs(self, graphs_up_to_6):
        for g in graphs_up_to_6:
            verdicts = run_checks(g, STRUCTURAL_IDS)
            assert {v.status for v in verdicts} <= {"holds", "na"}
            if any(v.status == "holds" for v in verdicts):
                assert Facts(g).equality is True

    def test_pair_conditions_match_enumeration(self, graphs_up_to_7):
        # On every PDS P of every graph with n <= 7, each per-matching
        # lemma fails for some perfect matching of G[P] iff its pair
        # condition in the oracles holds, and each sees both verdicts. The
        # PDSs that are not minimal are needed: on the minimal ones with
        # n <= 7, no verdict of outside-partners-adjacent turns on whether
        # G[P - {a, a', b, b'}] has a perfect matching.
        conditions = (
            (characterizations._pair_without_leaf, oracles.pair_without_leaf),
            (characterizations._pair_with_two_outside_contacts,
             oracles.pair_with_two_outside_contacts),
            (characterizations._outside_partners_apart, oracles.outside_partners_apart),
        )
        sets = 0
        fails = collections.Counter()
        for g in graphs_up_to_7:
            if not domination.paired_domination_defined(g):
                continue
            for pmask in domination.paired_dominating_masks(g):
                sets += 1
                outside = g.full_mask & ~pmask
                matchings = all_perfect_matchings(g, pmask)
                P = [v for v in range(g.n) if pmask >> v & 1]
                for lemma, condition in conditions:
                    enumerated = any(lemma(g, pmask, outside, m) is not None
                                     for m in matchings)
                    assert condition(g, P) == enumerated, (
                        encode_graph6(g), P, lemma.__name__)
                    fails[lemma] += enumerated
        assert all(0 < fails[lemma] < sets for lemma, _ in conditions), (sets, fails)


def stored_report(**changes):
    """Store the computed ``Facts.report`` with ``changes`` made."""
    return lambda facts: {"report": dataclasses.replace(facts.report, **changes)}


def in_structural_scope(*pds):
    """Store the structural lemmas' hypothesis as met, with P = pds the one
    maximum minimal PDS."""
    return lambda facts: {"componentwise_c3free_cactus": True, "equality": True,
                          "upper_pds_masks": [sum(1 << v for v in pds)]}


C4, P3, P4, K13 = make_cycle(4), path_graph(3), path_graph(4), oracles.star_graph(3)
# P5 as 1-0-4-2-3: G[0..3] has the one perfect matching 01, 23, and the
# partners 1 and 3 of vertex 4's neighbors 0 and 2 are apart.
P5 = oracles.graph_of(5, [(0, 1), (2, 3), (4, 0), (4, 2)])

# Each check that no real graph of the sweeps fails, with Facts fields
# stored before it runs (a field is a non-data descriptor, so a value in the
# instance dict stands in for the computed one) and the witness it gives.
FAILING = [
    ("gpr-equals-n", C4, stored_report(upper_gamma_pr=4),
     {"upper_gamma_pr": 4, "is_mk2": False}),
    ("gpr-upper-bound", C4, stored_report(upper_gamma_pr=4), {"upper_gamma_pr": 4}),
    ("gpr-equals-n-minus-1", C4, stored_report(upper_gamma_pr=3),
     {"upper_gamma_pr": 3, "family": None}),
    ("gpr-at-most-2gamma", C4, stored_report(upper_gamma_pr=6),
     {"upper_gamma_pr": 6, "upper_gamma": 2}),
    ("gamma-ge-independence", C4, lambda facts: {"alpha": 3},
     {"upper_gamma": 2, "independence": 3}),
    ("unicyclic-gamma-bound", C4, stored_report(upper_gamma=1),
     {"upper_gamma": 1, "bound": 2}),
    ("pair-has-leaf", C4, in_structural_scope(0, 1, 2, 3),
     {"pds": [0, 1, 2, 3], "matching": [[0, 1], [2, 3]], "pair": [0, 1]}),
    ("outside-two-neighbors", P3, in_structural_scope(0, 1),
     {"pds": [0, 1], "vertex": 2, "neighbors_in_pds": [1]}),
    ("outside-partners-adjacent", P5, in_structural_scope(0, 1, 2, 3),
     {"pds": [0, 1, 2, 3], "matching": [[0, 1], [2, 3]], "vertex": 4,
      "partners": [1, 3]}),
    ("outside-no-common-neighbor", K13, in_structural_scope(0, 1),
     {"pds": [0, 1], "pair": [2, 3], "common": [0]}),
    ("pds-max-degree-two", K13, in_structural_scope(0, 1, 2, 3),
     {"pds": [0, 1, 2, 3], "vertex": 0, "degree": 3}),
    ("pair-one-outside-contact", P4, in_structural_scope(1, 2),
     {"pds": [1, 2], "matching": [[1, 2]], "pair": [1, 2]}),
    ("outside-set-independent", P4, in_structural_scope(0, 1),
     {"pds": [0, 1], "pair": [2, 3]}),
]


class TestFailingVerdicts:
    @pytest.mark.parametrize("cid, g, stored, witness", FAILING,
                             ids=[case[0] for case in FAILING])
    def test_check_reports_its_witness(self, cid, g, stored, witness):
        facts = Facts(g)
        facts.__dict__.update(stored(facts))
        v = characterizations.CHECKS[cid](facts)
        assert (v.check_id, v.status, v.graph6) == (cid, "fails", encode_graph6(g))
        assert json.loads(json.dumps(v.to_record())) == {
            "check_id": cid, "graph6": encode_graph6(g), "holds": False,
            "witness": witness}


# Equality graphs with 22 <= n <= 24 whose components are triangle-free
# cacti, so every structural lemma applies, on a maximum minimal PDS of
# 20-24 vertices.
UNIONS_AT_THE_GUARD = ("mK2:11", "mK2:12", "union:K2*7+C5*2", "union:K2*2+C5*4")


@pytest.mark.parametrize("spec", UNIONS_AT_THE_GUARD)
class TestUnionsAtTheGuard:
    def test_every_check_decides(self, spec):
        g = families.parse_family_spec(spec)
        verdicts = run_checks(g, ALL_CHECK_IDS)
        assert {v.status for v in verdicts} <= {"holds", "na"}, verdicts
        assert all(v.status == "holds" for v in verdicts
                   if v.check_id in STRUCTURAL_IDS)

    def test_matchings_within_the_cycle_bound(self, spec):
        # G[P] is a cactus forest, so its perfect matchings differ by sets
        # of cycle blocks: at most 2^c, c = m - n + components of G[P].
        g = families.parse_family_spec(spec)
        facts = Facts(g)
        for pmask in facts.upper_pds_masks:
            vs = [v for v in range(g.n) if pmask >> v & 1]
            sub = build_graph(len(vs), [(i, j) for i, j in combinations(range(len(vs)), 2)
                                        if g.has_edge(vs[i], vs[j])])
            cycles = sub.edge_count - sub.n + len(components(sub))
            assert 1 <= len(facts.matchings(pmask)) <= 2 ** cycles


class TestRegistry:
    def test_each_scan_runs_once_per_graph(self, monkeypatch, graphs_up_to_5):
        calls = {"mds": 0, "mpds": 0}

        def counted(name, scan):
            def wrapper(g):
                calls[name] += 1
                return scan(g)
            return wrapper

        monkeypatch.setattr(domination, "minimal_dominating_masks",
                            counted("mds", domination.minimal_dominating_masks))
        monkeypatch.setattr(domination, "minimal_paired_dominating_masks",
                            counted("mpds", domination.minimal_paired_dominating_masks))
        paired = 0
        for g in graphs_up_to_5:
            run_checks(g, ALL_CHECK_IDS)
            paired += g.n > 0 and not any(row == 0 for row in g.adj)
        assert calls == {"mds": len(graphs_up_to_5), "mpds": paired}

    def test_block_scan_runs_once_per_graph(self, monkeypatch):
        # A connected graph's block scan is the one classify makes for
        # flags.cactus; a disconnected graph's is the one Facts makes.
        calls = 0
        scan = families.every_block_edge_or_cycle

        def counted(g):
            nonlocal calls
            calls += 1
            return scan(g)

        monkeypatch.setattr(families, "every_block_edge_or_cycle", counted)
        monkeypatch.setattr(characterizations, "every_block_edge_or_cycle", counted)
        for g in (make_cycle(5), disjoint_union([make_cycle(5), make_k2()])):
            calls = 0
            run_checks(g, ALL_CHECK_IDS)
            assert calls == 1, g

    def test_each_layer_runs_once_per_graph(self, monkeypatch, graphs_up_to_6):
        # However many checks read a layer, one Facts computes it once; the
        # family is read only where Γ_pr is defined.
        layers = ("invariants", "classify", "recognize_family", "independence_number")
        calls = collections.Counter()

        def counted(name, layer):
            def wrapper(g):
                calls[name] += 1
                return layer(g)
            return wrapper

        for name in layers:
            monkeypatch.setattr(characterizations, name,
                                counted(name, getattr(characterizations, name)))
        for g in graphs_up_to_6:
            calls.clear()
            run_checks(g, ALL_CHECK_IDS)
            paired = domination.paired_domination_defined(g)
            assert calls == {name: 1 for name in layers
                             if paired or name != "recognize_family"}, g

    def test_shared_verdicts_give_fresh_records(self):
        # The na and holds verdicts of a check are one object on every
        # graph, so a record edited after one graph must not reach the next.
        for cid, graphs, status in (
                ("gpr-at-most-2gamma", (make_cycle(5), make_k2()), "holds"),
                ("independent-core", (path_graph(4), build_graph(2, [])), "na")):
            first, second = (check(g, cid) for g in graphs)
            assert first is second and first.status == status
            record = first.to_record()
            record["holds"] = "edited"
            record["witness"] = {}
            assert second.to_record() == {"check_id": cid, "graph6": None,
                                          "holds": status == "holds" or None}

    def test_verify_totals_at_order_7(self, tmp_path, graphs_up_to_7):
        # (holds, na) of each check in registry order over the 1,044
        # graphs of order 7, recorded before the checks became rows.
        pinned = {
            "gpr-equals-n": (888, 156),
            "gpr-upper-bound": (853, 191),
            "gpr-equals-n-minus-1": (853, 191),
            "gpr-at-most-2gamma": (888, 156),
            "gamma-ge-independence": (1044, 0),
            "pds-pair-removal-private": (853, 191),
            "pds-matched-pair-private": (853, 191),
            "pds-contains-half-mds": (888, 156),
            "unicyclic-gamma-bound": (33, 1011),
            "independent-core": (72, 972),
            "equality-bipartite": (44, 1000),
            "equality-unicyclic": (33, 1011),
            "equality-girth6": (19, 1025),
            "equality-c3free-cactus": (36, 1008),
            "fastpath-matches-brute": (76, 968),
            "pair-has-leaf": (1, 1043),
            "outside-two-neighbors": (1, 1043),
            "outside-partners-adjacent": (1, 1043),
            "outside-no-common-neighbor": (1, 1043),
            "pds-max-degree-two": (1, 1043),
            "pair-one-outside-contact": (1, 1043),
            "outside-set-independent": (1, 1043),
        }
        assert ALL_CHECK_IDS == tuple(pinned)
        path = tmp_path / "order7.g6"
        path.write_text("".join(encode_graph6(g) + "\n"
                                for g in graphs_up_to_7 if g.n == 7))
        report, code = run(RunConfig("verify", str(path)))
        assert code == 0
        assert report.to_record()["totals"] == {
            cid: {"scanned": 1044, "holds": holds, "fails": 0, "na": na,
                  "skipped": 0}
            for cid, (holds, na) in pinned.items()}

    def test_totals_by_status_vector(self, tmp_path, monkeypatch):
        # An injected check fails on one graph, is stopped by a guard on
        # another and is na elsewhere; with an unreadable line, verify must
        # give each check the totals of counting every verdict, at one job
        # and at two.
        graphs = nonisomorphic_graphs(6, min_n=6)
        failing, guarded = encode_graph6(graphs[40]), encode_graph6(graphs[101])

        def injected(facts):
            if facts.graph6 == guarded:
                raise domination.GuardError("injected guard")
            if facts.graph6 == failing:
                return characterizations.Verdict("injected", failing, "fails", {})
            return characterizations.Verdict("injected", None, "na")

        monkeypatch.setitem(characterizations.CHECKS, "injected", injected)
        check_ids = ("injected", *ALL_CHECK_IDS)
        expect = {cid: {"scanned": len(graphs) + 1, "holds": 0, "fails": 0,
                        "na": 0, "skipped": 1} for cid in check_ids}
        for g in graphs:
            for v in run_checks(g, check_ids):
                expect[v.check_id][v.status] += 1
        assert (expect["injected"]["fails"], expect["injected"]["skipped"]) == (1, 2)
        path = tmp_path / "order6.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs) + "!!\n")
        for jobs in (1, 2):
            report, code = call_bounded(
                run, RunConfig("verify", str(path), checks=check_ids, jobs=jobs))
            assert code == 1
            assert report.to_record()["totals"] == expect, jobs
            assert [rec["graph6"] for rec in report.failures] == [failing]

    def test_verify_leaves_no_cyclic_garbage(self):
        # Generation, the checks and matching enumeration recurse through
        # module-level functions, so a verify run is freed by reference
        # counting alone.
        gc.collect()
        gc.disable()
        try:
            report, code = run(RunConfig("verify", "enum:7"))
            assert code == 0
            del report
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCheckMajor:
    @staticmethod
    def chunk_verdicts(positioned, sizes):
        """Each graph of a stream with its verdicts from ``check_chunk`` on
        the chunk that the harness map puts it in; each chunk's size is
        added to ``sizes``."""
        def worker(graphs):
            sizes.append(len(graphs))
            verdicts = characterizations.check_chunk(graphs, ALL_CHECK_IDS)
            return [(harness._RESULT, pair) for pair in zip(graphs, verdicts)]

        return [value for chunk in harness._apply(worker, positioned)
                for _, kind, value in chunk]

    @pytest.mark.parametrize("source", ["enum", "c3free", "mixed"])
    def test_chunks_give_each_graph_its_verdicts_alone(
            self, tmp_path, graphs_up_to_7, c3free_up_to_9, source):
        # Every graph of enum <= 7 and c3free <= 9, and a graph6 file of
        # mixed orders: C5, C25 (past the guard, so skipped), P4, K0 and an
        # unreadable line. C25 is a chunk of its own, so the file gives
        # chunks of 1, 1 and 2 graphs.
        if source == "mixed":
            big = make_cycle(25)
            graphs = [make_cycle(5), big, path_graph(4), build_graph(0, [])]
            path = tmp_path / "mixed.g6"
            path.write_text("".join(encode_graph6(g) + "\n" for g in graphs) + "!!\n")
            shards, _, errors = harness.load_source(str(path))
            positioned = shards((0, 1))
            assert len(errors) == 1
        else:
            graphs = graphs_up_to_7 if source == "enum" else c3free_up_to_9
            positioned = (((i,), g) for i, g in enumerate(graphs))
        sizes = []
        pairs = self.chunk_verdicts(positioned, sizes)
        assert [encode_graph6(g) for g, _ in pairs] == [encode_graph6(g) for g in graphs]
        for g, verdicts in pairs:
            assert verdicts == run_checks(g, ALL_CHECK_IDS), encode_graph6(g)
        if source == "mixed":
            assert sizes == [1, 1, 2]
            assert {v.status for v in pairs[1][1]} == {"skipped", "na"}
        else:
            assert max(sizes) > 1 and sum(sizes) == len(graphs)

    def test_a_check_raising_on_the_middle_graph_spares_the_rest(
            self, monkeypatch, tmp_path):
        # A check in the middle of the registry raises on the middle graph
        # of a chunk: that graph gets its error record, no later check runs
        # on it, and the other graphs keep their verdicts. At two jobs the
        # file's shard 0 is the chunk of graphs 0, 2 and 4, so the victim
        # is again in the middle.
        graphs = [make_cycle(5), path_graph(4), make_cycle(6), path_graph(5),
                  make_cycle(7)]
        victim = encode_graph6(graphs[2])
        alone = [run_checks(g, ALL_CHECK_IDS) for g in graphs]
        raising, later = ALL_CHECK_IDS[5], ALL_CHECK_IDS[-1]
        original, last, seen = CHECKS[raising], CHECKS[later], []

        def raises_on_victim(facts):
            if facts.graph6 == victim:
                raise ArithmeticError(f"bad {victim}")
            return original(facts)

        def recording(facts):
            seen.append(facts.graph6)
            return last(facts)

        monkeypatch.setitem(CHECKS, raising, raises_on_victim)
        monkeypatch.setitem(CHECKS, later, recording)
        out = characterizations.check_chunk(graphs, ALL_CHECK_IDS)
        assert isinstance(out[2], ArithmeticError) and str(out[2]) == f"bad {victim}"
        assert out[:2] + out[3:] == alone[:2] + alone[3:]
        assert seen == [encode_graph6(g) for i, g in enumerate(graphs) if i != 2]
        with pytest.raises(ArithmeticError):
            run_checks(graphs[2], ALL_CHECK_IDS)

        path = tmp_path / "five.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        expect = {cid: {"scanned": 5, "holds": 0, "fails": 0, "na": 0, "skipped": 1}
                  for cid in ALL_CHECK_IDS}
        for verdicts in alone[:2] + alone[3:]:
            for v in verdicts:
                expect[v.check_id][v.status] += 1
        record = {"graph6": victim, "error": f"ArithmeticError: bad {victim}"}
        for jobs in (1, 2):
            report, code = call_bounded(run, RunConfig("verify", str(path), jobs=jobs),
                                        timeout=60)
            assert (code, report.failures, report.errors) == (1, [record], []), jobs
            assert report.totals == expect, jobs


    def test_a_raising_check_leaves_no_cyclic_garbage(self, monkeypatch):
        # The error path frees the chunk's Facts by reference counting, as
        # a run with no error does.
        original = CHECKS["gpr-upper-bound"]

        def raises_on_order_6(facts):
            if facts.g.n == 6:
                raise ArithmeticError("x")
            return original(facts)

        monkeypatch.setitem(CHECKS, "gpr-upper-bound", raises_on_order_6)
        gc.collect()
        gc.disable()
        try:
            report, code = run(RunConfig("verify", "enum:6"))
            assert (code, len(report.failures)) == (1, 156)
            del report
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHunt:
    def test_record_scope(self, monkeypatch):
        out_of_scope = {"skipped": "out_of_scope"}
        assert hunt_record(make_cycle(3)) == out_of_scope  # not triangle-free
        assert hunt_record(build_graph(2, [])) == out_of_scope  # isolated vertices
        assert hunt_record(build_graph(0, [])) == out_of_scope  # K0
        assert hunt_record(path_graph(4)) is None  # misses the equality
        assert hunt_record(make_cycle(5)) == {
            "graph6": encode_graph6(make_cycle(5)), "family": "C5",
            "expected_form": True, "cactus": True}
        # 2α = n, but mK2 goes on to the scans and meets the equality
        twelve_k2 = disjoint_union([make_k2()] * 12)
        assert hunt_record(twelve_k2) == {
            "graph6": encode_graph6(twelve_k2), "family": "mK2:12",
            "expected_form": True, "cactus": True}

        def no_scan(g):
            raise AssertionError("a 2^n scan ran")

        monkeypatch.setattr(characterizations, "invariants", no_scan)
        k12_12 = build_graph(24, [(u, v) for u in range(12) for v in range(12, 24)])
        assert hunt_record(k12_12) is None  # 2α = 24 > 22
        assert hunt_record(path_graph(24)) is None  # 2α = 24 > 22
        assert hunt_record(make_cycle(25)) == {"skipped": "too_large"}  # guard

    def test_record_matches_brute_force(self, c3free_up_to_9, graphs_up_to_7):
        # graphs_up_to_7 brings triangles and isolated vertices
        for g in c3free_up_to_9 + graphs_up_to_7:
            facts = Facts(g)
            if facts.equality is None or not facts.flags.c3_free:
                expected = {"skipped": "out_of_scope"}
            elif facts.equality:
                fam = facts.family
                expected = {
                    "graph6": facts.graph6,
                    "family": fam,
                    "expected_form": fam is not None
                    and (fam == "C5" or fam.startswith(("mK2:", "union:"))),
                    "cactus": facts.componentwise_c3free_cactus}
            else:
                expected = None
            assert hunt_record(g) == expected, facts.graph6

    def test_alpha_exit_skips_most_scans(self, c3free_up_to_9, monkeypatch):
        calls = []
        scan = characterizations.invariants
        monkeypatch.setattr(characterizations, "invariants",
                            lambda g: calls.append(g) or scan(g))
        records = [hunt_record(g) for g in c3free_up_to_9]
        # 1,896 of the 2,480 graphs are in scope; α decides all but 304
        assert sum(rec != {"skipped": "out_of_scope"} for rec in records) == 1896
        assert len(calls) == 304

    def test_alpha_exit_never_drops_a_satisfier(self, c3free_up_to_9,
                                                monkeypatch):
        # an in-scope graph skips both scans iff 2α > bound(G), with bound
        # n on mK2 and 2⌊(n - 1)/2⌋ elsewhere; brute force then gives
        # Γ_pr < 2α on it, so it misses the equality
        calls = []
        scan = characterizations.invariants
        monkeypatch.setattr(characterizations, "invariants",
                            lambda g: calls.append(g) or scan(g))
        scanned = 0
        near = collections.Counter()  # connected, odd n, 2α = n - 1
        for g in c3free_up_to_9:
            before = len(calls)
            if hunt_record(g) == {"skipped": "out_of_scope"}:
                continue
            alpha = domination.independence_number(g)
            mk2 = all(g.adj[v].bit_count() == 1 for v in range(g.n))
            bound = g.n if mk2 else 2 * ((g.n - 1) // 2)
            if len(calls) > before:
                assert 2 * alpha <= bound, encode_graph6(g)
                scanned += 1
                if g.n % 2 and 2 * alpha == g.n - 1 and len(components(g)) == 1:
                    near[g.n] += 1
            else:
                assert 2 * alpha > bound, encode_graph6(g)
                assert scan(g).upper_gamma_pr < 2 * alpha, encode_graph6(g)
                assert Facts(g).equality is False, encode_graph6(g)
        # 1,592 of the 1,896 in-scope graphs are decided from α alone; of
        # the 304 scanned, C5 and the 284 at n = 7 and 9 are connected with
        # odd n and 2α = n - 1
        assert scanned == 304
        assert near == {5: 1, 7: 8, 9: 276}

    def test_report_counts_each_record_shape(self):
        c5 = {"graph6": "Dhc", "family": "C5", "expected_form": True, "cactus": True}
        odd = {"graph6": "?", "family": None, "expected_form": False, "cactus": False}
        records = [{"skipped": "out_of_scope"}, {"skipped": "too_large"},
                   {"skipped": "unreadable"}, None, dict(c5), dict(odd)]
        report = HuntReport()
        assert [report.add(rec) for rec in records] == [False] * 5 + [True]
        assert records[-2:] == [c5, odd]  # kept as given
        assert report.satisfiers == [c5, odd] and report.exceptions == [odd]
        rec = report.to_record()
        assert (rec["scanned"], rec["skipped"], rec["exception_count"]) == (6, 3, 1)
        assert rec["skipped_by_reason"] == dict.fromkeys(HUNT_SKIP_REASONS, 1)

    def test_empty_stream(self):
        report = hunt_c3free_counterexamples([])
        assert report.scanned == 0 and not report.satisfiers

    def test_c5_stream(self):
        report = hunt_c3free_counterexamples([make_cycle(5)])
        assert report.scanned == 1
        assert len(report.satisfiers) == 1
        assert not report.exceptions

    def test_hunt_leaves_no_cyclic_garbage(self):
        # The hunt over the triangle-free stream, generated as it is read,
        # is freed by reference counting alone.
        gc.collect()
        gc.disable()
        try:
            report = hunt_c3free_counterexamples(
                g for _, g in positioned_stream(9, triangle_free))
            assert report.scanned == 2480  # triangle-free classes, n = 0..9
            del report
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_small_exhaustive_hunt_finds_no_exceptions(self):
        stream = nonisomorphic_graphs(6, predicate=triangle_free)
        report = hunt_c3free_counterexamples(stream)
        assert report.scanned == 66  # triangle-free classes, n = 0..6
        assert not report.exceptions
        assert not report.non_cactus_satisfiers
        # every satisfier is a disjoint union of edges and 5-cycles
        for rec in report.satisfiers:
            assert rec["family"] is not None
