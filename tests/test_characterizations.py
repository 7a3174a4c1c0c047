import dataclasses
from itertools import combinations

import pytest

import oracles
from oracles import path_graph
from pairdom import characterizations, domination, families
from pairdom.graph import build_graph, components, encode_graph6
from pairdom.families import (
    disjoint_union,
    make_cycle,
    make_k2,
    make_subdivided_star,
)
from pairdom.characterizations import (
    ALL_CHECK_IDS,
    Facts,
    HUNT_SKIP_REASONS,
    HuntReport,
    STRUCTURAL_LEMMAS,
    equality_votes,
    hunt_c3free_counterexamples,
    hunt_record,
    run_checks,
)
from pairdom.generate import nonisomorphic_graphs, triangle_free
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
                g.degree(v) == 0 for v in range(g.n)
            ):
                continue
            expect = ug_pr == 2 * oracles.upper_gamma(g)
            assert Facts(g).equality is expect


class TestDecideFastpath:
    def test_applicable_classes(self):
        # C5 is both a triangle-free cactus and unicyclic; the votes come
        # in precedence order, so the first names the fast-path method
        assert equality_votes(Facts(make_cycle(5))) == {
            "c3-free-cactus": True, "unicyclic": True}
        assert set(equality_votes(Facts(make_k2())).values()) == {True}
        assert set(equality_votes(Facts(path_graph(4))).values()) == {False}
        votes = equality_votes(Facts(make_cycle(7)))
        assert next(iter(votes)) == "girth-at-least-6"
        assert set(votes.values()) == {False}

    def test_inapplicable_returns_none(self):
        # no class applies, so no class votes
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        assert equality_votes(Facts(k4)) == {}
        # butterfly: has triangles, two cycles, not bipartite, not girth >= 6
        assert equality_votes(Facts(make_subdivided_star(0, 2))) == {}
        # paired domination is undefined: no class votes
        assert equality_votes(Facts(build_graph(3, [(0, 1)]))) == {}

    def test_agrees_with_bruteforce(self, graphs_up_to_6):
        checked = 0
        for g in graphs_up_to_6:
            if g.n == 0 or any(g.degree(v) == 0 for v in range(g.n)):
                continue
            facts = Facts(g)
            votes = equality_votes(facts)
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
        assert len(set(equality_votes(facts).values())) == 2
        v = check(c6, "fastpath-matches-brute")
        assert v.status == "fails"
        assert v.witness == {
            "votes": {"girth-at-least-6": True, "c3-free-cactus": False,
                      "unicyclic": False, "bipartite": False},
            "brute": False,
        }
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
        # the non-minimal ones give real violations.
        violating = 0
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
            violating += bool(expected)
        assert violating > 0

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
                facts.report = dataclasses.replace(report, mpds_masks=[pmask])
                pds = [v for v in range(g.n) if pmask >> v & 1]
                found = any(oracles.is_minimal_dominating(g, sub)
                            for size in range((len(pds) + 1) // 2, len(pds) + 1)
                            for sub in combinations(pds, size))
                witness = characterizations._pds_contains_half_mds(facts)
                assert witness == (None if found else {"pds": pds}), (g.edges(), pds)


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
        assert hunt_record(k12_12) is None  # 2α = 24 > 23
        assert hunt_record(path_graph(24)) is None  # 2α = 24 > 23
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
                    "family": fam.spec_string() if fam else None,
                    "expected_form": fam is not None
                    and fam.kind in ("mK2", "C5", "mK2+mC5"),
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
        assert len(calls) <= 304

    def test_alpha_exit_never_drops_a_satisfier(self, c3free_up_to_9,
                                                monkeypatch):
        # the exit fires where hunt_record decides an in-scope graph with
        # no scan; on each such graph Facts.equality must be False
        calls = []
        scan = characterizations.invariants
        monkeypatch.setattr(characterizations, "invariants",
                            lambda g: calls.append(g) or scan(g))
        scanned = 0
        for g in c3free_up_to_9:
            before = len(calls)
            if hunt_record(g) == {"skipped": "out_of_scope"}:
                continue
            if len(calls) > before:
                scanned += 1
            else:
                assert Facts(g).equality is False, encode_graph6(g)
        # 1,876 of the 1,896 in-scope graphs are decided from α alone
        assert scanned == 20

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

    def test_small_exhaustive_hunt_finds_no_exceptions(self):
        stream = nonisomorphic_graphs(6, predicate=triangle_free)
        report = hunt_c3free_counterexamples(stream)
        assert report.scanned == 66  # triangle-free classes, n = 0..6
        assert not report.exceptions
        assert not report.non_cactus_satisfiers
        # every satisfier is a disjoint union of edges and 5-cycles
        for rec in report.satisfiers:
            assert rec["family"] is not None
