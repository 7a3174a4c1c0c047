import dataclasses

import pytest

import oracles
from pairdom import characterizations, domination
from pairdom.graph import build_graph, encode_graph6
from pairdom.domination import IsolatedVertexError
from pairdom.families import (
    disjoint_union,
    make_cycle,
    make_k2,
    make_path,
    make_star,
    make_subdivided_star,
)
from pairdom.characterizations import (
    ALL_CHECK_IDS,
    Facts,
    STRUCTURAL_CHECKS,
    decide_equality_bruteforce,
    decide_equality_fastpath,
    hunt_c3free_counterexamples,
    hunt_record,
    run_checks,
)
from pairdom.generate import nonisomorphic_graphs, triangle_free
from pairdom.harness import RunConfig, run


def check(g, check_id):
    """The verdict of one registry check on g."""
    (verdict,) = run_checks(g, [check_id])
    return verdict


class TestDecideBruteforce:
    def test_examples(self):
        assert decide_equality_bruteforce(Facts(make_k2())).equality_holds
        assert decide_equality_bruteforce(Facts(make_cycle(5))).equality_holds
        assert not decide_equality_bruteforce(Facts(make_path(4))).equality_holds
        assert not decide_equality_bruteforce(Facts(make_cycle(4))).equality_holds

    def test_isolated_vertex_raises(self):
        with pytest.raises(IsolatedVertexError):
            decide_equality_bruteforce(Facts(build_graph(3, [(0, 1)])))

    def test_matches_oracle(self, graphs_up_to_5):
        for g in graphs_up_to_5:
            ug_pr = oracles.upper_gamma_pr(g)
            if g.n == 0 or ug_pr is None or any(
                g.degree(v) == 0 for v in range(g.n)
            ):
                continue
            expect = ug_pr == 2 * oracles.upper_gamma(g)
            assert decide_equality_bruteforce(Facts(g)).equality_holds == expect


class TestDecideFastpath:
    def test_applicable_classes(self):
        d = decide_equality_fastpath(Facts(make_cycle(5)))
        # C5 is both a triangle-free cactus and unicyclic; the first
        # applicable class in precedence order reports
        assert d is not None and d.equality_holds and d.method == "c3-free-cactus"
        d = decide_equality_fastpath(Facts(make_k2()))
        assert d is not None and d.equality_holds
        d = decide_equality_fastpath(Facts(make_path(4)))
        assert d is not None and not d.equality_holds
        d = decide_equality_fastpath(Facts(make_cycle(7)))
        assert d is not None and not d.equality_holds and d.method == "girth-at-least-6"

    def test_inapplicable_returns_none(self):
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        assert decide_equality_fastpath(Facts(k4)) is None
        # butterfly: has triangles, two cycles, not bipartite, not girth >= 6
        assert decide_equality_fastpath(Facts(make_subdivided_star(0, 2))) is None

    def test_agrees_with_bruteforce(self, graphs_up_to_6):
        checked = 0
        for g in graphs_up_to_6:
            if g.n == 0 or any(g.degree(v) == 0 for v in range(g.n)):
                continue
            facts = Facts(g)
            fast = decide_equality_fastpath(facts)
            if fast is None:
                continue
            checked += 1
            assert fast.equality_holds == decide_equality_bruteforce(
                facts
            ).equality_holds, facts.graph6
        assert checked >= 40

    def test_disagreement_is_a_failure(self, monkeypatch, tmp_path):
        c6 = make_cycle(6)
        facts = Facts(c6)
        table = characterizations.EQUALITY_CLASSES
        assert all(c.applies(facts) for c in table)
        wrong = dataclasses.replace(table[0], expected=lambda fam: True)
        monkeypatch.setattr(characterizations, "EQUALITY_CLASSES",
                            (wrong,) + table[1:])
        d = decide_equality_fastpath(facts)
        assert d.equality_holds is None and d.method == "disagreement"
        v = check(c6, "fastpath-matches-brute")
        assert v.status == "fails"
        assert v.witness == {
            "votes": {"girth-at-least-6": True, "c3-free-cactus": False,
                      "unicyclic": False, "bipartite": False},
            "brute": False,
        }
        path = tmp_path / "c6.g6"
        path.write_text(encode_graph6(c6) + "\n")
        for mode in ("both", "fastpath"):
            report, code = run(RunConfig("decide", str(path), mode=mode))
            assert code == 1
            (rec,) = report.results
            assert rec["agree"] is False
            assert rec["fastpath"]["equality_holds"] is None


class TestIndependentCore:
    def test_holds_on_equality_graphs(self):
        for g in (make_k2(), make_cycle(5), disjoint_union([make_k2()] * 2),
                  make_cycle(3), make_subdivided_star(2, 1)):
            v = check(g, "independent-core")
            assert v.status == "holds", v

    def test_na_when_equality_fails_or_undefined(self):
        assert check(make_path(4), "independent-core").status == "na"
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


class TestUnicyclicBound:
    def test_bound_values(self):
        assert check(make_cycle(6), "unicyclic-gamma-bound").status == "holds"
        assert check(make_cycle(5), "unicyclic-gamma-bound").status == "holds"

    def test_requires_unicyclic(self):
        assert check(make_path(4), "unicyclic-gamma-bound").status == "na"

    def test_all_small_unicyclic(self):
        for g in nonisomorphic_graphs(7):
            if not Facts(g).flags.unicyclic:
                continue
            assert check(g, "unicyclic-gamma-bound").status == "holds"


class TestStructuralChecks:
    def test_holds_on_c5_and_unions(self):
        for g in (make_cycle(5), disjoint_union([make_cycle(5)] * 2),
                  disjoint_union([make_k2(), make_cycle(5)])):
            for v in run_checks(g, STRUCTURAL_CHECKS):
                assert v.status == "holds", v

    def test_na_outside_scope(self):
        # C3 meets the equality but is not triangle-free
        for v in run_checks(make_cycle(3), STRUCTURAL_CHECKS):
            assert v.status == "na", v
        # P4 is a triangle-free cactus but fails the equality
        for v in run_checks(make_path(4), STRUCTURAL_CHECKS):
            assert v.status == "na", v

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            run_checks(make_cycle(5), ["no-such-check"])

    def test_never_fails_on_small_graphs(self, graphs_up_to_6):
        for g in graphs_up_to_6:
            verdicts = run_checks(g, STRUCTURAL_CHECKS)
            assert {v.status for v in verdicts} <= {"holds", "na"}
            if any(v.status == "holds" for v in verdicts):
                assert Facts(g).equality is True


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
            paired += not any(row == 0 for row in g.adj)
        assert calls == {"mds": len(graphs_up_to_5), "mpds": paired}


class TestHunt:
    def test_record_scope(self):
        assert hunt_record(make_cycle(3)) is None  # not triangle-free
        assert hunt_record(build_graph(2, [])) is None  # isolated vertices
        rec = hunt_record(make_path(4))
        assert rec == {"satisfier": False}
        rec = hunt_record(make_cycle(5))
        assert rec["satisfier"] and rec["expected_form"] and rec["cactus"]

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
