"""Acceptance gate: eight end-to-end criteria, each reported as a single
[PASS]/[FAIL] line in the terminal summary.

The exhaustive sweeps run over every graph up to isomorphism on n <= 8
vertices, plus restricted n = 9 streams (unicyclic, girth >= 6,
triangle-free cactus, triangle-free) produced by the hereditary-predicate
generator."""

import itertools
import time
from collections import defaultdict

import pytest

import conftest
import oracles
from pairdom.graph import encode_graph6, girth, is_connected
from pairdom.families import (
    disjoint_union,
    every_block_edge_or_cycle,
    make_cycle,
    make_k2,
    make_subdivided_star,
)
from pairdom.domination import (
    has_isolated_vertex,
    invariants,
    is_minimal_dominating,
)
from pairdom.matching import all_perfect_matchings, perfect_matching_tester
from pairdom.characterizations import (
    STRUCTURAL_LEMMAS,
    hunt_c3free_counterexamples,
)
from pairdom.generate import (
    at_most_one_cycle_per_component,
    nonisomorphic_graphs,
    triangle_free,
)
from pairdom.harness import ALL_CHECK_IDS, RunConfig, run, run_checks

STRUCTURAL_IDS = tuple(lemma.check_id for lemma in STRUCTURAL_LEMMAS)


def _record(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    conftest.acceptance_lines.append(line)
    assert ok, line


def _sweep(graphs, check_ids=ALL_CHECK_IDS):
    """Run registry checks over a stream; return (scanned, failures by
    check id)."""
    failures = defaultdict(list)
    scanned = 0
    for g in graphs:
        scanned += 1
        for v in run_checks(g, check_ids):
            if v.status == "fails":
                failures[v.check_id].append((v.check_id, v.graph6, v.witness))
    return scanned, failures


def _failures_of(failures, check_ids):
    return [f for cid in check_ids for f in failures[cid]]


@pytest.fixture(scope="module")
def sweep_8(graphs_up_to_8):
    """Every registry check over every graph with n <= 8, once."""
    return _sweep(graphs_up_to_8)


@pytest.fixture(scope="module")
def sweep_c3free_cactus_9():
    """Every registry check over the triangle-free cacti with n = 9, once."""
    return _sweep(nonisomorphic_graphs(
        9,
        predicate=lambda g: triangle_free(g) and every_block_edge_or_cycle(g),
        min_n=9,
    ))


def test_criterion_1_closed_forms():
    start = time.monotonic()
    bad = []

    def expect(g, name, ug, ugpr):
        r = invariants(g)
        if (r.upper_gamma, r.upper_gamma_pr) != (ug, ugpr):
            bad.append((name, r.upper_gamma, r.upper_gamma_pr, ug, ugpr))

    expect(make_cycle(3), "C3", 1, 2)
    expect(make_cycle(5), "C5", 2, 4)
    for m in range(1, 5):
        expect(disjoint_union([make_k2()] * m), f"mK2:{m}", m, 2 * m)
    for t in range(1, 5):
        expect(make_subdivided_star(t, 1), f"star:t={t},d=1", t + 1, 2 * (t + 1))
    elapsed = time.monotonic() - start
    _record(
        "criterion-1 closed forms",
        not bad and elapsed < 10.0,
        f"10 named graphs match Γ/Γ_pr closed forms in {elapsed:.2f}s"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_2_extremal_characterizations(sweep_8):
    checks = ("gpr-equals-n", "gpr-upper-bound", "gpr-equals-n-minus-1")
    scanned, by_check = sweep_8
    failures = _failures_of(by_check, checks)
    _record(
        "criterion-2 Γ_pr = n and Γ_pr = n−1 characterizations",
        not failures,
        f"{scanned} graphs (n ≤ 8), zero failures on {', '.join(checks)}"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )


def test_criterion_3_double_bound(sweep_8):
    scanned, by_check = sweep_8
    failures = by_check["gpr-at-most-2gamma"]
    _record(
        "criterion-3 Γ_pr ≤ 2Γ",
        not failures,
        f"{scanned} graphs (n ≤ 8), zero failures"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )


def test_criterion_4_equality_theorems(sweep_8, sweep_c3free_cactus_9,
                                       girth6_up_to_9):
    checks = (
        "equality-bipartite",
        "equality-unicyclic",
        "equality-girth6",
        "equality-c3free-cactus",
        "unicyclic-gamma-bound",
    )
    scanned, by_check = sweep_8
    failures = _failures_of(by_check, checks)

    uni9 = [
        g
        for g in nonisomorphic_graphs(
            9, predicate=at_most_one_cycle_per_component, min_n=9
        )
        if is_connected(g) and g.edge_count == g.n
    ]
    uni_checks = ("equality-unicyclic", "unicyclic-gamma-bound")
    s2, f2 = _sweep(uni9, uni_checks)
    g69 = [g for g in girth6_up_to_9 if g.n == 9]
    s3, f3 = _sweep(g69, ("equality-girth6",))
    s4, f4 = sweep_c3free_cactus_9
    failures += (_failures_of(f2, uni_checks) + f3["equality-girth6"]
                 + f4["equality-c3free-cactus"])
    _record(
        "criterion-4 equality theorems (bipartite/unicyclic/girth≥6/cactus)",
        not failures,
        f"{scanned} graphs n ≤ 8 + {s2} unicyclic, {s3} girth≥6, "
        f"{s4} triangle-free cactus at n = 9; zero failures both directions"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )


def test_criterion_5_structural_lemmas(sweep_8, sweep_c3free_cactus_9):
    checks = ("independent-core",) + STRUCTURAL_IDS
    scanned, f1 = sweep_8
    s2, f2 = sweep_c3free_cactus_9
    failures = _failures_of(f1, checks) + _failures_of(f2, checks)
    _record(
        "criterion-5 structural properties of equality graphs",
        not failures,
        f"independent core + {len(STRUCTURAL_IDS)} structural checks over "
        f"{scanned} graphs n ≤ 8 and {s2} triangle-free cacti n = 9; zero failures"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )


def test_criterion_6_oracle_equivalences(sweep_8):
    mismatches = []
    small = [g for g in nonisomorphic_graphs(6)]
    # minimality criterion vs the literal no-dominating-proper-subset test
    for g in small:
        for mask in range(1 << g.n):
            S = {v for v in range(g.n) if (mask >> v) & 1}
            lib = is_minimal_dominating(g, mask)
            literal = oracles.dominates(g, S) and not any(
                oracles.dominates(g, S - {v}) for v in S
            )
            if lib != literal:
                mismatches.append(("minimal-dominating", encode_graph6(g), sorted(S)))
    # perfect-matching decision vs exhaustive matching enumeration
    for g in small:
        pm = perfect_matching_tester(g)
        for r in range(0, g.n + 1, 2):
            for S in itertools.combinations(range(g.n), r):
                mask = sum(1 << v for v in S)
                if pm(mask) != bool(all_perfect_matchings(g, S)):
                    mismatches.append(("matching", encode_graph6(g), list(S)))
    # fast-path equality decision vs brute force, whole n <= 8 universe
    scanned, by_check = sweep_8
    mismatches += by_check["fastpath-matches-brute"]
    _record(
        "criterion-6 independent-oracle equivalences",
        not mismatches,
        f"minimality and matching deciders agree with literal oracles on all "
        f"subsets of {len(small)} graphs n ≤ 6; fast path agrees with brute "
        f"force on {scanned} graphs n ≤ 8"
        + (f"; mismatches: {mismatches[:5]}" if mismatches else ""),
    )


def test_criterion_7_triangle_free_hunt(c3free_up_to_9):
    report = hunt_c3free_counterexamples(c3free_up_to_9)
    cactus_bad = [
        s for s in report.satisfiers if s["cactus"] and not s["expected_form"]
    ]
    non_cactus = report.non_cactus_satisfiers
    detail = (
        f"{report.scanned} triangle-free graphs n ≤ 9 scanned, "
        f"{len(report.satisfiers)} equality satisfiers; every cactus satisfier "
        f"is a union of edges and 5-cycles"
    )
    if non_cactus:
        detail += "; non-cactus satisfiers: " + ", ".join(
            s["graph6"] for s in non_cactus
        )
    else:
        detail += "; no non-cactus satisfier found"
    _record(
        "criterion-7 triangle-free counterexample hunt",
        not cactus_bad,
        detail + (f"; cactus violations: {cactus_bad[:5]}" if cactus_bad else ""),
    )


def test_criterion_8_determinism_across_workers():
    reports = []
    for jobs in (1, 4):
        report, code = conftest.call_bounded(
            run, RunConfig(command="verify", source="enum:6", jobs=jobs))
        assert code == 0
        rec = report.to_record()
        rec["config"].pop("jobs")
        rec.pop("elapsed_ms")
        reports.append(rec)
    hunts = []
    for jobs in (1, 3):
        report, code = conftest.call_bounded(
            run, RunConfig(command="hunt", source="enum:6", jobs=jobs))
        assert code == 0
        rec = report.to_record()
        rec["config"].pop("jobs")
        rec.pop("elapsed_ms")
        hunts.append(rec)
    ok = reports[0] == reports[1] and hunts[0] == hunts[1]
    _record(
        "criterion-8 determinism across worker counts",
        ok,
        "verify and hunt reports identical for 1 vs 4 (resp. 3) worker processes",
    )
