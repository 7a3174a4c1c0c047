"""Every check on one graph, and the deciders and hunt built on the same
facts.

``CHECKS`` is the one check registry: each entry maps a ``Facts`` to a
``Verdict``, holds, fails (with a counterexample witness), or na when the
graph misses the check's hypothesis. A check never raises for an unmet
hypothesis, and an na verdict is never silently treated as holds.
``EQUALITY_CLASSES`` is the one table of the four equality
characterizations; it gives both the ``equality-*`` checks and the fast
path of ``decide_equality_fastpath``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .domination import (
    InvariantReport,
    IsolatedVertexError,
    epn_pair,
    has_isolated_vertex,
    independence_number,
    invariants,
    is_minimal_dominating,
)
from .families import (
    ClassFlags,
    FamilyLabel,
    classify,
    every_block_edge_or_cycle,
    recognize_family,
)
from .graph import Graph, GraphError, bits_of, encode_graph6
from .matching import all_perfect_matchings, perfect_matching_tester


@dataclass(frozen=True)
class Decision:
    equality_holds: bool | None  # None when the fast paths disagree
    method: str  # "brute-force", a fast-path class name, or "disagreement"
    evidence: object = None  # InvariantReport (brute) or {class: vote} (fast)


@dataclass(frozen=True)
class Verdict:
    check_id: str
    graph6: str
    status: str  # "holds" | "fails" | "na"
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_record(self) -> dict:
        rec = {
            "check_id": self.check_id,
            "graph6": self.graph6,
            "holds": {"holds": True, "fails": False, "na": None}[self.status],
        }
        if self.witness is not None:
            rec["witness"] = self.witness
        return rec


def _verts(mask: int) -> list[int]:
    return list(bits_of(mask))


class Facts:
    """Lazily computed exact data for one graph, shared across checks."""

    def __init__(self, g: Graph):
        self.g = g
        self._matchings_cache: dict[int, list] = {}

    @cached_property
    def graph6(self) -> str:
        return encode_graph6(self.g)

    @cached_property
    def flags(self) -> ClassFlags:
        return classify(self.g)

    @cached_property
    def no_isolated(self) -> bool:
        return not has_isolated_vertex(self.g)

    @cached_property
    def family(self) -> FamilyLabel | None:
        return recognize_family(self.g)

    @cached_property
    def componentwise_c3free_cactus(self) -> bool:
        return self.flags.c3_free and every_block_edge_or_cycle(self.g)

    @cached_property
    def report(self) -> InvariantReport:
        return invariants(self.g)

    @cached_property
    def pm_test(self):
        return perfect_matching_tester(self.g)

    @cached_property
    def minimal_dominating_set_masks(self) -> frozenset:
        return frozenset(self.report.mds_masks)

    @cached_property
    def minimal_pds_masks(self) -> list[int]:
        return self.report.mpds_masks

    @cached_property
    def upper_pds_masks(self) -> list[int]:
        """All maximum-size minimal paired dominating sets, as masks."""
        target = self.report.upper_gamma_pr
        return [m for m in self.minimal_pds_masks if m.bit_count() == target]

    @cached_property
    def equality(self) -> bool | None:
        """Whether the upper paired bound is met with equality; None when
        paired domination is undefined."""
        r = self.report
        if r.upper_gamma_pr is None:
            return None
        return r.upper_gamma_pr == 2 * r.upper_gamma

    def matchings(self, mask: int):
        got = self._matchings_cache.get(mask)
        if got is None:
            got = all_perfect_matchings(self.g, mask)
            self._matchings_cache[mask] = got
        return got


def _paired(facts: Facts) -> bool:
    """A non-empty graph without isolated vertices, so Γ_pr is defined."""
    return facts.g.n > 0 and facts.no_isolated


def _spec(fam: FamilyLabel | None) -> str | None:
    return fam.spec_string() if fam else None


def _verdict(facts: Facts, check_id: str, ok: bool | None, witness=None) -> Verdict:
    """holds when ok, fails with the witness when not, na when ok is None."""
    if ok is None:
        return Verdict(check_id, facts.graph6, "na")
    if ok:
        return Verdict(check_id, facts.graph6, "holds")
    return Verdict(check_id, facts.graph6, "fails", witness or {})


# --- the equality characterizations ---------------------------------------


def _edges_and_5_cycles(fam: FamilyLabel | None) -> bool:
    """The equality family of triangle-free cacti, and the form the hunt
    expects of every triangle-free satisfier."""
    return fam is not None and fam.kind in ("mK2", "C5", "mK2+mC5")


@dataclass(frozen=True)
class EqualityClass:
    """A graph class on which Γ_pr = 2Γ holds exactly for one family.

    Called on a Facts, it is that theorem's check: na off the class or when
    Γ_pr is undefined, else the equality must match family membership."""

    check_id: str
    method: str  # the name the fast path reports
    applies: Callable[[Facts], bool]
    expected: Callable[[FamilyLabel | None], bool]

    def __call__(self, facts: Facts) -> Verdict:
        if not _paired(facts) or not self.applies(facts):
            return _verdict(facts, self.check_id, None)
        fam = facts.family
        return _verdict(
            facts, self.check_id, facts.equality == self.expected(fam),
            {"equality": facts.equality, "family": _spec(fam)},
        )


# In fast-path precedence order: the first class that applies names the
# method of a fast-path decision.
EQUALITY_CLASSES = (
    EqualityClass(
        "equality-girth6", "girth-at-least-6",
        lambda f: f.flags.girth >= 6,
        lambda fam: fam is not None and fam.kind == "mK2",
    ),
    EqualityClass(
        "equality-c3free-cactus", "c3-free-cactus",
        lambda f: f.componentwise_c3free_cactus,
        _edges_and_5_cycles,
    ),
    EqualityClass(
        "equality-unicyclic", "unicyclic",
        lambda f: f.flags.unicyclic,
        lambda fam: fam is not None and (
            fam.kind in ("C3", "C5") or (fam.kind == "star" and fam.params[1] == 1)
        ),
    ),
    EqualityClass(
        "equality-bipartite", "bipartite",
        lambda f: f.flags.connected and f.flags.bipartite,
        lambda fam: fam is not None and fam.kind == "mK2" and fam.params[0] == 1,
    ),
)


def decide_equality_bruteforce(facts: Facts) -> Decision:
    """Decide the equality by computing both invariants exactly."""
    if not facts.no_isolated:
        raise IsolatedVertexError("equality undefined: graph has an isolated vertex")
    return Decision(bool(facts.equality), "brute-force", facts.report)


def decide_equality_fastpath(facts: Facts) -> Decision | None:
    """Decide by family recognition alone when the graph lies in a
    characterized class; None when no characterization applies.

    The evidence holds each applicable class's vote. When the votes
    disagree, the decision's ``equality_holds`` is None and its method is
    "disagreement"."""
    if not _paired(facts):
        return None
    votes = {c.method: c.expected(facts.family)
             for c in EQUALITY_CLASSES if c.applies(facts)}
    if not votes:
        return None
    if len(set(votes.values())) > 1:
        return Decision(None, "disagreement", votes)
    method, verdict = next(iter(votes.items()))
    return Decision(verdict, method, votes)


# --- extremal values and bounds --------------------------------------------


def _check_gpr_equals_n(facts: Facts) -> Verdict:
    """The upper paired number equals the order exactly for disjoint
    unions of single edges."""
    cid = "gpr-equals-n"
    if not _paired(facts):
        return _verdict(facts, cid, None)
    hits = facts.report.upper_gamma_pr == facts.g.n
    is_mk2 = facts.family is not None and facts.family.kind == "mK2"
    return _verdict(
        facts, cid, hits == is_mk2,
        {"upper_gamma_pr": facts.report.upper_gamma_pr, "is_mk2": is_mk2},
    )


def _check_gpr_upper_bound(facts: Facts) -> Verdict:
    """Connected graphs of order at least 3 have upper paired number at
    most n - 1."""
    cid = "gpr-upper-bound"
    if facts.g.n < 3 or not facts.flags.connected:
        return _verdict(facts, cid, None)
    ok = facts.report.upper_gamma_pr <= facts.g.n - 1
    return _verdict(facts, cid, ok, {"upper_gamma_pr": facts.report.upper_gamma_pr})


def _check_gpr_equals_n_minus_1(facts: Facts) -> Verdict:
    """Upper paired number n - 1 characterizes the triangle, the 5-cycle,
    and the subdivided stars with attached triangles."""
    cid = "gpr-equals-n-minus-1"
    if facts.g.n < 3 or not facts.flags.connected:
        return _verdict(facts, cid, None)
    hits = facts.report.upper_gamma_pr == facts.g.n - 1
    fam = facts.family
    in_family = fam is not None and fam.kind in ("C3", "C5", "star")
    return _verdict(
        facts, cid, hits == in_family,
        {"upper_gamma_pr": facts.report.upper_gamma_pr, "family": _spec(fam)},
    )


def _check_gpr_at_most_2gamma(facts: Facts) -> Verdict:
    cid = "gpr-at-most-2gamma"
    if not _paired(facts):
        return _verdict(facts, cid, None)
    r = facts.report
    return _verdict(
        facts, cid, r.upper_gamma_pr <= 2 * r.upper_gamma,
        {"upper_gamma_pr": r.upper_gamma_pr, "upper_gamma": r.upper_gamma},
    )


def _check_gamma_ge_independence(facts: Facts) -> Verdict:
    alpha = independence_number(facts.g)
    return _verdict(
        facts, "gamma-ge-independence", facts.report.upper_gamma >= alpha,
        {"upper_gamma": facts.report.upper_gamma, "independence": alpha},
    )


def _check_unicyclic_gamma_bound(facts: Facts) -> Verdict:
    """Upper domination of a connected unicyclic graph is at least n/2
    (even n) or (n-1)/2 (odd n)."""
    cid = "unicyclic-gamma-bound"
    if not facts.flags.unicyclic:
        return _verdict(facts, cid, None)
    bound = facts.g.n // 2
    upper_gamma = facts.report.upper_gamma
    return _verdict(facts, cid, upper_gamma >= bound,
                    {"upper_gamma": upper_gamma, "bound": bound})


# --- private neighbors of minimal PDSs ---------------------------------------


def _check_pds_pair_removal_private(facts: Facts) -> Verdict:
    """If a minimal PDS stays dominating and matchable after removing a
    pair {u, v}, the pair keeps an external private neighbor."""
    cid = "pds-pair-removal-private"
    g = facts.g
    if g.n < 3 or not facts.flags.connected:
        return _verdict(facts, cid, None)
    pm = facts.pm_test
    for smask in facts.minimal_pds_masks:
        verts = _verts(smask)
        for u, v in combinations(verts, 2):
            rest = smask & ~((1 << u) | (1 << v))
            if not (g.adj[u] & rest and g.adj[v] & rest):
                continue
            if not pm(rest):
                continue
            if not epn_pair(g, u, v, smask):
                return _verdict(facts, cid, False, {"pds": verts, "pair": [u, v]})
    return _verdict(facts, cid, True)


def _check_pds_matched_pair_private(facts: Facts) -> Verdict:
    """A matched pair whose endpoints both have degree >= 2 inside the PDS
    keeps an external private neighbor."""
    cid = "pds-matched-pair-private"
    g = facts.g
    if g.n < 3 or not facts.flags.connected:
        return _verdict(facts, cid, None)
    for smask in facts.minimal_pds_masks:
        for matching in facts.matchings(smask):
            for u, v in matching.pairs:
                if (g.adj[u] & smask).bit_count() < 2:
                    continue
                if (g.adj[v] & smask).bit_count() < 2:
                    continue
                if not epn_pair(g, u, v, smask):
                    return _verdict(
                        facts, cid, False,
                        {"pds": _verts(smask),
                         "matching": list(matching.pairs), "pair": [u, v]},
                    )
    return _verdict(facts, cid, True)


def _check_pds_contains_half_mds(facts: Facts) -> Verdict:
    """Every minimal PDS contains a minimal dominating set of at least
    half its size."""
    cid = "pds-contains-half-mds"
    if not _paired(facts):
        return _verdict(facts, cid, None)
    mds = facts.minimal_dominating_set_masks
    for pmask in facts.minimal_pds_masks:
        half = pmask.bit_count() / 2
        sub = pmask
        while sub:
            if sub.bit_count() >= half and sub in mds:
                break
            sub = (sub - 1) & pmask
        else:
            return _verdict(facts, cid, False, {"pds": _verts(pmask)})
    return _verdict(facts, cid, True)


def _check_fastpath_matches_brute(facts: Facts) -> Verdict:
    """The class fast paths agree with each other and with brute force."""
    cid = "fastpath-matches-brute"
    fast = decide_equality_fastpath(facts)
    if fast is None:
        return _verdict(facts, cid, None)
    brute = decide_equality_bruteforce(facts)
    return _verdict(
        facts, cid, fast.equality_holds == brute.equality_holds,
        {"votes": fast.evidence, "brute": brute.equality_holds},
    )


# --- structure of equality graphs ---------------------------------------------


def _check_independent_core(facts: Facts) -> Verdict:
    """Every maximum minimal PDS contains an independent minimal dominating
    set of maximum size."""
    cid = "independent-core"
    if not facts.no_isolated or facts.equality is not True:
        return _verdict(facts, cid, None)
    g = facts.g
    target = facts.report.upper_gamma
    for pmask in facts.upper_pds_masks:
        subsets = (sum(1 << v for v in sub)
                   for sub in combinations(_verts(pmask), target))
        if not any(all(g.adj[v] & smask == 0 for v in bits_of(smask))
                   and is_minimal_dominating(g, smask) for smask in subsets):
            return _verdict(facts, cid, False,
                            {"pds": _verts(pmask), "needed_size": target})
    return _verdict(facts, cid, True)


@dataclass(frozen=True)
class StructuralLemma:
    """A property of every maximum minimal PDS P of a graph whose
    components are triangle-free cacti and which meets the equality; for
    a lemma about matched pairs, of every perfect matching of G[P] too.

    ``violation(g, P, V - P, matching)`` returns the first violating
    configuration as a witness, or None. Called on a Facts, the lemma is
    its check."""

    check_id: str
    violation: Callable
    per_matching: bool = False

    def __call__(self, facts: Facts) -> Verdict:
        if not (facts.no_isolated and facts.componentwise_c3free_cactus
                and facts.equality is True):
            return _verdict(facts, self.check_id, None)
        g = facts.g
        for pmask in facts.upper_pds_masks:
            outside = g.full_mask & ~pmask
            matchings = facts.matchings(pmask) if self.per_matching else [None]
            for matching in matchings:
                witness = self.violation(g, pmask, outside, matching)
                if witness is not None:
                    return _verdict(facts, self.check_id, False,
                                    {"pds": _verts(pmask), **witness})
        return _verdict(facts, self.check_id, True)


def _pair_without_leaf(g, pmask, outside, matching):
    for a, b in matching.pairs:
        if (g.adj[a] & pmask).bit_count() > 1 and (g.adj[b] & pmask).bit_count() > 1:
            return {"matching": list(matching.pairs), "pair": [a, b]}
    return None


def _outside_without_two_neighbors(g, pmask, outside, matching):
    for x in bits_of(outside):
        if (g.adj[x] & pmask).bit_count() != 2:
            return {"vertex": x, "neighbors_in_pds": _verts(g.adj[x] & pmask)}
    return None


def _outside_partners_apart(g, pmask, outside, matching):
    partner = {}
    for a, b in matching.pairs:
        partner[a], partner[b] = b, a
    for x in bits_of(outside):
        nbrs = _verts(g.adj[x] & pmask)
        if len(nbrs) != 2:
            return {"vertex": x, "neighbors_in_pds": nbrs}
        p1, p2 = partner[nbrs[0]], partner[nbrs[1]]
        if not g.has_edge(p1, p2):
            return {"matching": list(matching.pairs), "vertex": x,
                    "partners": [p1, p2]}
    return None


def _outside_common_neighbor(g, pmask, outside, matching):
    for x1, x2 in combinations(_verts(outside), 2):
        common = g.adj[x1] & g.adj[x2] & pmask
        if common:
            return {"pair": [x1, x2], "common": _verts(common)}
    return None


def _pds_degree_above_two(g, pmask, outside, matching):
    for v in bits_of(pmask):
        degree = (g.adj[v] & pmask).bit_count()
        if degree > 2:
            return {"vertex": v, "degree": degree}
    return None


def _pair_with_two_outside_contacts(g, pmask, outside, matching):
    for a, b in matching.pairs:
        if g.adj[a] & outside and g.adj[b] & outside:
            return {"matching": list(matching.pairs), "pair": [a, b]}
    return None


def _outside_edge(g, pmask, outside, matching):
    for x in bits_of(outside):
        bad = g.adj[x] & outside
        if bad:
            return {"pair": [x, _verts(bad)[0]]}
    return None


STRUCTURAL_LEMMAS = (
    # every matched pair has an endpoint of degree one in G[P]
    StructuralLemma("pair-has-leaf", _pair_without_leaf, per_matching=True),
    # every vertex outside P has exactly two neighbors in P
    StructuralLemma("outside-two-neighbors", _outside_without_two_neighbors),
    # the partners of an outside vertex's two P-neighbors are adjacent
    StructuralLemma("outside-partners-adjacent", _outside_partners_apart,
                    per_matching=True),
    # no two vertices outside P share a neighbor in P
    StructuralLemma("outside-no-common-neighbor", _outside_common_neighbor),
    # G[P] has maximum degree at most two
    StructuralLemma("pds-max-degree-two", _pds_degree_above_two),
    # at most one endpoint of a matched pair has a neighbor outside P
    StructuralLemma("pair-one-outside-contact", _pair_with_two_outside_contacts,
                    per_matching=True),
    # the vertices outside P are pairwise non-adjacent
    StructuralLemma("outside-set-independent", _outside_edge),
)
STRUCTURAL_CHECKS = tuple(lemma.check_id for lemma in STRUCTURAL_LEMMAS)


# --- the registry ---------------------------------------------------------------

_EQUALITY = {c.check_id: c for c in EQUALITY_CLASSES}

CHECKS: dict[str, Callable[[Facts], Verdict]] = {
    "gpr-equals-n": _check_gpr_equals_n,
    "gpr-upper-bound": _check_gpr_upper_bound,
    "gpr-equals-n-minus-1": _check_gpr_equals_n_minus_1,
    "gpr-at-most-2gamma": _check_gpr_at_most_2gamma,
    "gamma-ge-independence": _check_gamma_ge_independence,
    "pds-pair-removal-private": _check_pds_pair_removal_private,
    "pds-matched-pair-private": _check_pds_matched_pair_private,
    "pds-contains-half-mds": _check_pds_contains_half_mds,
    "unicyclic-gamma-bound": _check_unicyclic_gamma_bound,
    "independent-core": _check_independent_core,
    "equality-bipartite": _EQUALITY["equality-bipartite"],
    "equality-unicyclic": _EQUALITY["equality-unicyclic"],
    "equality-girth6": _EQUALITY["equality-girth6"],
    "equality-c3free-cactus": _EQUALITY["equality-c3free-cactus"],
    "fastpath-matches-brute": _check_fastpath_matches_brute,
    **{lemma.check_id: lemma for lemma in STRUCTURAL_LEMMAS},
}

ALL_CHECK_IDS = tuple(CHECKS)


def run_checks(g: Graph, check_ids) -> list[Verdict]:
    """Run the selected checks on one graph, sharing one Facts. A graph too
    large for the exact scans gets na verdicts that name the skip."""
    facts = Facts(g)
    out = []
    for cid in check_ids:
        try:
            out.append(CHECKS[cid](facts))
        except GraphError as exc:
            out.append(Verdict(cid, facts.graph6, "na", {"skipped": str(exc)}))
    return out


# --- open-question hunt ---------------------------------------------------


@dataclass
class HuntReport:
    """Outcome of a counterexample hunt over a stream of graphs.

    Satisfiers are triangle-free graphs without isolated vertices meeting
    the equality; exceptions are satisfiers that are not disjoint unions of
    edges and 5-cycles. The report only collects evidence; it never claims
    the open question is settled.
    """

    scanned: int = 0
    skipped: int = 0
    satisfiers: list = field(default_factory=list)
    exceptions: list = field(default_factory=list)

    @property
    def non_cactus_satisfiers(self) -> list:
        return [s for s in self.satisfiers if not s["cactus"]]

    def add(self, rec: dict | None) -> bool:
        """Count one scanned graph from its ``hunt_scan`` record; True when
        it is an exception."""
        self.scanned += 1
        if rec is None:
            self.skipped += 1
            return False
        if not rec.pop("satisfier"):
            return False
        self.satisfiers.append(rec)
        if rec["expected_form"]:
            return False
        self.exceptions.append(rec)
        return True

    def to_record(self) -> dict:
        return {
            "scanned": self.scanned,
            "skipped": self.skipped,
            "satisfier_count": len(self.satisfiers),
            "exception_count": len(self.exceptions),
            "satisfiers": self.satisfiers,
            "exceptions": self.exceptions,
            "non_cactus_satisfiers": self.non_cactus_satisfiers,
        }


def hunt_record(g: Graph) -> dict | None:
    """Classify one graph for the hunt; None when it is out of scope."""
    facts = Facts(g)
    if not _paired(facts) or not facts.flags.c3_free:
        return None
    if facts.equality is not True:
        return {"satisfier": False}
    fam = facts.family
    return {
        "satisfier": True,
        "graph6": facts.graph6,
        "family": _spec(fam),
        "expected_form": _edges_and_5_cycles(fam),
        "cactus": facts.componentwise_c3free_cactus,
    }


def hunt_scan(g: Graph) -> dict | None:
    """``hunt_record``, or None (skipped) for a graph too large or
    malformed for the exact scans."""
    try:
        return hunt_record(g)
    except GraphError:
        return None


def hunt_c3free_counterexamples(stream) -> HuntReport:
    """Scan a stream of graphs for triangle-free equality satisfiers that
    are not disjoint unions of edges and 5-cycles."""
    report = HuntReport()
    for g in stream:
        report.add(hunt_scan(g))
    return report
