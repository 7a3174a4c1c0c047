"""Every record built on one graph's ``Facts``, in the one module that
reads them and catches ``GuardError``: the verdicts of the checks, the hunt
record and the invariants record.

``CHECKS`` is the one check registry. Each entry is a ``Check`` row: a
hypothesis ``applies(facts)`` and a ``violation(facts)`` that returns a
counterexample witness or None. Called on a ``Facts``, it gives a
``Verdict`` whose status is na when the graph misses the hypothesis, holds
when there is no violation, and fails (with the witness) otherwise. A
fourth status, skipped, is set only by ``run_checks``, when a guard stops
a check on a graph too large for the exact scans. A check never raises for
an unmet hypothesis, and an na verdict is never silently treated as holds.
``EQUALITY_CLASSES`` is the one table of the four equality
characterizations. It gives the fast path, ``Facts.votes``, and each
``equality-*`` check reads its class's vote there, so a theorem is
evaluated once per graph. ``Facts.equality`` is the one brute-force answer,
from both exact scans.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .domination import (
    GuardError,
    InvariantReport,
    independence_number,
    invariants,
    lacking_half_mds,
    paired_domination_defined,
    sets_of_size,
)
from .families import (
    ClassFlags,
    classify,
    every_block_edge_or_cycle,
    recognize_family,
)
from .generate import triangle_free
from .graph import INFINITE, Graph, bits_of, encode_graph6
from .matching import all_perfect_matchings, perfect_matching_tester


class Verdict(NamedTuple):
    """One check's outcome on one graph. ``graph6`` names the graph on the
    verdicts that become records, fails and skipped, and is None on holds
    and na, so that a graph no check fails on is never encoded."""

    check_id: str
    graph6: str | None
    status: str  # "holds" | "fails" | "na" | "skipped"
    witness: dict | None = None

    def to_record(self) -> dict:
        rec = {
            "check_id": self.check_id,
            "graph6": self.graph6,
            "holds": {"holds": True, "fails": False}.get(self.status),
        }
        if self.witness is not None:
            rec["witness"] = self.witness
        return rec


def _verts(mask: int) -> list[int]:
    return list(bits_of(mask))


class _field(cached_property):
    """``cached_property`` without the lock Python 3.11 takes on each first
    access, as a Facts is never shared between threads: the value goes into
    the instance ``__dict__``, which then shadows this non-data descriptor."""

    def __get__(self, facts, owner=None):
        if facts is None:
            return self
        value = facts.__dict__[self.attrname] = self.func(facts)
        return value


class Facts:
    """Lazily computed exact data for one graph, shared across checks."""

    def __init__(self, g: Graph):
        self.g = g

    @_field
    def graph6(self) -> str:
        return encode_graph6(self.g)

    @_field
    def paired(self) -> bool:
        return paired_domination_defined(self.g)

    @_field
    def alpha(self) -> int:
        return independence_number(self.g)

    @_field
    def flags(self) -> ClassFlags:
        return classify(self.g)

    @_field
    def family(self) -> str | None:
        """The family's spec, or None outside every family."""
        return recognize_family(self.g)

    @_field
    def componentwise_c3free_cactus(self) -> bool:
        """Triangle-free with every block an edge or a cycle; for a
        connected graph that is ``flags.cactus``, already scanned."""
        flags = self.flags
        return flags.c3_free and (
            flags.cactus if flags.connected else every_block_edge_or_cycle(self.g))

    @_field
    def report(self) -> InvariantReport:
        return invariants(self.g)

    @_field
    def pairs_without_epn(self) -> list[tuple[int, int, int]]:
        """Each (S, u, v), S a minimal PDS as a mask and u < v in S, that
        meets the private-pair lemmas' hypothesis (u and v each keep a
        neighbor in S - {u, v}, and G[S - {u, v}] has a perfect matching;
        with u ~ v, the pairs of the perfect matchings of G[S] whose ends
        both have degree >= 2 in G[S]) and has epn(u, v; S) empty, in mask
        then pair order: empty when both lemmas hold.

        w outside S is in epn(u, v; S) iff seen = N(w) & S is non-empty and
        inside {u, v}: one S-neighbor x covers every pair through x (x joins
        ``singles``), two cover just that pair, and only the other pairs get
        the hypothesis tests. Adjacency and the matching tester alone are
        read, never the subset bitmaps: a cross-check of the minimality
        filter.

        S must dominate, as every set the scans give does (and the oracle
        test feeds PDSs only). Then a pair meets the hypothesis and has an
        empty epn iff R = S - {u, v} is a PDS: the hypothesis dominates u
        and v, an empty epn means each vertex outside S has a neighbor in
        R, R's vertices dominate themselves, and G[R] is matchable; and a
        PDS R gives both back. So a 2-set flags nothing (R is empty), and a
        4-set flags S - e for each dominating edge e inside it (an edge u v
        with N(u) | N(v) = V), listed once per graph in pair order; the
        pairs of a 4-set, complemented, come in reverse order. Larger sets
        are walked as above."""
        adj = self.g.adj
        full = self.g.full_mask
        pm_test = perfect_matching_tester(self.g)
        dominating_edges = [1 << u | 1 << v for u, row in enumerate(adj)
                            for v in bits_of(row) if u < v and row | adj[v] == full]
        out = []
        for smask in self.report.mpds_masks:
            size = smask.bit_count()
            if size <= 4:
                if size == 4 and dominating_edges:
                    out += [(smask, *bits_of(smask ^ e))
                            for e in reversed(dominating_edges) if e & smask == e]
                continue
            singles = 0
            seen_sets = []
            for w in bits_of(full & ~smask):
                seen = adj[w] & smask
                if seen & (seen - 1):
                    seen_sets.append(seen)
                else:
                    singles |= seen
            for u, v in combinations(bits_of(smask & ~singles), 2):
                pair = (1 << u) | (1 << v)
                rest = smask ^ pair
                if (adj[u] & rest and adj[v] & rest and pair not in seen_sets
                        and pm_test(rest)):
                    out.append((smask, u, v))
        return out

    @_field
    def upper_pds_masks(self) -> list[int]:
        """All maximum-size minimal paired dominating sets, as masks."""
        return list(sets_of_size(self.report.mpds_masks, self.g.n,
                                 self.report.upper_gamma_pr))

    @_field
    def equality(self) -> bool | None:
        """Whether the upper paired bound is met with equality, by brute
        force; None when paired domination is undefined (``_paired``
        fails)."""
        if not _paired(self):
            return None
        r = self.report
        return r.upper_gamma_pr == 2 * r.upper_gamma

    @_field
    def votes(self) -> dict[str, bool]:
        """The fast path: each applicable class's vote on the equality, from
        family recognition alone, keyed by its method in precedence order.
        Empty when Γ_pr is undefined or no characterization applies."""
        if not self.paired:
            return {}
        return {c.method: c.expected(self.family)
                for c in EQUALITY_CLASSES if c.applies(self)}

    def matchings(self, mask: int):
        return all_perfect_matchings(self.g, mask)


# --- the check row and its shared hypotheses ---------------------------------


class Check:
    """One registry check: a hypothesis and the statement it implies.

    Called on a Facts, it is na when ``applies`` is false; otherwise it
    holds when ``violation`` returns None, and fails with the returned
    dict as the counterexample witness. The na and holds verdicts carry no
    graph, so each row builds them once and returns them on every graph."""

    def __init__(self, check_id: str, applies: Callable[[Facts], bool],
                 violation: Callable[[Facts], dict | None]):
        self.check_id, self.applies, self.violation = check_id, applies, violation
        self.na = Verdict(check_id, None, "na")
        self.holds = Verdict(check_id, None, "holds")

    def __call__(self, facts: Facts) -> Verdict:
        if not self.applies(facts):
            return self.na
        witness = self.violation(facts)
        if witness is None:
            return self.holds
        return Verdict(self.check_id, facts.graph6, "fails", witness)


def _paired(facts: Facts) -> bool:
    """A non-empty graph without isolated vertices, so Γ_pr is defined."""
    return facts.paired


def _connected_order_3(facts: Facts) -> bool:
    return facts.g.n >= 3 and facts.flags.connected


def _equality_met(facts: Facts) -> bool:
    return facts.equality is True


def _structural_scope(facts: Facts) -> bool:
    """Components are triangle-free cacti and the equality is met."""
    return facts.componentwise_c3free_cactus and facts.equality is True


# --- the equality characterizations ---------------------------------------


def _is_mk2(fam: str | None) -> bool:
    return fam is not None and fam.startswith("mK2:")


def _edges_and_5_cycles(fam: str | None) -> bool:
    """The equality family of triangle-free cacti, and the form the hunt
    expects of every triangle-free satisfier."""
    return fam is not None and (fam == "C5" or fam.startswith(("mK2:", "union:")))


@dataclass(frozen=True)
class EqualityClass:
    """A graph class on which Γ_pr = 2Γ holds exactly for one family."""

    method: str  # the key of this class's vote in ``Facts.votes``
    applies: Callable[[Facts], bool]
    expected: Callable[[str | None], bool]


# In precedence order, which orders the keys of ``Facts.votes``.
EQUALITY_CLASSES = (
    EqualityClass("girth-at-least-6", lambda f: f.flags.girth >= 6, _is_mk2),
    EqualityClass("c3-free-cactus", lambda f: f.componentwise_c3free_cactus,
                  _edges_and_5_cycles),
    EqualityClass(
        "unicyclic", lambda f: f.flags.unicyclic,
        lambda fam: fam in ("C3", "C5") or (
            fam is not None and fam.startswith("star:") and fam.endswith(",d=1")),
    ),
    EqualityClass("bipartite", lambda f: f.flags.connected and f.flags.bipartite,
                  lambda fam: fam == "mK2:1"),
)


def _equality_check(check_id: str, method: str) -> Check:
    """The theorem's check: where Γ_pr is defined and the class applies,
    so that the class votes, the vote must be the equality."""

    def mismatch(facts: Facts) -> dict | None:
        if facts.votes[method] == facts.equality:
            return None
        return {"equality": facts.equality, "family": facts.family}

    return Check(check_id, lambda f: method in f.votes, mismatch)


# --- violations: each returns a counterexample witness, or None ---------------


def _gpr_equals_n(facts: Facts) -> dict | None:
    """Γ_pr = n iff G is mK2, when G has no isolated vertex. If V is a
    minimal PDS with perfect matching M, and xy is an edge outside M, then
    V - {x', y'} is a smaller PDS, for x', y' the M-partners of x and y."""
    upper_gamma_pr = facts.report.upper_gamma_pr
    is_mk2 = _is_mk2(facts.family)
    if (upper_gamma_pr == facts.g.n) == is_mk2:
        return None
    return {"upper_gamma_pr": upper_gamma_pr, "is_mk2": is_mk2}


def _gpr_upper_bound(facts: Facts) -> dict | None:
    """Connected graphs of order at least 3 have upper paired number at
    most n - 1: the connected n >= 3 case of ``_gpr_equals_n``."""
    upper_gamma_pr = facts.report.upper_gamma_pr
    if upper_gamma_pr <= facts.g.n - 1:
        return None
    return {"upper_gamma_pr": upper_gamma_pr}


def _gpr_equals_n_minus_1(facts: Facts) -> dict | None:
    """Upper paired number n - 1 characterizes the triangle, the 5-cycle,
    and the subdivided stars with attached triangles. No fast path reads
    this check, and its source is still unconfirmed."""
    upper_gamma_pr = facts.report.upper_gamma_pr
    fam = facts.family
    in_family = fam in ("C3", "C5") or (fam is not None and fam.startswith("star:"))
    if (upper_gamma_pr == facts.g.n - 1) == in_family:
        return None
    return {"upper_gamma_pr": upper_gamma_pr, "family": fam}


def _gpr_at_most_2gamma(facts: Facts) -> dict | None:
    r = facts.report
    if r.upper_gamma_pr <= 2 * r.upper_gamma:
        return None
    return {"upper_gamma_pr": r.upper_gamma_pr, "upper_gamma": r.upper_gamma}


def _gamma_ge_independence(facts: Facts) -> dict | None:
    if facts.report.upper_gamma >= facts.alpha:
        return None
    return {"upper_gamma": facts.report.upper_gamma, "independence": facts.alpha}


def _unicyclic_gamma_bound(facts: Facts) -> dict | None:
    """Upper domination of a connected unicyclic graph is at least n/2
    (even n) or (n-1)/2 (odd n)."""
    bound = facts.g.n // 2
    upper_gamma = facts.report.upper_gamma
    if upper_gamma >= bound:
        return None
    return {"upper_gamma": upper_gamma, "bound": bound}


def _private_pair(adjacent_only: bool):
    """Every pair that meets the hypothesis keeps an external private
    neighbor (``Facts.pairs_without_epn`` is empty): over all pairs, the
    pair-removal lemma; over adjacent pairs, the matched-pair lemma."""

    def violation(facts: Facts) -> dict | None:
        for smask, u, v in facts.pairs_without_epn:
            if not adjacent_only or facts.g.has_edge(u, v):
                return {"pds": _verts(smask), "pair": [u, v]}
        return None

    return violation


def _pds_contains_half_mds(facts: Facts) -> dict | None:
    """Every minimal PDS contains a minimal dominating set of at least
    half its size: on the two subset bitmaps, the first in mask order of
    those that do not (``lacking_half_mds``)."""
    r = facts.report
    bad = lacking_half_mds(facts.g.n, r.mds_masks, r.mpds_masks)
    if not bad:
        return None
    return {"pds": _verts((bad & -bad).bit_length() - 1)}


def _fastpath_matches_brute(facts: Facts) -> dict | None:
    """The class fast paths agree with each other and with brute force."""
    if set(facts.votes.values()) == {facts.equality}:
        return None
    return {"votes": facts.votes, "brute": facts.equality}


# --- structure of equality graphs ---------------------------------------------


def _independent_core(facts: Facts) -> dict | None:
    """Every maximum minimal PDS contains an independent minimal dominating
    set of maximum size."""
    g = facts.g
    target = facts.report.upper_gamma
    cores = [d for d in sets_of_size(facts.report.mds_masks, g.n, target)
             if all(g.adj[v] & d == 0 for v in bits_of(d))]
    for pmask in facts.upper_pds_masks:
        if not any(d & ~pmask == 0 for d in cores):
            return {"pds": _verts(pmask), "needed_size": target}
    return None


def _over_upper_pds(lemma: Callable, per_matching: bool):
    """The violation of a property of every maximum minimal PDS P; for a
    lemma about matched pairs, of every perfect matching of G[P] too.

    ``lemma(g, P, V - P, matching)`` returns the first violating
    configuration as a witness, or None."""

    def violation(facts: Facts) -> dict | None:
        g = facts.g
        for pmask in facts.upper_pds_masks:
            outside = g.full_mask & ~pmask
            matchings = facts.matchings(pmask) if per_matching else [None]
            for matching in matchings:
                witness = lemma(g, pmask, outside, matching)
                if witness is not None:
                    return {"pds": _verts(pmask), **witness}
        return None

    return violation


def _pair_without_leaf(g, pmask, outside, matching):
    for a, b in matching:
        if (g.adj[a] & pmask).bit_count() > 1 and (g.adj[b] & pmask).bit_count() > 1:
            return {"matching": list(matching), "pair": [a, b]}
    return None


def _outside_without_two_neighbors(g, pmask, outside, matching):
    for x in bits_of(outside):
        if (g.adj[x] & pmask).bit_count() != 2:
            return {"vertex": x, "neighbors_in_pds": _verts(g.adj[x] & pmask)}
    return None


def _outside_partners_apart(g, pmask, outside, matching):
    partner = {}
    for a, b in matching:
        partner[a], partner[b] = b, a
    for x in bits_of(outside):
        nbrs = _verts(g.adj[x] & pmask)
        if len(nbrs) != 2:
            return {"vertex": x, "neighbors_in_pds": nbrs}
        p1, p2 = partner[nbrs[0]], partner[nbrs[1]]
        if not g.has_edge(p1, p2):
            return {"matching": list(matching), "vertex": x,
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
    for a, b in matching:
        if g.adj[a] & outside and g.adj[b] & outside:
            return {"matching": list(matching), "pair": [a, b]}
    return None


def _outside_edge(g, pmask, outside, matching):
    for x in bits_of(outside):
        bad = g.adj[x] & outside
        if bad:
            return {"pair": [x, _verts(bad)[0]]}
    return None


STRUCTURAL_LEMMAS = tuple(
    Check(check_id, _structural_scope, _over_upper_pds(lemma, per_matching))
    for check_id, lemma, per_matching in (
        # every matched pair has an endpoint of degree one in G[P]
        ("pair-has-leaf", _pair_without_leaf, True),
        # every vertex outside P has exactly two neighbors in P
        ("outside-two-neighbors", _outside_without_two_neighbors, False),
        # the partners of an outside vertex's two P-neighbors are adjacent
        ("outside-partners-adjacent", _outside_partners_apart, True),
        # no two vertices outside P share a neighbor in P
        ("outside-no-common-neighbor", _outside_common_neighbor, False),
        # G[P] has maximum degree at most two
        ("pds-max-degree-two", _pds_degree_above_two, False),
        # at most one endpoint of a matched pair has a neighbor outside P
        ("pair-one-outside-contact", _pair_with_two_outside_contacts, True),
        # the vertices outside P are pairwise non-adjacent
        ("outside-set-independent", _outside_edge, False),
    )
)


# --- the registry ---------------------------------------------------------------

CHECKS: dict[str, Callable[[Facts], Verdict]] = {c.check_id: c for c in (
    Check("gpr-equals-n", _paired, _gpr_equals_n),
    Check("gpr-upper-bound", _connected_order_3, _gpr_upper_bound),
    Check("gpr-equals-n-minus-1", _connected_order_3, _gpr_equals_n_minus_1),
    Check("gpr-at-most-2gamma", _paired, _gpr_at_most_2gamma),
    Check("gamma-ge-independence", lambda f: True, _gamma_ge_independence),
    Check("pds-pair-removal-private", _connected_order_3, _private_pair(False)),
    Check("pds-matched-pair-private", _connected_order_3, _private_pair(True)),
    Check("pds-contains-half-mds", _paired, _pds_contains_half_mds),
    Check("unicyclic-gamma-bound", lambda f: f.flags.unicyclic, _unicyclic_gamma_bound),
    Check("independent-core", _equality_met, _independent_core),
    _equality_check("equality-bipartite", "bipartite"),
    _equality_check("equality-unicyclic", "unicyclic"),
    _equality_check("equality-girth6", "girth-at-least-6"),
    _equality_check("equality-c3free-cactus", "c3-free-cactus"),
    Check("fastpath-matches-brute", lambda f: bool(f.votes),
          _fastpath_matches_brute),
    *STRUCTURAL_LEMMAS,
)}

ALL_CHECK_IDS = tuple(CHECKS)


def run_checks(g: Graph, check_ids) -> list[Verdict]:
    """Run the selected checks on one graph, sharing one Facts. A check that
    the guard stops on a graph too large for the exact scans is skipped, with
    the guard's message as witness; that is the only skip. Any other
    exception propagates, and ``harness.run`` makes it the graph's error
    record."""
    facts = Facts(g)
    out = []
    for cid in check_ids:
        try:
            out.append(CHECKS[cid](facts))
        except GuardError as exc:
            out.append(Verdict(cid, facts.graph6, "skipped", {"skipped": str(exc)}))
    return out


# --- open-question hunt ---------------------------------------------------


# Why the hunt skips a graph: a triangle or an isolated vertex, a guard on
# the exact scans, an unreadable input line.
HUNT_SKIP_REASONS = ("out_of_scope", "too_large", "unreadable")


@dataclass
class HuntReport:
    """Outcome of a counterexample hunt over a stream of graphs.

    Satisfiers are triangle-free graphs without isolated vertices meeting
    the equality; exceptions are satisfiers that are not disjoint unions of
    edges and 5-cycles. The report only collects evidence; it never claims
    the open question is settled.
    """

    scanned: int = 0
    skipped_by_reason: dict = field(
        default_factory=lambda: dict.fromkeys(HUNT_SKIP_REASONS, 0))
    satisfiers: list = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return sum(self.skipped_by_reason.values())

    @property
    def exceptions(self) -> list:
        return [s for s in self.satisfiers if not s["expected_form"]]

    @property
    def non_cactus_satisfiers(self) -> list:
        return [s for s in self.satisfiers if not s["cactus"]]

    def add(self, rec: dict | None) -> bool:
        """Count one scanned graph from its ``hunt_record``, or from
        ``{"skipped": "unreadable"}``; True when it is an exception. The
        record is kept as given."""
        self.scanned += 1
        if rec is None:
            return False
        if "skipped" in rec:
            self.skipped_by_reason[rec["skipped"]] += 1
            return False
        self.satisfiers.append(rec)
        return not rec["expected_form"]

    def to_record(self) -> dict:
        return {
            "scanned": self.scanned,
            "skipped": self.skipped,
            "skipped_by_reason": dict(self.skipped_by_reason),
            "satisfier_count": len(self.satisfiers),
            "exception_count": len(self.exceptions),
            "satisfiers": self.satisfiers,
            "exceptions": self.exceptions,
            "non_cactus_satisfiers": self.non_cactus_satisfiers,
        }


def hunt_record(g: Graph) -> dict | None:
    """The hunt's outcome on one graph: ``{"skipped": "out_of_scope"}`` when
    it has a triangle or Γ_pr is undefined on it, ``{"skipped":
    "too_large"}`` when the guard stops the exact scans, None when it misses
    the equality, else its satisfier record.

    Most misses are found from α, before either 2^n scan: 2α > bound(G) is
    a miss, where bound(G) = n on mK2 and 2⌊(n - 1)/2⌋ elsewhere. Γ >= α,
    as a maximum independent set is a minimal dominating set. Γ_pr is even,
    as a PDS has a perfect matching. Γ_pr = n only on mK2: if V is a minimal
    PDS with perfect matching M and xy is an edge outside M, V - {x', y'}
    is a smaller PDS, for x', y' the M-partners of x and y. Every graph
    under its bound goes on to ``Facts.equality``."""
    facts = Facts(g)
    if not facts.paired or not triangle_free(g):
        return {"skipped": "out_of_scope"}
    degrees = {row.bit_count() for row in g.adj}
    # with no isolated vertex, G is mK2 iff every degree is 1
    bound = g.n if degrees == {1} else (g.n - 1) // 2 * 2
    try:
        if 2 * facts.alpha > bound:
            return None
        equality = facts.equality
    except GuardError:
        return {"skipped": "too_large"}
    if equality is not True:
        return None
    return {
        "graph6": facts.graph6,
        "family": facts.family,
        "expected_form": _edges_and_5_cycles(facts.family),
        "cactus": facts.componentwise_c3free_cactus,
    }


def invariants_record(g: Graph) -> dict:
    """One record per graph: the class flags, the family and the fast
    path's votes, then α, the four invariants with their witnesses, the
    brute-force equality and the deficit 2Γ - Γ_pr, or ``skipped`` when the
    guard stops the exact scans on g. ``agree`` is false when the votes
    split, else null unless there are votes and an equality, and then
    whether the vote is the equality."""
    facts = Facts(g)
    rec = {"graph6": facts.graph6, "n": g.n, **asdict(facts.flags),
           "family": facts.family, "votes": facts.votes}
    if rec["girth"] == INFINITE:  # acyclic
        rec["girth"] = None
    try:
        r = facts.report
        rec["alpha"] = facts.alpha
    except GuardError as exc:
        rec["skipped"] = str(exc)
    else:
        rec.update(
            gamma=r.gamma,
            upper_gamma=r.upper_gamma,
            gamma_pr=r.gamma_pr,
            upper_gamma_pr=r.upper_gamma_pr,
            witnesses={k: None if w is None else list(w)
                       for k, w in r.witnesses.items()},
            equality=facts.equality,
            deficit=None if r.upper_gamma_pr is None
            else 2 * r.upper_gamma - r.upper_gamma_pr,
        )
    fast, equality = set(facts.votes.values()), rec.get("equality")
    rec["agree"] = (False if len(fast) > 1
                    else None if not fast or equality is None
                    else fast == {equality})
    return rec


def hunt_c3free_counterexamples(stream) -> HuntReport:
    """Scan a stream of graphs for triangle-free equality satisfiers that
    are not disjoint unions of edges and 5-cycles."""
    report = HuntReport()
    for g in stream:
        report.add(hunt_record(g))
    return report
