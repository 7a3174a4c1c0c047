"""Every check on one graph, and the equality votes and hunt built on the
same facts.

``CHECKS`` is the one check registry. Each entry is a ``Check`` row: a
hypothesis ``applies(facts)`` and a ``violation(facts)`` that returns a
counterexample witness or None. Called on a ``Facts``, it gives a
``Verdict`` whose status is na when the graph misses the hypothesis, holds
when there is no violation, and fails (with the witness) otherwise. A
fourth status, skipped, is set only by ``run_checks``, when a guard stops
a check on a graph too large for the exact scans. A check never raises for
an unmet hypothesis, and an na verdict is never silently treated as holds.
``EQUALITY_CLASSES`` is the one table of the four equality
characterizations; it gives both the ``equality-*`` checks and the fast
path, ``equality_votes``. ``Facts.equality`` is the one brute-force answer,
from both exact scans.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .domination import (
    GuardError,
    InvariantReport,
    independence_number,
    invariants,
    paired_domination_defined,
)
from .families import (
    ClassFlags,
    FamilyLabel,
    classify,
    every_block_edge_or_cycle,
    recognize_family,
)
from .generate import triangle_free
from .graph import Graph, GraphError, bits_of, encode_graph6, is_connected
from .matching import all_perfect_matchings, perfect_matching_tester


@dataclass(frozen=True)
class Verdict:
    check_id: str
    graph6: str
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


class Facts:
    """Lazily computed exact data for one graph, shared across checks."""

    def __init__(self, g: Graph):
        self.g = g
        self._matchings_cache: dict[int, list] = {}

    @cached_property
    def graph6(self) -> str:
        return encode_graph6(self.g)

    @cached_property
    def paired(self) -> bool:
        return paired_domination_defined(self.g)

    @cached_property
    def alpha(self) -> int:
        return independence_number(self.g)

    @cached_property
    def flags(self) -> ClassFlags:
        return classify(self.g)

    @cached_property
    def family(self) -> FamilyLabel | None:
        return recognize_family(self.g)

    @property
    def family_spec(self) -> str | None:
        """The family as a spec string, or None outside every family."""
        return self.family and self.family.spec_string()

    @cached_property
    def componentwise_c3free_cactus(self) -> bool:
        """Triangle-free with every block an edge or a cycle; for a
        connected graph that is ``flags.cactus``, already scanned."""
        flags = self.flags
        return flags.c3_free and (
            flags.cactus if flags.connected else every_block_edge_or_cycle(self.g))

    @cached_property
    def report(self) -> InvariantReport:
        return invariants(self.g)

    @cached_property
    def pm_test(self):
        return perfect_matching_tester(self.g)

    @cached_property
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
        filter."""
        adj = self.g.adj
        full = self.g.full_mask
        out = []
        for smask in self.report.mpds_masks:
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
                        and self.pm_test(rest)):
                    out.append((smask, u, v))
        return out

    @cached_property
    def upper_pds_masks(self) -> list[int]:
        """All maximum-size minimal paired dominating sets, as masks."""
        target = self.report.upper_gamma_pr
        return [m for m in self.report.mpds_masks if m.bit_count() == target]

    @cached_property
    def equality(self) -> bool | None:
        """Whether the upper paired bound is met with equality, by brute
        force; None when paired domination is undefined (``_paired``
        fails)."""
        if not _paired(self):
            return None
        r = self.report
        return r.upper_gamma_pr == 2 * r.upper_gamma

    def matchings(self, mask: int):
        got = self._matchings_cache.get(mask)
        if got is None:
            got = all_perfect_matchings(self.g, mask)
            self._matchings_cache[mask] = got
        return got


# --- the check row and its shared hypotheses ---------------------------------


@dataclass(frozen=True)
class Check:
    """One registry check: a hypothesis and the statement it implies.

    Called on a Facts, it is na when ``applies`` is false; otherwise it
    holds when ``violation`` returns None, and fails with the returned
    dict as the counterexample witness."""

    check_id: str
    applies: Callable[[Facts], bool]
    violation: Callable[[Facts], dict | None]

    def __call__(self, facts: Facts) -> Verdict:
        if not self.applies(facts):
            return Verdict(self.check_id, facts.graph6, "na")
        witness = self.violation(facts)
        if witness is None:
            return Verdict(self.check_id, facts.graph6, "holds")
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


def _edges_and_5_cycles(fam: FamilyLabel | None) -> bool:
    """The equality family of triangle-free cacti, and the form the hunt
    expects of every triangle-free satisfier."""
    return fam is not None and fam.kind in ("mK2", "C5", "mK2+mC5")


@dataclass(frozen=True)
class EqualityClass:
    """A graph class on which Γ_pr = 2Γ holds exactly for one family."""

    check_id: str
    method: str  # the key of this class's vote in ``equality_votes``
    applies: Callable[[Facts], bool]
    expected: Callable[[FamilyLabel | None], bool]


# In precedence order, which orders the keys of ``equality_votes``.
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


def _equality_check(c: EqualityClass) -> Check:
    """The theorem's check: where Γ_pr is defined and the class applies,
    the equality must match family membership."""

    def mismatch(facts: Facts) -> dict | None:
        if facts.equality == c.expected(facts.family):
            return None
        return {"equality": facts.equality, "family": facts.family_spec}

    return Check(c.check_id, lambda f: _paired(f) and c.applies(f), mismatch)


def equality_votes(facts: Facts) -> dict[str, bool]:
    """The fast path: each applicable class's vote on the equality, from
    family recognition alone, keyed by its method in precedence order.
    Empty when ``_paired`` fails or no characterization applies."""
    if not _paired(facts):
        return {}
    return {c.method: c.expected(facts.family)
            for c in EQUALITY_CLASSES if c.applies(facts)}


# --- violations: each returns a counterexample witness, or None ---------------


def _gpr_equals_n(facts: Facts) -> dict | None:
    """The upper paired number equals the order exactly for disjoint
    unions of single edges."""
    upper_gamma_pr = facts.report.upper_gamma_pr
    is_mk2 = facts.family is not None and facts.family.kind == "mK2"
    if (upper_gamma_pr == facts.g.n) == is_mk2:
        return None
    return {"upper_gamma_pr": upper_gamma_pr, "is_mk2": is_mk2}


def _gpr_upper_bound(facts: Facts) -> dict | None:
    """Connected graphs of order at least 3 have upper paired number at
    most n - 1."""
    upper_gamma_pr = facts.report.upper_gamma_pr
    if upper_gamma_pr <= facts.g.n - 1:
        return None
    return {"upper_gamma_pr": upper_gamma_pr}


def _gpr_equals_n_minus_1(facts: Facts) -> dict | None:
    """Upper paired number n - 1 characterizes the triangle, the 5-cycle,
    and the subdivided stars with attached triangles."""
    upper_gamma_pr = facts.report.upper_gamma_pr
    fam = facts.family
    in_family = fam is not None and fam.kind in ("C3", "C5", "star")
    if (upper_gamma_pr == facts.g.n - 1) == in_family:
        return None
    return {"upper_gamma_pr": upper_gamma_pr, "family": facts.family_spec}


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
    half its size.

    One pass over each list: the minimal dominating sets are indexed as
    bits, holding[w] those that contain w and at_least[k] those of size at
    least k, so the ones inside P are at_least[k] less holding[w] for every
    w outside P."""
    g = facts.g
    holding = [0] * g.n
    at_least = [0] * (g.n + 2)
    for i, d in enumerate(facts.report.mds_masks):
        at_least[d.bit_count()] |= 1 << i
        for w in bits_of(d):
            holding[w] |= 1 << i
    for k in reversed(range(g.n + 1)):
        at_least[k] |= at_least[k + 1]
    for pmask in facts.report.mpds_masks:
        inside = at_least[(pmask.bit_count() + 1) // 2]
        for w in bits_of(g.full_mask & ~pmask):
            inside &= ~holding[w]
        if not inside:
            return {"pds": _verts(pmask)}
    return None


def _fastpath_matches_brute(facts: Facts) -> dict | None:
    """The class fast paths agree with each other and with brute force."""
    votes = equality_votes(facts)
    if set(votes.values()) == {facts.equality}:
        return None
    return {"votes": votes, "brute": facts.equality}


# --- structure of equality graphs ---------------------------------------------


def _independent_core(facts: Facts) -> dict | None:
    """Every maximum minimal PDS contains an independent minimal dominating
    set of maximum size."""
    g = facts.g
    target = facts.report.upper_gamma
    cores = [d for d in facts.report.mds_masks if d.bit_count() == target
             and all(g.adj[v] & d == 0 for v in bits_of(d))]
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

_EQUALITY = {c.check_id: _equality_check(c) for c in EQUALITY_CLASSES}

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
    _EQUALITY["equality-bipartite"],
    _EQUALITY["equality-unicyclic"],
    _EQUALITY["equality-girth6"],
    _EQUALITY["equality-c3free-cactus"],
    Check("fastpath-matches-brute", lambda f: bool(equality_votes(f)),
          _fastpath_matches_brute),
    *STRUCTURAL_LEMMAS,
)}

ALL_CHECK_IDS = tuple(CHECKS)


def run_checks(g: Graph, check_ids) -> list[Verdict]:
    """Run the selected checks on one graph, sharing one Facts. A check that
    a guard stops on a graph too large for the exact scans is skipped, with
    the guard's message as witness."""
    facts = Facts(g)
    out = []
    for cid in check_ids:
        try:
            out.append(CHECKS[cid](facts))
        except GraphError as exc:
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

    Most misses are found from α, before either 2^n scan: Γ >= α
    (``gamma-ge-independence``), so 2α > Γ_pr is a miss. Off mK2,
    Γ_pr <= n - 1 (``gpr-equals-n``). A connected G with n >= 3 other than
    C5 has Γ_pr <= n - 2, or Γ_pr = n - 1 (``gpr-upper-bound``) and G is a
    subdivided star S(K1,t) (``gpr-equals-n-minus-1``; where that is proven
    is unconfirmed, and the check tests it on every graph it meets), whose
    2α = n + 1 > Γ_pr. So there 2α > n - 2 is a miss. mK2 (2α = n), C5 and
    every graph under its bound go on to ``Facts.equality``."""
    facts = Facts(g)
    if not facts.paired or not triangle_free(g):
        return {"skipped": "out_of_scope"}
    degrees = {row.bit_count() for row in g.adj}
    if g.n >= 3 and is_connected(g):  # C5: connected, 2-regular, n = 5
        bound = g.n - 1 if g.n == 5 and degrees == {2} else g.n - 2
    else:  # with no isolated vertex, G is mK2 iff every degree is 1
        bound = g.n if degrees == {1} else g.n - 1
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
        "family": facts.family_spec,
        "expected_form": _edges_and_5_cycles(facts.family),
        "cactus": facts.componentwise_c3free_cactus,
    }


def hunt_c3free_counterexamples(stream) -> HuntReport:
    """Scan a stream of graphs for triangle-free equality satisfiers that
    are not disjoint unions of edges and 5-cycles."""
    report = HuntReport()
    for g in stream:
        report.add(hunt_record(g))
    return report
