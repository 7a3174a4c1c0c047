"""Exact computation and verification toolkit for upper domination and
upper paired domination on small simple graphs."""

from .graph import (
    Graph,
    GraphError,
    VertexSet,
    build_graph,
    components,
    distance_layer,
    encode_graph6,
    girth,
    neighborhood,
    parse_edge_list,
    parse_graph6,
)
from .matching import (
    Matching,
    all_perfect_matchings,
    find_perfect_matching,
    has_perfect_matching,
)
from .domination import (
    GuardError,
    InvariantReport,
    IsolatedVertexError,
    enumerate_minimal_dominating_sets,
    enumerate_minimal_paired_dominating_sets,
    epn_pair,
    external_private_neighborhood,
    independence_number,
    invariants,
    is_dominating,
    is_minimal_dominating,
    is_minimal_paired_dominating,
    is_paired_dominating,
    private_neighborhood,
)
from .families import (
    ClassFlags,
    FamilyLabel,
    classify,
    make_subdivided_star,
    make_union,
    parse_family_spec,
    recognize_family,
)
from .characterizations import (
    ALL_CHECK_IDS,
    CHECKS,
    EQUALITY_CLASSES,
    Decision,
    Facts,
    HuntReport,
    STRUCTURAL_CHECKS,
    Verdict,
    decide_equality_bruteforce,
    decide_equality_fastpath,
    hunt_c3free_counterexamples,
    run_checks,
)
from .generate import enumerate_labeled_graphs, nonisomorphic_graphs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
