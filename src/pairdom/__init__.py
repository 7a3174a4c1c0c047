"""Exact computation and verification toolkit for upper domination and
upper paired domination on small simple graphs."""

from .graph import (
    Graph,
    GraphError,
    build_graph,
    components,
    encode_graph6,
    girth,
    parse_edge_list,
    parse_graph6,
)
from .matching import all_perfect_matchings
from .domination import (
    GuardError,
    InvariantReport,
    IsolatedVertexError,
    independence_number,
    invariants,
    is_dominating,
    is_minimal_dominating,
    is_minimal_paired_dominating,
    is_paired_dominating,
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
    Facts,
    HuntReport,
    STRUCTURAL_CHECKS,
    Verdict,
    equality_votes,
    hunt_c3free_counterexamples,
    run_checks,
)
from .generate import nonisomorphic_graphs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
