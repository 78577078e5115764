"""FOON-style manipulation knowledge graphs: parsing, retrieval, evaluation.

Parse tab-delimited annotation files into a graph of functional units, then
retrieve an executable task tree for a goal object given a kitchen of
available objects, by iterative deepening or greedy best-first search.
"""

from .errors import (
    EmptyUniverseError,
    FoonError,
    MissingMotionRateError,
    OracleCapExceededError,
    ParseError,
    UnknownGoalError,
)
from .evaluate import (
    TreeMetrics,
    compare_algorithms,
    enumerate_all_task_trees,
    tree_metrics,
)
from .graph import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    Motion,
    MotionProfile,
    ObjectNode,
    StateDescriptor,
    TaskTree,
    build_graph,
)
from .io import (
    ParseDiagnostic,
    export_dot,
    parse_foon,
    parse_goal,
    parse_kitchen,
    parse_motion_profile,
    serialize_foon,
)
from .search import (
    ALGORITHMS,
    GBFS_INPUTS,
    GBFS_SUCCESS,
    IDS,
    ChoiceRecord,
    RetrievalConfig,
    RetrievalStats,
    TaskTreeNotFound,
    retrieve,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ChoiceRecord",
    "EmptyUniverseError",
    "FoonError",
    "FoonGraph",
    "FunctionalUnit",
    "GBFS_INPUTS",
    "GBFS_SUCCESS",
    "IDS",
    "Kitchen",
    "MissingMotionRateError",
    "Motion",
    "MotionProfile",
    "ObjectNode",
    "OracleCapExceededError",
    "ParseDiagnostic",
    "ParseError",
    "RetrievalConfig",
    "RetrievalStats",
    "StateDescriptor",
    "TaskTree",
    "TaskTreeNotFound",
    "TreeMetrics",
    "UnknownGoalError",
    "build_graph",
    "compare_algorithms",
    "enumerate_all_task_trees",
    "export_dot",
    "parse_foon",
    "parse_goal",
    "parse_kitchen",
    "parse_motion_profile",
    "retrieve",
    "serialize_foon",
    "tree_metrics",
    "validate_tree",
]
