"""Algebra and logic of finite set partitions.

Partitions of {0..n-1} form a lattice under refinement; adding an
implication operation (equivalently, negation relative to a fixed
partition) turns the lattice into an algebra with a Boolean core and a
formula language whose tautologies can be refuted or verified up to a
universe-size bound.
"""

from .algebra import (
    BooleanCore,
    boolean_core,
    check_core_distribution,
    check_join_decomposition,
    core_from_subset,
    core_to_subset,
    double_pi_negation,
    excluded_middle_partition,
)
from .core import BinaryRelation, Partition, enumerate_partitions, refines
from .formula import (
    And,
    Assignment,
    Const0,
    Const1,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    SearchBudgetExceeded,
    Var,
    eval_partition,
    find_partition_counterexample,
    format_formula,
    free_vars,
    is_subset_tautology,
    parse,
    pi_negation_transform,
)
from .literals import default_labels, format_partition, format_rgs, parse_partition
from .ops import (
    AND,
    IMPLIES,
    OR,
    AdjunctiveLimitError,
    BoolOp2,
    all_binary_ops,
    binary_op_graph,
    implication_adjunctive,
    implication_blocks,
    implication_graph,
    implication_interior,
    join,
    meet,
    negation,
    retained_links,
)

__version__ = "0.1.0"

__all__ = [
    "AND",
    "AdjunctiveLimitError",
    "And",
    "Assignment",
    "BinaryRelation",
    "BoolOp2",
    "BooleanCore",
    "Const0",
    "Const1",
    "Formula",
    "IMPLIES",
    "Implies",
    "Not",
    "OR",
    "Or",
    "ParseError",
    "Partition",
    "SearchBudgetExceeded",
    "Var",
    "all_binary_ops",
    "binary_op_graph",
    "boolean_core",
    "check_core_distribution",
    "check_join_decomposition",
    "core_from_subset",
    "core_to_subset",
    "default_labels",
    "double_pi_negation",
    "enumerate_partitions",
    "eval_partition",
    "excluded_middle_partition",
    "find_partition_counterexample",
    "format_formula",
    "format_partition",
    "format_rgs",
    "free_vars",
    "implication_adjunctive",
    "implication_blocks",
    "implication_graph",
    "implication_interior",
    "is_subset_tautology",
    "join",
    "meet",
    "negation",
    "parse",
    "parse_partition",
    "pi_negation_transform",
    "refines",
    "retained_links",
]
