"""Locally checkable labelings: definitions, catalog, verification, solving."""

from .catalog import (
    BLUE,
    IN,
    OUT,
    RED,
    balanced_orientation,
    edge_coloring,
    list_coloring_from_input,
    maximal_independent_set,
    maximal_matching,
    sinkless_orientation,
    splitting,
    vertex_coloring,
    weak_coloring,
)
from .problem import Label, Labeling, LCLError, LCLProblem, port_label, require_complete
from .solve import SearchBudgetExceeded, count_solutions, solve_exact
from .verify import accept_map, assert_valid, is_valid, violations

__all__ = [
    "BLUE",
    "IN",
    "LCLError",
    "LCLProblem",
    "Label",
    "Labeling",
    "OUT",
    "RED",
    "SearchBudgetExceeded",
    "accept_map",
    "assert_valid",
    "balanced_orientation",
    "count_solutions",
    "edge_coloring",
    "is_valid",
    "list_coloring_from_input",
    "maximal_independent_set",
    "maximal_matching",
    "port_label",
    "require_complete",
    "sinkless_orientation",
    "solve_exact",
    "splitting",
    "vertex_coloring",
    "violations",
    "weak_coloring",
]
