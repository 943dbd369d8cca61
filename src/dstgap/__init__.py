"""Integrality-gap laboratory for the flow LP of Directed Steiner Tree.

Builds the 5-level layered gap instances from bi-regular bipartite graphs
with matching-partitioned edges, checks the canonical fractional solution
by exact max-flow, certifies integral lower bounds from per-vertex terminal
sets, solves small instances exactly, and validates the tail-bound
machinery in closed form.  All correctness-bearing arithmetic is exact.
"""

__version__ = "0.1.0"

from .model import (
    GapObjects,
    DstInstance,
    validate_objects,
    build_instance,
    instance_stats,
)
from .families import zk_objects, subset_objects, default_j_sets, SubsetFamilyParams
from .flows import canonical_solution, verify_feasibility, path_witness
from .lp import solve_lp_exact
from .integral import certify_gap, solve_structured, brute_force_opt

__all__ = [
    "GapObjects",
    "DstInstance",
    "validate_objects",
    "build_instance",
    "instance_stats",
    "zk_objects",
    "subset_objects",
    "default_j_sets",
    "SubsetFamilyParams",
    "canonical_solution",
    "verify_feasibility",
    "path_witness",
    "solve_lp_exact",
    "certify_gap",
    "solve_structured",
    "brute_force_opt",
]
