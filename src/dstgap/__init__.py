"""Integrality-gap laboratory for the flow LP of Directed Steiner Tree.

Builds the 5-level layered gap instances from bi-regular bipartite graphs
with matching-partitioned edges, checks the canonical fractional solution
by exact max-flow, certifies integral lower bounds from per-vertex terminal
sets, solves small instances exactly, and validates the tail-bound
machinery in closed form.  All correctness-bearing arithmetic is exact.

The names below are imported from their modules when first read, so that
importing the package, or one of its modules, runs no solver's module.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "GapObjects": "model",
    "DstInstance": "model",
    "validate_objects": "model",
    "build_instance": "model",
    "zk_objects": "families",
    "subset_objects": "families",
    "default_j_sets": "families",
    "canonical_solution": "flows",
    "verify_feasibility": "flows",
    "path_witness": "flows",
    "solve_lp_exact": "lp",
    "certify_gap": "integral",
    "solve_structured": "integral",
    "brute_force_opt": "integral",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                   name)
