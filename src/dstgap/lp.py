"""Exact solve of the flow LP on the compact per-terminal formulation.

Variables are the edge capacities x_e plus, for every terminal t, a flow
f^t_e on each edge that lies on some root-to-t path.  Constraints: flow
conservation at internal vertices, one unit delivered to t, and
f^t_e <= x_e.  This is the polynomial-sized equivalent of the path
formulation; the path view survives only as the witness checker in
`flows.path_witness`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import simplex
from .model import DstInstance, InfeasibleError, SizeCapError
from .flows import FractionalSolution

# the exact tableau solves zk4's 118 variables in well under a second, but
# its rows fill in as it pivots: subset m5's 415 variables take about 12 s.
# The cap is configurable for callers willing to wait
DEFAULT_VAR_CAP = 200


class LpResult(NamedTuple):
    optimal_value: Fraction
    x_opt: FractionalSolution
    duals: tuple
    certified: bool  # exact primal/dual feasibility + equal objectives
    stats: simplex.SimplexStats


def _edges_toward(inst: DstInstance, t: int):
    """Indices of edges on some r->t path (graph is layered, so this is
    exactly the set of edges whose head can still reach t)."""
    back = {t}
    # walk levels upward; edges are sorted by class so a reverse sweep works
    for tail, head in zip(reversed(inst.tails), reversed(inst.heads)):
        if head in back:
            back.add(tail)
    return [i for i, head in enumerate(inst.heads) if head in back]


def solve_lp_exact(inst: DstInstance, var_cap: int = DEFAULT_VAR_CAP) -> LpResult:
    """The exact flow LP optimum with its duality certificate.  Raises
    InfeasibleError if some terminal cannot be reached from the root, once
    the simplex's Farkas vector has passed its exact check; RuntimeError if
    it fails that check."""
    ne = len(inst.tails)
    terminals = list(inst.terminals)
    rel = {t: _edges_toward(inst, t) for t in terminals}

    nvars = ne + sum(len(r) for r in rel.values())
    if nvars > var_cap:
        raise SizeCapError(f"LP has {nvars} variables > cap {var_cap}")

    # variable layout: x_e first, then per-terminal flows
    fvar = {}
    idx = ne
    for t in terminals:
        for i in rel[t]:
            fvar[(t, i)] = idx
            idx += 1

    costs = inst.class_costs
    c = [costs[k] for k in inst.classes] + [Fraction(0)] * (nvars - ne)
    rows, senses, b, kinds = [], [], [], []

    for t in terminals:
        inflow = {}
        outflow = {}
        for i in rel[t]:
            inflow.setdefault(inst.heads[i], []).append(fvar[(t, i)])
            outflow.setdefault(inst.tails[i], []).append(fvar[(t, i)])
        vertices = set(inflow) | set(outflow)
        for v in sorted(vertices - {inst.root, t}):
            row = {j: Fraction(1) for j in inflow.get(v, [])}
            for j in outflow.get(v, []):
                row[j] = row.get(j, Fraction(0)) - 1
            rows.append(row)
            senses.append(simplex.EQ)
            b.append(Fraction(0))
            kinds.append(("conservation", inst.labels[t], inst.labels[v]))
        rows.append({j: Fraction(1) for j in inflow.get(t, [])})
        senses.append(simplex.EQ)
        b.append(Fraction(1))
        kinds.append(("demand", inst.labels[t], inst.labels[t]))
        for i in rel[t]:
            rows.append({fvar[(t, i)]: Fraction(1), i: Fraction(-1)})
            senses.append(simplex.LE)
            b.append(Fraction(0))
            kinds.append(("capacity", inst.labels[t], i))

    sol = simplex.solve_lp(c, rows, senses, b)
    if sol.status == simplex.INFEASIBLE:
        if not sol.check_farkas(rows, senses, b):
            raise RuntimeError("the flow LP's Farkas certificate of "
                               "infeasibility fails its exact check")
        raise InfeasibleError("the flow LP is infeasible: a terminal cannot "
                              "be reached from the root")
    if sol.status != simplex.OPTIMAL:
        raise simplex.SimplexError(
            f"flow LP reported {sol.status}; its costs are nonnegative, so "
            "it is bounded")
    certified = sol.check_certificate(c, rows, senses, b)
    x = FractionalSolution(tuple(sol.x[:ne]))
    duals = tuple(zip(kinds, sol.duals))
    return LpResult(sol.value, x, duals, certified, sol.stats)
