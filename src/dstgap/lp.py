"""The flow LP's exact optimum, in closed form where it certifies.

closed_form_lp tries the LP point of the containment gap instances:
x = 1/|A| on E1 edges, 1/s on E3 edges and 1 elsewhere, of cost
|B|/|A| + |B|/s.  Its exact max-flow check (flows.verify_feasibility) is
the primal certificate.  The dual is a two-cut packing: weight 1/d' on
each terminal's cut of copy edges, and |B|/|A| on one terminal's cut of
root edges, of value k/d' + |B|/|A|, which is |B|/s + |B|/|A| as sk = d'|B|.
Both are checked exactly on the instance's own edge columns, with no
family name read; where either check fails it returns None.

solve_lp_exact solves the compact per-terminal formulation by the exact
simplex, on any instance within its variable cap.  Variables are the edge
capacities x_e plus, for every terminal t, a flow f^t_e on each edge
whose head reaches t, as the packing check's search backward from t over
in-edges finds them, in any column order.  Constraints: flow conservation
at internal vertices, one unit delivered to t, and f^t_e <= x_e.  This is the
polynomial-sized equivalent of the path formulation; the path view
survives only as the witness checker in `flows.path_witness`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import flows, simplex
from .model import E1, E3, DstInstance, InfeasibleError, SizeCapError
from .flows import FractionalSolution

# the cap bounds only the simplex, which solve runs where closed_form_lp
# returns None.  The exact tableau solves zk4's 118 variables in well under
# a second, but its rows fill in as it pivots: subset m5's 415 variables
# take about 12 s.  The cap is configurable for callers willing to wait
DEFAULT_VAR_CAP = 200


class LpResult(NamedTuple):
    optimal_value: Fraction
    x_opt: FractionalSolution
    duals: tuple
    certified: bool  # exact primal/dual feasibility + equal objectives
    stats: simplex.SimplexStats


def _in_edges(inst: DstInstance) -> list:
    """Per vertex, the positions of the edges into it."""
    into = [[] for _ in range(inst.n)]
    for i, head in enumerate(inst.heads):
        into[head].append(i)
    return into


def _two_cut_packing(inst: DstInstance, into: list) -> tuple:
    """(name, terminal, weight, cut edges) for each cut of the packing:
    weight 1/d' on each terminal t's "E3" cut, the edges into the tails of
    t's in-edges (the copy edges v -> v' with v' -> t), and |B|/|A| on the
    first terminal's "E1" cut, the E1 edges."""
    tails = inst.tails
    w = Fraction(1, inst.provenance.d_prime)
    packing = [("E3", t, w, tuple(i for j in into[t] for i in into[tails[j]]))
               for t in inst.terminals]
    e1 = tuple(i for i, klass in enumerate(inst.classes) if klass == E1)
    packing.append(("E1", inst.terminals[0], inst.class_costs[E1], e1))
    return tuple(packing)


def _reach_back(inst: DstInstance, into: list, t: int, cut=()) -> set:
    """The vertices that reach t without using an edge of cut: a search
    backward from t over the edges into each vertex it reaches."""
    tails = inst.tails
    seen = {t}
    queue = [t]
    for v in queue:
        for i in into[v]:
            u = tails[i]
            if u not in seen and i not in cut:
                seen.add(u)
                queue.append(u)
    return seen


def _packing_value(inst: DstInstance, packing, into: list) -> Fraction | None:
    """The packing's value, the sum of its weights, if it is a solution of
    the flow LP's dual, else None.  Checked exactly, in integers: every
    weight is non-negative; every cut separates its terminal from the root,
    as the vertices that reach the terminal without it exclude the root;
    and no edge carries more weight, summed over the cuts that hold it,
    than its cost.  Then any x of the flow LP costs at least the value,
    since each cut holds at least 1 of x."""
    costs = inst.class_costs
    scale = math.lcm(*(w.denominator for _, _, w, _ in packing),
                     *(q.denominator for q in costs.values()))
    cap = {k: q.numerator * (scale // q.denominator) for k, q in costs.items()}
    load = [0] * len(inst.tails)
    for _, t, w, cut in packing:
        inside = set(cut)
        if w < 0 or inst.root in _reach_back(inst, into, t, inside):
            return None
        wi = w.numerator * (scale // w.denominator)
        for i in inside:
            load[i] += wi
    if any(x > cap[k] for x, k in zip(load, inst.classes)):
        return None
    return sum((w for _, _, w, _ in packing), Fraction(0))


def closed_form_lp(inst: DstInstance) -> LpResult | None:
    """The flow LP optimum at the LP point, certified by its exact max-flow
    check and the two-cut packing of equal value; None if the instance has
    no terminal, or the point is infeasible, or the packing fails its check
    or falls short of the point's cost.  Reads the edge columns, the level
    sizes and s and d' of the objects' edges, never the family name."""
    if not inst.terminals:
        return None
    point = dict.fromkeys(inst.class_costs, Fraction(1))
    point[E1] = Fraction(1, inst.level_sizes[1])
    point[E3] = Fraction(1, inst.provenance.s)
    x = FractionalSolution(tuple(map(point.__getitem__, inst.classes)))
    if not flows.verify_feasibility(inst, x).feasible:
        return None
    cost = flows.solution_cost(inst, x)
    into = _in_edges(inst)
    packing = _two_cut_packing(inst, into)
    if _packing_value(inst, packing, into) != cost:
        return None
    duals = tuple((("cut", inst.labels[t], name), w)
                  for name, t, w, _ in packing)
    return LpResult(cost, x, duals, True, simplex.SimplexStats())


def solve_lp_exact(inst: DstInstance, var_cap: int = DEFAULT_VAR_CAP) -> LpResult:
    """The exact flow LP optimum with its duality certificate.  Raises
    InfeasibleError if some terminal cannot be reached from the root, once
    the simplex's Farkas vector has passed its exact check; RuntimeError if
    it fails that check."""
    ne = len(inst.tails)
    terminals = list(inst.terminals)
    into = _in_edges(inst)
    reach = {t: _reach_back(inst, into, t) for t in terminals}
    rel = {t: [i for i, head in enumerate(inst.heads) if head in reach[t]]
           for t in terminals}  # in column order

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
