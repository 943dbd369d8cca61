"""Exact two-phase simplex over rationals.

Minimizes c.x subject to rows[i].x (<=, >=, =) b[i] and x >= 0, with every
coefficient a Fraction.  No tolerances exist anywhere.  Pivoting is
steepest-coefficient (Dantzig) for speed but switches to Bland's rule
whenever a run of degenerate pivots is detected and stays there until the
objective strictly improves, which preserves Bland's termination guarantee.

The solver also returns exact duals, read off the final phase-2 reduced
costs, so callers can assemble a strong-duality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

LE, GE, EQ = "<=", ">=", "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_F0 = Fraction(0)
_F1 = Fraction(1)

# consecutive degenerate pivots tolerated before switching to Bland
_STALL_LIMIT = 12


class SimplexError(Exception):
    pass


@dataclass
class LpSolution:
    status: str
    value: Fraction | None
    x: list | None
    duals: list | None   # one per input row, sign convention below

    def check_certificate(self, c, rows, senses, b) -> bool:
        """Exact primal feasibility, dual feasibility, equal objectives.

        Dual convention for the min problem: y_i >= 0 on '>=' rows,
        y_i <= 0 on '<=' rows, free on '=' rows; y^T A <= c componentwise;
        then y.b <= c.x for any feasible x and equality certifies optimality.
        """
        if self.status != OPTIMAL:
            return False
        x, y = self.x, self.duals
        if any(v < 0 for v in x):
            return False
        for row, sense, rhs, yi in zip(rows, senses, b, y):
            lhs = sum((row.get(j, _F0) * x[j] for j in row), _F0)
            if sense == LE and not (lhs <= rhs and yi <= 0):
                return False
            if sense == GE and not (lhs >= rhs and yi >= 0):
                return False
            if sense == EQ and lhs != rhs:
                return False
        ata = [_F0] * len(c)
        for row, yi in zip(rows, y):
            if yi:
                for j, a in row.items():
                    ata[j] += yi * a
        if any(ata[j] > c[j] for j in range(len(c))):
            return False
        primal = sum((ci * xi for ci, xi in zip(c, x)), _F0)
        dual = sum((yi * bi for yi, bi in zip(y, b)), _F0)
        return primal == dual == self.value


def solve_lp(c, rows, senses, b) -> LpSolution:
    """rows are sparse dicts {var_index: Fraction}."""
    m, n = len(rows), len(c)
    c = [Fraction(v) for v in c]
    rows = [{j: Fraction(v) for j, v in r.items() if v} for r in rows]
    b = [Fraction(v) for v in b]
    senses = list(senses)
    flipped = [False] * m
    for i in range(m):
        if b[i] < 0:
            rows[i] = {j: -v for j, v in rows[i].items()}
            b[i] = -b[i]
            flipped[i] = True
            senses[i] = {LE: GE, GE: LE, EQ: EQ}[senses[i]]

    slack_col, art_col = {}, {}
    ncols = n
    for i in range(m):
        if senses[i] != EQ:
            slack_col[i] = ncols
            ncols += 1
    for i in range(m):
        if senses[i] != LE:
            art_col[i] = ncols
            ncols += 1
    art_set = set(art_col.values())

    tableau = [[_F0] * (ncols + 1) for _ in range(m)]
    basis = [-1] * m
    for i in range(m):
        row = tableau[i]
        for j, v in rows[i].items():
            row[j] = v
        if i in slack_col:
            row[slack_col[i]] = _F1 if senses[i] == LE else -_F1
        if i in art_col:
            row[art_col[i]] = _F1
            basis[i] = art_col[i]
        else:
            basis[i] = slack_col[i]
        row[ncols] = b[i]

    if art_col:
        cost1 = [_F0] * ncols
        for j in art_set:
            cost1[j] = _F1
        z1 = _run(tableau, basis, cost1, ncols, banned=frozenset())
        if z1 is None:
            raise SimplexError("phase 1 unbounded: impossible")
        if z1[ncols] != 0:
            return LpSolution(INFEASIBLE, None, None, None)
        _evict_artificials(tableau, basis, art_set, ncols)

    cost2 = c + [_F0] * (ncols - n)
    z2 = _run(tableau, basis, cost2, ncols, banned=frozenset(art_set))
    if z2 is None:
        return LpSolution(UNBOUNDED, None, None, None)

    x = [_F0] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = tableau[i][ncols]

    # The reduced cost of a column is c_j - y^T A_j with y^T = c_B^T B^-1.
    # Row i's unit column (its slack on '<=' rows, its artificial otherwise)
    # has cost 0 and A_j = e_i, so y_i is minus its reduced cost.
    # A row negated on input gets the dual of its negation, sign flipped.
    unit = {**slack_col, **art_col}
    y = [z2[unit[i]] if flipped[i] else -z2[unit[i]] for i in range(m)]
    return LpSolution(OPTIMAL, -z2[ncols], x, y)


def _run(tableau, basis, cost, ncols, banned):
    """Primal simplex iterations.

    Returns the final reduced-cost row (its last entry is minus the optimal
    value), or None if the problem is unbounded.
    """
    m = len(tableau)
    z = [_F0] * (ncols + 1)
    for j in range(ncols):
        z[j] = cost[j]
    for i in range(m):
        cb = cost[basis[i]]
        if cb:
            row = tableau[i]
            for j in range(ncols + 1):
                if row[j]:
                    z[j] -= cb * row[j]

    stall = 0
    bland = False
    while True:
        enter = -1
        if bland:
            for j in range(ncols):
                if j not in banned and z[j] < 0:
                    enter = j
                    break
        else:
            best = _F0
            for j in range(ncols):
                if j not in banned and z[j] < best:
                    best = z[j]
                    enter = j
        if enter < 0:
            return z

        leave = -1
        best_ratio = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return None

        if best_ratio == 0:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False

        _pivot(tableau, z, basis, leave, enter, ncols)


def _pivot(tableau, z, basis, r, jc, ncols):
    prow = tableau[r]
    inv = _F1 / prow[jc]
    if inv != 1:
        for j in range(ncols + 1):
            if prow[j]:
                prow[j] *= inv
    nz = [j for j in range(ncols + 1) if prow[j]]
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[jc]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
    f = z[jc]
    if f:
        for j in nz:
            z[j] -= f * prow[j]
    basis[r] = jc


def _evict_artificials(tableau, basis, art_set, ncols):
    """Pivot basic artificials out where possible; leftover rows are redundant."""
    m = len(tableau)
    z = [_F0] * (ncols + 1)  # dummy cost row for _pivot
    for i in range(m):
        if basis[i] in art_set:
            row = tableau[i]
            enter = next(
                (j for j in range(ncols) if j not in art_set and row[j]), -1)
            if enter >= 0:
                _pivot(tableau, z, basis, i, enter, ncols)
            elif row[ncols] != 0:
                raise SimplexError("inconsistent redundant row")

