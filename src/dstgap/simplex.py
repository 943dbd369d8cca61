"""Exact two-phase simplex over rationals, in sparse integer rows.

Minimizes c.x subject to rows[i].x (<=, >=, =) b[i] and x >= 0, with every
coefficient a Fraction.  No tolerances exist anywhere.  Pivoting follows
Bland's rule: the lowest improving column enters, and the ratio test breaks
ties by the smallest basic index.  Bland's rule guarantees termination,
also on LPs as degenerate as the flow LPs.

Each tableau row is a dict {column: int} of its nonzero numerators over one
positive int denominator, the row kept in lowest terms; the reduced-cost
row has the same form.  A pivot in column jc first scales the pivot row
prow to p = prow[jc] > 0 with gcd 1, so that prow/p is the new row; every
other row with f = row[jc] != 0 becomes (row*p - f*prow) / (den*p), in
ints over the nonzeros, and one gcd puts it in lowest terms.  The ratio
test cross-multiplies numerators, because a row's denominator cancels from
its own ratio, and pricing reads the signs of the reduced-cost row's
numerators.  No Fraction is built inside the pivot loop: values are
Fractions only where a phase sets up its rows and costs, and where x, the
duals and the value are returned.

The rows hold exactly the rationals of a dense Fraction tableau and every
comparison is exact.  So the pivot sequence, the final basis, x and the
duals are a function of the input alone: the representation of the rows
cannot change them.

The solver also returns exact duals, read off the final phase-2 reduced
costs, so callers can assemble a strong-duality certificate, and counts
its pivots.  An infeasible LP returns phase 1's duals instead: a Farkas
vector, which check_farkas verifies.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

LE, GE, EQ = "<=", ">=", "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_F0 = Fraction(0)


class SimplexError(Exception):
    pass


class SimplexStats(NamedTuple):
    phase1_pivots: int = 0   # includes pivots that evict basic artificials
    phase2_pivots: int = 0
    degenerate_pivots: int = 0  # ratio-test pivots with step length 0

    @property
    def pivots(self) -> int:
        return self.phase1_pivots + self.phase2_pivots


class LpSolution(NamedTuple):
    status: str
    value: Fraction | None
    x: list | None
    duals: list | None   # one per input row, sign convention below;
                         # a Farkas vector if infeasible
    stats: SimplexStats = SimplexStats()

    def check_farkas(self, rows, senses, b) -> bool:
        """Exact Farkas certificate of infeasibility, in the duals' sign
        convention: y_i <= 0 on '<=' rows, y_i >= 0 on '>=' rows, y^T A_j
        <= 0 for every column j and y.b > 0.  For any x >= 0 meeting the
        rows, 0 >= y^T A x >= y.b would follow, so no such x exists."""
        if self.status != INFEASIBLE:
            return False
        y = self.duals
        for sense, yi in zip(senses, y):
            if sense == LE and yi > 0 or sense == GE and yi < 0:
                return False
        ata = {}
        for row, yi in zip(rows, y):
            if yi:
                for j, a in row.items():
                    ata[j] = ata.get(j, _F0) + yi * a
        return (all(v <= 0 for v in ata.values())
                and sum((yi * bi for yi, bi in zip(y, b)), _F0) > 0)

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


def _int_row(values: dict):
    """A dict of Fractions as (nonzero int numerators, common denominator)."""
    den = lcm(*(v.denominator for v in values.values()))
    return {j: v.numerator * (den // v.denominator)
            for j, v in values.items() if v}, den


def solve_lp(c, rows, senses, b) -> LpSolution:
    """rows are sparse dicts {var_index: Fraction}."""
    m, n = len(rows), len(c)
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    flipped = [bi < 0 for bi in b]
    senses = [{LE: GE, GE: LE, EQ: EQ}[s] if f else s
              for s, f in zip(senses, flipped)]

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
    art_set = frozenset(art_col.values())

    # the rhs is column ncols of each row
    tab, den, basis = [], [], []
    for i in range(m):
        sign = -1 if flipped[i] else 1
        row = {j: sign * Fraction(v) for j, v in rows[i].items()}
        row[ncols] = sign * b[i]
        if i in slack_col:
            row[slack_col[i]] = Fraction(1 if senses[i] == LE else -1)
        if i in art_col:
            row[art_col[i]] = Fraction(1)
        num, d = _int_row(row)
        tab.append(num)
        den.append(d)
        basis.append(art_col[i] if i in art_col else slack_col[i])

    counts = [0, 0, 0]  # the SimplexStats fields, in order
    unit = {**slack_col, **art_col}  # row -> the column that is e_i in it
    if art_col:
        cost1 = dict.fromkeys(art_set, Fraction(1))
        bounded, z1, zden = _run(tab, den, basis, cost1, ncols, frozenset(),
                                 counts, 0)
        if not bounded:
            raise SimplexError("phase 1 unbounded: impossible")
        if z1.get(ncols):
            # phase 1 ends with every reduced cost >= 0 and objective
            # y.b > 0, so its duals are a Farkas vector
            return LpSolution(INFEASIBLE, None, None,
                              _duals(z1, zden, cost1, unit, flipped),
                              SimplexStats(*counts))
        counts[0] += _evict_artificials(tab, den, basis, art_set, ncols)

    cost2 = {j: cj for j, cj in enumerate(c) if cj}
    bounded, z2, zden = _run(tab, den, basis, cost2, ncols, art_set, counts, 1)
    stats = SimplexStats(*counts)
    if not bounded:
        return LpSolution(UNBOUNDED, None, None, None, stats)

    x = [_F0] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = Fraction(tab[i].get(ncols, 0), den[i])

    return LpSolution(OPTIMAL, Fraction(-z2.get(ncols, 0), zden), x,
                      _duals(z2, zden, cost2, unit, flipped), stats)


def _duals(z, zden, cost, unit, flipped) -> list:
    """The duals y^T = c_B^T B^-1 of a phase's final reduced costs z/zden.

    The reduced cost of a column is c_j - y^T A_j.  Row i's unit column
    (its slack on '<=' rows, its artificial otherwise) has A_j = e_i, so
    y_i is its cost less its reduced cost.  A row negated on input gets the
    dual of its negation, sign flipped.
    """
    y = []
    for i, flip in enumerate(flipped):
        yi = cost.get(unit[i], 0) - Fraction(z.get(unit[i], 0), zden)
        y.append(-yi if flip else yi)
    return y


def _run(tab, den, basis, cost, ncols, banned, counts, phase):
    """Primal simplex iterations on the rows of tab.

    cost is a dict {column: Fraction} of the nonzero costs.  Returns
    (bounded, z, zden): whether the problem is bounded, and the final
    reduced-cost row, numerators z over zden, whose rhs entry is minus the
    objective value.  Adds the pivots to counts[phase] and the degenerate
    pivots to counts[2].
    """
    m = len(tab)
    z = dict(cost)
    for row, d, bj in zip(tab, den, basis):
        cb = cost.get(bj)
        if cb:
            for j, v in row.items():
                z[j] = z.get(j, _F0) - cb * Fraction(v, d)
    # the reduced-cost row rides along as row m, so that pivots update it
    z, d = _int_row(z)
    tab.append(z)
    den.append(d)

    bounded = True
    while True:
        enter = min((j for j, v in z.items()
                     if v < 0 and j < ncols and j not in banned), default=-1)
        if enter < 0:
            break

        # min rhs/a over a > 0, ties to the smallest basic index; a row's
        # denominator cancels from its ratio, and a > 0 keeps the
        # cross-multiplied comparison exact
        leave = -1
        for i in [i for i, row in enumerate(tab[:m]) if row.get(enter, 0) > 0]:
            a, rhs = tab[i][enter], tab[i].get(ncols, 0)
            if leave < 0 or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and basis[i] < basis[leave]):
                leave, best_rhs, best_a = i, rhs, a
        if leave < 0:
            bounded = False
            break

        if best_rhs == 0:
            counts[2] += 1
        _pivot(tab, den, leave, enter)
        basis[leave] = enter
        counts[phase] += 1
        z = tab[m]
    zden = den.pop()
    return bounded, tab.pop(), zden


def _pivot(tab, den, r, jc):
    """Make column jc basic in row r: every row of tab with a nonzero in jc,
    the reduced-cost row included if present, loses it."""
    prow = tab[r]
    p = prow[jc]
    if p < 0:
        prow = {j: -v for j, v in prow.items()}
    # the old den cancels from prow / prow[jc]
    g = gcd(*prow.values())
    if g > 1:
        prow = {j: v // g for j, v in prow.items()}
    p = prow[jc]
    tab[r], den[r] = prow, p
    pitems = prow.items()
    for i in [i for i, row in enumerate(tab) if jc in row and i != r]:
        row = tab[i]
        f = row[jc]
        new = {j: v * p for j, v in row.items()} if p != 1 else row
        for j, v in pitems:
            w = new.get(j, 0) - f * v
            if w:
                new[j] = w
            else:
                del new[j]
        d = den[i] * p
        g = gcd(d, *new.values())
        if g > 1:
            new = {j: v // g for j, v in new.items()}
            d //= g
        tab[i], den[i] = new, d


def _evict_artificials(tab, den, basis, art_set, ncols) -> int:
    """Pivot basic artificials out where possible; leftover rows are
    redundant.  Returns the number of pivots."""
    pivots = 0
    for i, row in enumerate(tab):
        if basis[i] in art_set:
            enter = min((j for j in row if j < ncols and j not in art_set),
                        default=-1)
            if enter >= 0:
                _pivot(tab, den, i, enter)
                basis[i] = enter
                pivots += 1
            elif row.get(ncols):
                raise SimplexError("inconsistent redundant row")
    return pivots
