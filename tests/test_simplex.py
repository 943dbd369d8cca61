import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from dstgap.simplex import (
    EQ, GE, LE,
    INFEASIBLE, OPTIMAL, UNBOUNDED,
    SimplexStats,
    solve_lp,
)

F = Fraction


def test_simple_ge():
    # min x + y  s.t.  x + y >= 1
    sol = solve_lp([F(1), F(1)], [{0: F(1), 1: F(1)}], [GE], [F(1)])
    assert sol.status == OPTIMAL
    assert sol.value == 1
    assert sol.check_certificate([F(1), F(1)], [{0: F(1), 1: F(1)}], [GE], [F(1)])


def test_le_with_negative_costs():
    # min -x - y  s.t.  x + 2y <= 4, x <= 2  ->  x=2, y=1, value -3
    c = [F(-1), F(-1)]
    rows = [{0: F(1), 1: F(2)}, {0: F(1)}]
    senses = [LE, LE]
    b = [F(4), F(2)]
    sol = solve_lp(c, rows, senses, b)
    assert sol.status == OPTIMAL and sol.value == -3
    assert sol.x == [F(2), F(1)]
    assert sol.check_certificate(c, rows, senses, b)


def test_equalities():
    # min x + y  s.t.  x + y = 2, x - y = 0  ->  x = y = 1
    c = [F(1), F(1)]
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
    senses = [EQ, EQ]
    b = [F(2), F(0)]
    sol = solve_lp(c, rows, senses, b)
    assert sol.status == OPTIMAL and sol.value == 2
    assert sol.x == [F(1), F(1)]
    assert sol.check_certificate(c, rows, senses, b)


def test_negative_rhs_normalization():
    # min x  s.t.  -x <= -3  (i.e. x >= 3)
    c = [F(1)]
    rows = [{0: F(-1)}]
    sol = solve_lp(c, rows, [LE], [F(-3)])
    assert sol.status == OPTIMAL and sol.value == 3
    assert sol.check_certificate(c, rows, [LE], [F(-3)])


def test_infeasible():
    # x <= -1 with x >= 0
    sol = solve_lp([F(1)], [{0: F(1)}], [LE], [F(-1)])
    assert sol.status == INFEASIBLE
    assert not sol.check_certificate([F(1)], [{0: F(1)}], [LE], [F(-1)])
    # y = -1 on the row: y <= 0 on '<=', y A = -1 <= 0 and y b = 1 > 0
    assert sol.duals == [-1]
    assert sol.check_farkas([{0: F(1)}], [LE], [F(-1)])


def test_unbounded():
    # min -x  s.t.  y <= 1  (x unconstrained above)
    sol = solve_lp([F(-1), F(0)], [{1: F(1)}], [LE], [F(1)])
    assert sol.status == UNBOUNDED


def test_beale_degenerate_cycling_example():
    # Beale's classic example: the most-negative-reduced-cost rule cycles on
    # it, Bland's rule reaches the optimum in 6 pivots, 4 of them degenerate
    c = [F(-3, 4), F(150), F(-1, 50), F(6)]
    rows = [
        {0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)},
        {0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)},
        {2: F(1)},
    ]
    senses = [LE, LE, LE]
    b = [F(0), F(0), F(1)]
    sol = solve_lp(c, rows, senses, b)
    assert sol.status == OPTIMAL
    assert sol.value == F(-1, 20)
    assert sol.check_certificate(c, rows, senses, b)
    assert sol.stats == SimplexStats(phase1_pivots=0, phase2_pivots=6,
                                     degenerate_pivots=4)
    assert sol.stats.pivots == 6


def test_duals_signs():
    # min 2x  s.t.  x >= 1, x <= 5  ->  dual on the binding >= row is 2
    c = [F(2)]
    rows = [{0: F(1)}, {0: F(1)}]
    senses = [GE, LE]
    b = [F(1), F(5)]
    sol = solve_lp(c, rows, senses, b)
    assert sol.status == OPTIMAL and sol.value == 2
    assert sol.duals[0] == 2 and sol.duals[1] == 0
    assert sol.check_certificate(c, rows, senses, b)


def test_redundant_equalities():
    # duplicated equality rows must not break phase 1 eviction
    c = [F(1), F(1)]
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}]
    senses = [EQ, EQ]
    b = [F(2), F(2)]
    sol = solve_lp(c, rows, senses, b)
    assert sol.status == OPTIMAL and sol.value == 2
    assert sol.check_certificate(c, rows, senses, b)


def test_duals_with_basic_artificial_and_flipped_row():
    # min 2x + y  s.t.  x + y = 2, 2x + 2y = 4 (redundant: its artificial
    # stays basic), x >= 1/2, -x + y <= -1 (negated to x - y >= 1)
    c = [F(2), F(1)]
    rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {0: F(1)},
            {0: F(-1), 1: F(1)}]
    senses = [EQ, EQ, GE, LE]
    b = [F(2), F(4), F(1, 2), F(-1)]
    sol = solve_lp(c, rows, senses, b)
    assert sol.status == OPTIMAL and sol.value == F(7, 2)
    assert sol.x == [F(3, 2), F(1, 2)]
    # y2 and y3 are unique; only y0 + 2 y1 is fixed on the redundant pair
    assert sol.duals[2] == 0 and sol.duals[3] == F(-1, 2)
    assert sol.duals[0] + 2 * sol.duals[1] == F(3, 2)
    assert sol.check_certificate(c, rows, senses, b)


# ---------------------------------------------------------------------------
# independent oracle: vertex enumeration

def _solve_square(a, b):
    """The unique solution of a x = b by Fraction Gaussian elimination, or
    None if a is singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _vertex_optimum(c, rows, senses, b):
    """min c.x over the vertices of {x >= 0, rows (senses) b}, or None if
    there is no feasible vertex: every choice of n active constraints,
    x >= 0 included, solved exactly and kept if it satisfies them all."""
    n = len(c)
    cons = [([row.get(j, F(0)) for j in range(n)], s, rhs)
            for row, s, rhs in zip(rows, senses, b)]
    cons += [([F(int(i == j)) for i in range(n)], GE, F(0)) for j in range(n)]

    def holds(coef, sense, rhs, x):
        lhs = sum(a * xi for a, xi in zip(coef, x))
        return {LE: lhs <= rhs, GE: lhs >= rhs, EQ: lhs == rhs}[sense]

    best = None
    for active in combinations(cons, n):
        x = _solve_square([a for a, _, _ in active], [r for _, _, r in active])
        if x is not None and all(holds(*con, x) for con in cons):
            value = sum(ci * xi for ci, xi in zip(c, x))
            if best is None or value < best:
                best = value
    return best


def _random_box_lp(rng):
    """2 or 3 variables, each boxed by x_j <= U_j, and 1 to 4 rows with
    fractional and negative coefficients, any sense and any sign of rhs."""
    n = rng.randint(2, 3)
    c = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    rows, senses, b = [], [], []
    for _ in range(rng.randint(1, 4)):
        rows.append({j: F(rng.randint(-6, 6), rng.randint(1, 3))
                     for j in range(n) if rng.random() < 0.8})
        senses.append(rng.choice([LE, GE, EQ]))
        b.append(F(rng.randint(-8, 8), rng.randint(1, 3)))
    for j in range(n):
        rows.append({j: F(1)})
        senses.append(LE)
        b.append(F(rng.randint(1, 9), rng.randint(1, 2)))
    return c, rows, senses, b


def test_random_box_lps_match_vertex_enumeration():
    rng = random.Random(2021)
    seen = Counter()
    for _ in range(400):
        c, rows, senses, b = _random_box_lp(rng)
        sol = solve_lp(c, rows, senses, b)
        best = _vertex_optimum(c, rows, senses, b)
        if best is None:
            assert sol.status == INFEASIBLE
            assert sol.check_farkas(rows, senses, b)
        else:
            assert sol.status == OPTIMAL
            assert sol.value == best
            assert sol.check_certificate(c, rows, senses, b)
        seen[sol.status] += 1
        seen.update(senses)
        seen["negative rhs"] += any(bi < 0 for bi in b)
    # the sample reaches every case it is meant to cover
    assert all(seen[key] >= 50 for key in
               (OPTIMAL, INFEASIBLE, LE, GE, EQ, "negative rhs")), seen


@st.composite
def degenerate_lps(draw):
    """1 to 3 variables and 1 to 3 rows of any sense, coefficients in -2..2,
    right-hand sides mostly 0 so that many vertices are degenerate, and a
    row sum(x) <= 4 that keeps every LP bounded."""
    n = draw(st.integers(1, 3))
    coef = st.integers(-2, 2)
    c = [F(draw(coef)) for _ in range(n)]
    rows, senses, b = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        rows.append({j: F(a) for j in range(n) if (a := draw(coef))})
        senses.append(draw(st.sampled_from([LE, GE, EQ])))
        b.append(F(draw(st.sampled_from([0, 0, 0, 0, -2, -1, 1, 2]))))
    rows.append(dict.fromkeys(range(n), F(1)))
    senses.append(LE)
    b.append(F(4))
    return c, rows, senses, b


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(degenerate_lps())
def test_degenerate_lps_match_vertex_enumeration(lp):
    sol = solve_lp(*lp)
    best = _vertex_optimum(*lp)
    if best is None:
        assert sol.status == INFEASIBLE
        assert sol.check_farkas(*lp[1:])
    else:
        assert sol.status == OPTIMAL
        assert sol.value == best
        assert sol.check_certificate(*lp)
