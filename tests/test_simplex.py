from fractions import Fraction

import pytest

from dstgap.simplex import (
    EQ, GE, LE,
    INFEASIBLE, OPTIMAL, UNBOUNDED,
    SimplexError,
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


def test_unbounded():
    # min -x  s.t.  y <= 1  (x unconstrained above)
    sol = solve_lp([F(-1), F(0)], [{1: F(1)}], [LE], [F(1)])
    assert sol.status == UNBOUNDED


def test_beale_degenerate_cycling_example():
    # Beale's classic example; Dantzig's rule cycles without anti-cycling.
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
