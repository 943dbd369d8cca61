import random
from fractions import Fraction

import pytest

from dstgap.families import subset_objects
from dstgap.flows import canonical_solution, solution_cost, verify_feasibility
from dstgap.lp import solve_lp_exact
from dstgap.model import SizeCapError, build_instance
from dstgap.simplex import SimplexStats

from _util import permuted_subset_objects, toy_instance


@pytest.fixture(scope="module")
def zk4_lp(zk4_instance):
    return solve_lp_exact(zk4_instance)


@pytest.fixture(scope="module")
def m4_lp(subset_m4_instance):
    return solve_lp_exact(subset_m4_instance)


def test_toy_single_terminal():
    inst = toy_instance()
    res = solve_lp_exact(inst)
    # only one r -> t path: LP value is its cost |B|/|A| + 1 = 2
    assert res.optimal_value == 2
    assert res.certified


def test_zk4_lp(zk4_instance, zk4_lp):
    canon = solution_cost(zk4_instance, canonical_solution(zk4_instance))
    assert canon == Fraction(8, 3)
    assert zk4_lp.optimal_value <= canon
    assert zk4_lp.certified
    # frozen exact optimum for this instance (canonical is not LP-optimal here)
    assert zk4_lp.optimal_value == 2


def test_zk4_lp_primal_is_feasible(zk4_instance, zk4_lp):
    rep = verify_feasibility(zk4_instance, zk4_lp.x_opt)
    assert rep.feasible


def test_subset_m4_lp(m4_lp):
    assert m4_lp.certified
    assert m4_lp.optimal_value == Fraction(7, 6)


def test_lp_symmetry_under_relabeling(m4_lp):
    obj = subset_objects(4, 2, 0)
    rng = random.Random(11)
    perm = [2, 3, 4, 1]
    rng.shuffle(perm)
    sigma = dict(zip(range(1, 5), perm))
    inst = build_instance(permuted_subset_objects(obj, sigma))
    assert solve_lp_exact(inst).optimal_value == m4_lp.optimal_value


def test_lp_var_cap(zk4_instance):
    with pytest.raises(SizeCapError):
        solve_lp_exact(zk4_instance, var_cap=10)


def test_lp_duals_shape(zk4_lp):
    kinds = {kind for (kind, _, _), _ in zk4_lp.duals}
    assert kinds == {"conservation", "demand", "capacity"}


def test_lp_pivot_counts(zk4_lp, m4_lp):
    # 158 pivots on zk4 and 143 on m4, artificial evictions included, as
    # Bland's rule and the ratio test's tie-break fix them; a change to
    # either, or a row update that is not exact, moves these
    assert zk4_lp.stats == SimplexStats(phase1_pivots=143, phase2_pivots=15,
                                        degenerate_pivots=152)
    assert m4_lp.stats == SimplexStats(phase1_pivots=143, phase2_pivots=0,
                                       degenerate_pivots=137)
    assert (zk4_lp.stats.pivots, m4_lp.stats.pivots) == (158, 143)

