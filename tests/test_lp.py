import random
from fractions import Fraction

import pytest

from dstgap import lp, model
from dstgap.families import subset_objects
from dstgap.flows import canonical_solution, solution_cost, verify_feasibility
from dstgap.lp import closed_form_lp, solve_lp_exact
from dstgap.model import E1, E3, E4, InfeasibleError, SizeCapError, build_instance
from dstgap.simplex import EQ, INFEASIBLE, LE, SimplexStats

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


@pytest.mark.parametrize("name, value", [("zk4_instance", 2),
                                         ("subset_m4_instance",
                                          Fraction(7, 6))])
def test_lp_reads_edge_columns_in_any_order(request, name, value):
    # each terminal's edges are found by a search over each vertex's
    # in-edges, so the optimum does not depend on the columns' order
    inst = request.getfixturevalue(name)
    flipped = inst._replace(**{col: getattr(inst, col)[::-1]
                               for col in ("tails", "heads", "colors")})
    res = solve_lp_exact(flipped)
    assert res.certified and res.optimal_value == value


def test_lp_symmetry_under_relabeling(m4_lp):
    obj = subset_objects(4, 2, 0)
    rng = random.Random(11)
    perm = [2, 3, 4, 1]
    rng.shuffle(perm)
    sigma = dict(zip(range(1, 5), perm))
    inst = build_instance(permuted_subset_objects(obj, sigma))
    assert solve_lp_exact(inst).optimal_value == m4_lp.optimal_value
    assert closed_form_lp(inst).optimal_value == m4_lp.optimal_value


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


def _keep(inst, keep):
    """inst with only the edges at the positions in keep."""
    return inst._replace(**{
        col: tuple(map(getattr(inst, col).__getitem__, keep))
        for col in ("tails", "heads", "colors")})


def _cut_off(inst, label):
    """inst less every edge into the terminal labelled label."""
    t = inst.labels.index(label)
    return _keep(inst, [i for i, head in enumerate(inst.heads) if head != t])


def test_closed_form_lp_equals_the_simplex(zk4_instance, zk4_lp, m4_lp,
                                           subset_m4_instance):
    # zk4 with no family name loads as a generic file, and no family name
    # is read: its LP point and packing are checked on its edges alone
    data = model.instance_to_dict(zk4_instance)
    del data["meta"]["family"]
    generic = model.instance_from_dict(data)
    assert generic.provenance.family == "generic"
    toy = toy_instance()
    for inst, value in ((toy, solve_lp_exact(toy).optimal_value),
                        (zk4_instance, zk4_lp.optimal_value),
                        (subset_m4_instance, m4_lp.optimal_value),
                        (generic, zk4_lp.optimal_value)):
        res = closed_form_lp(inst)
        assert res.optimal_value == value and res.certified
        assert res.stats == SimplexStats()  # no pivot is made
        assert solution_cost(inst, res.x_opt) == value
        assert verify_feasibility(inst, res.x_opt).feasible
        # the duals are the packing's weights, of the same value
        assert sum(w for _, w in res.duals) == value
    assert {kind[2] for kind, _ in closed_form_lp(zk4_instance).duals} \
        == {"E1", "E3"}


@pytest.mark.parametrize("klass, value", [(E1, 2), (E3, Fraction(13, 6)),
                                          (E4, Fraction(13, 6))])
def test_closed_form_lp_is_none_less_one_edge(zk4_instance, klass, value):
    # zk4 less its first edge of one class: the LP point is infeasible, and
    # the simplex finds the LP optimum
    drop = zk4_instance.classes.index(klass)
    inst = _keep(zk4_instance,
                 [i for i in range(len(zk4_instance.tails)) if i != drop])
    assert closed_form_lp(inst) is None
    assert solve_lp_exact(inst).optimal_value == value


def test_closed_form_lp_is_none_past_the_optimum(zk4_instance):
    # objects less the edges at B-vertex 0 and one edge of the fourth
    # color have two edges per color, so s = 2 in place of 3, and d' = 3
    # still: x = 1/2 on the E3 edges of zk4 is feasible, but it costs 8/3
    # and the packing proves only the optimum, 2
    objects = zk4_instance.provenance
    fewer = [e for e in objects.edges if e[1] != 0]
    fewer.remove(next(e for e in fewer if e[2] == 3))
    inst = zk4_instance._replace(
        provenance=objects._replace(edges=tuple(fewer)))
    assert (inst.provenance.s, inst.provenance.d_prime) == (2, 3)
    into = lp._in_edges(inst)
    assert lp._packing_value(inst, lp._two_cut_packing(inst, into), into) == 2
    assert closed_form_lp(inst) is None


def _raised_weight(inst, packing):
    # each copy edge of the first cut lies on d' cuts of weight 1/d', so it
    # carried exactly its cost 1, and now carries more
    name, t, w, cut = packing[0]
    return inst, ((name, t, w + Fraction(1, 100), cut),) + packing[1:]


def _missing_in_path(inst, packing):
    # the first cut without one of its copy edges: the path through that
    # edge reaches the terminal
    name, t, w, cut = packing[0]
    return inst, ((name, t, w, cut[1:]),) + packing[1:]


def _wide_copy_edge(inst, packing):
    # one more E4 edge out of the first level-3 vertex: the copy edge into
    # it lies on d' + 1 terminals' cuts, and carries (d' + 1)/d' > 1
    vp = inst.level_offset(3)
    reached = {h for tail, h in zip(inst.tails, inst.heads) if tail == vp}
    other = next(t for t in inst.terminals if t not in reached)
    wide = inst._replace(tails=inst.tails + (vp,), heads=inst.heads + (other,),
                         colors=inst.colors + (None,))
    return wide, lp._two_cut_packing(wide, lp._in_edges(wide))


def _negative_weight(inst, packing):
    # a cut of weight -1 takes 1 off the load of each root edge
    name, t, _, cut = packing[-1]
    return inst, packing + ((name, t, Fraction(-1), cut),)


@pytest.mark.parametrize("mutate", [_raised_weight, _missing_in_path,
                                    _wide_copy_edge, _negative_weight])
def test_packing_check_rejects_a_mutation(zk4_instance, mutate):
    into = lp._in_edges(zk4_instance)
    packing = lp._two_cut_packing(zk4_instance, into)
    assert lp._packing_value(zk4_instance, packing, into) == 2
    inst, bad = mutate(zk4_instance, packing)
    assert lp._packing_value(inst, bad, lp._in_edges(inst)) is None


def test_infeasible_lp_farkas_vector_is_checked(zk4_instance, monkeypatch):
    # zk4 less every edge into terminal 1: the flow LP is infeasible, and
    # phase 1's duals pass the exact Farkas check
    inst = _cut_off(zk4_instance, "1")
    solve, calls = lp.simplex.solve_lp, []

    def spy(*lp_data):
        calls.append((solve(*lp_data), *lp_data[1:]))
        return calls[-1][0]

    monkeypatch.setattr(lp.simplex, "solve_lp", spy)
    with pytest.raises(InfeasibleError):
        solve_lp_exact(inst)
    ((sol, rows, senses, b),) = calls
    assert sol.status == INFEASIBLE
    assert sol.check_farkas(rows, senses, b)

    # a perturbed y fails the check, one per condition: a positive entry on
    # a '<=' row; y^T A_j > 0 on a column, by raising y on a conservation
    # row (b = 0, +1 entries) past the sum of |y|; or y.b = 0
    y = sol.duals
    le = senses.index(LE)
    eq = next(i for i, (sense, bi, row) in enumerate(zip(senses, b, rows))
              if sense == EQ and bi == 0 and 1 in row.values())
    big = 1 + sum(map(abs, y))
    perturbed = [y[:le] + [big] + y[le + 1:],
                 y[:eq] + [y[eq] + big] + y[eq + 1:],
                 [0 * yi for yi in y]]
    for bad in perturbed:
        assert not sol._replace(duals=bad).check_farkas(rows, senses, b)

    # and solve_lp_exact raises on a vector that fails the check
    monkeypatch.setattr(lp.simplex, "solve_lp", lambda *lp_data: solve(
        *lp_data)._replace(duals=perturbed[1]))
    with pytest.raises(RuntimeError, match="Farkas"):
        solve_lp_exact(inst)
