import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest

import dstgap
from dstgap import build_instance, subset_objects
from dstgap.families import SubsetFamilyParams, default_j_sets
from dstgap.integral import (
    brute_force_opt,
    certify_gap,
    solve_structured,
)
from dstgap.lp import solve_lp_exact
from dstgap.model import (
    E4,
    SizeCapError,
    instance_from_dict,
    instance_to_dict,
)

from _util import toy_instance


# ---------------------------------------------------------------------------
# gap certificates

def test_certify_zk9(zk9_objects):
    cert = certify_gap(zk9_objects, default_j_sets(zk9_objects))
    assert cert.alpha == 2  # min(6/3, 4/1) = sqrt(k) - 1
    assert cert.opt_lower_bound == 2 * Fraction(126, 56) == Fraction(9, 2)
    assert cert.gap_lower_bound == 1
    assert all(js == 3 and res == 1 for _, js, res in cert.per_u)


def test_certify_zk4(zk4_objects):
    cert = certify_gap(zk4_objects, default_j_sets(zk4_objects))
    assert cert.alpha == 1
    assert cert.opt_lower_bound == Fraction(4, 3)
    assert cert.gap_lower_bound == Fraction(1, 2)


def test_certify_subset_m6(subset_m6_objects):
    cert = certify_gap(subset_m6_objects,
                       default_j_sets(subset_m6_objects, thresh=1))
    assert cert.alpha == Fraction(6, 5)
    assert cert.opt_lower_bound == Fraction(6, 5) * Fraction(15, 6) == 3
    assert all(js == 1 and res == 5 for _, js, res in cert.per_u)


def test_certify_vacuous_j_sets(zk4_objects):
    # J_u = K everywhere: residuals vanish, alpha degrades to d/k
    full = tuple(frozenset(range(zk4_objects.k))
                 for _ in zk4_objects.a_labels)
    cert = certify_gap(zk4_objects, full)
    assert cert.alpha == Fraction(zk4_objects.d, zk4_objects.k) == Fraction(1, 2)
    assert all(res == 0 for _, _, res in cert.per_u)


def test_certify_rejects_wrong_length(zk4_objects):
    with pytest.raises(ValueError):
        certify_gap(zk4_objects, (frozenset(),))


def test_certify_self_check_raises_under_optimize():
    # the alpha self-check is an explicit check, not an assert, so it
    # still runs under python -O; a wrong min() breaks the re-enumeration
    code = textwrap.dedent("""
        import sys
        from dstgap import default_j_sets, integral, zk_objects
        if __debug__:
            sys.exit("not running under -O")
        integral.min = max
        obj = zk_objects(9)
        try:
            integral.certify_gap(obj, default_j_sets(obj))
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("no error raised")
    """)
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "self-check failed: alpha mismatch" in proc.stdout


# ---------------------------------------------------------------------------
# structured solver

def test_structured_zk4(zk4_instance):
    res = solve_structured(zk4_instance)
    assert res.optimal
    assert res.value == Fraction(2, 3) + 2  # one root edge, two copy edges
    sol = res.solution
    assert len(sol.opened_a) == 1 and len(sol.opened_b) == 2


# The node counts and opened sets below pin the search order (branching
# color, child order, child filter, greedy incumbent): a change to any of
# them moves these figures.

def test_structured_zk9(zk9_instance):
    res = solve_structured(zk9_instance)
    assert res.optimal
    assert res.value == res.lower_bound == 6
    assert res.nodes == 47_265
    assert res.solution.opened_a == ("{1,2,3}", "{5,6,7}")
    assert res.solution.opened_b == ("{1,2,3,4}", "{1,2,3,9}", "{5,6,7,8}")


def test_structured_subset_m6(subset_m6_instance):
    res = solve_structured(subset_m6_instance)
    assert res.optimal
    assert res.value == 5
    assert res.nodes == 737
    assert res.solution.opened_a == ("{1,2}", "{3,4}")
    assert res.solution.opened_b == ("{1,2,3,4}", "{1,2,5,6}", "{3,4,5,6}")


def test_structured_subset_m7a3():
    inst = build_instance(subset_objects(SubsetFamilyParams(7, 3, 1)))
    res = solve_structured(inst)
    assert res.optimal
    assert res.value == Fraction(21, 5)
    assert res.nodes == 72_817
    assert res.solution.opened_a == ("{1,2,3}",)
    assert res.solution.opened_b == ("{1,2,3,4,5,6}", "{1,2,3,4,5,7}",
                                     "{1,2,3,4,6,7}", "{1,2,3,5,6,7}")


def test_structured_ignores_claimed_d_prime(zk9_instance):
    # the bound divides by max |K_v| from the edges, not by meta.d_prime;
    # trusting a claimed d' = 1 would prune the whole tree at the root
    obj = zk9_instance.provenance
    lying = replace(zk9_instance, provenance=replace(obj, d_prime=1))
    res = solve_structured(lying)
    assert res.optimal and res.value == 6
    assert res.nodes == 47_265
    short = solve_structured(lying, node_budget=5)
    assert short.lower_bound == Fraction(15, 4)


def test_structured_toy():
    res = solve_structured(toy_instance())
    assert res.optimal and res.value == 2  # |B|/|A| + 1


def test_structured_budget_exhaustion(zk9_instance):
    res = solve_structured(zk9_instance, node_budget=5)
    assert not res.optimal
    assert res.nodes == 6
    assert res.value == 6
    # k/d' + |B|/|A| = 9/4 + 3/2
    assert res.lower_bound == Fraction(15, 4)


# ---------------------------------------------------------------------------
# brute-force oracle

def test_brute_zk4_matches_structured(zk4_instance):
    res = brute_force_opt(zk4_instance)
    assert res.feasible
    assert res.value == Fraction(8, 3)
    assert len(res.opened_a) == 1 and len(res.opened_b) == 2


def test_brute_toy():
    res = brute_force_opt(toy_instance())
    assert res.feasible and res.value == 2


def test_brute_agrees_on_m4(subset_m4_instance):
    b = brute_force_opt(subset_m4_instance)
    s = solve_structured(subset_m4_instance)
    assert b.feasible and s.optimal
    assert b.value == s.value == Fraction(7, 6)


@pytest.mark.parametrize("name, value", [
    ("toy", Fraction(2)),
    ("zk4_instance", Fraction(8, 3)),
    ("subset_m5_instance", Fraction(7, 2)),
])
def test_brute_agrees_with_structured(request, name, value):
    inst = toy_instance() if name == "toy" else request.getfixturevalue(name)
    b = brute_force_opt(inst)
    s = solve_structured(inst)
    assert b.feasible and s.optimal
    assert b.value == s.value == s.lower_bound == value


@pytest.mark.parametrize("omit", ["one-copy-edge", "optimum-copy-edges",
                                  "one-root-edge"])
def test_brute_reads_only_the_graph(subset_m6_instance, omit):
    # m6 less some cost-bearing edges: the greedy incumbent must credit a
    # B-vertex only with the terminals its copy edge reaches, and open an
    # A-vertex only if its root edge is there, or the search ends in a
    # RuntimeError; the optimum stays 5 with each file
    labels = subset_m6_instance.labels
    first_a, first_b = (labels[subset_m6_instance.level_offset(lvl)]
                        for lvl in (1, 2))
    opened_b = solve_structured(subset_m6_instance).solution.opened_b
    data = instance_to_dict(subset_m6_instance)
    drop = {"one-copy-edge": {(first_b, first_b + "'")},
            "optimum-copy-edges": {(v, v + "'") for v in opened_b},
            "one-root-edge": {("r", first_a)}}[omit]
    data["edges"] = [e for e in data["edges"]
                     if (e["tail"], e["head"]) not in drop]
    inst = instance_from_dict(data)
    assert len(inst.tails) == len(subset_m6_instance.tails) - len(drop)
    res = brute_force_opt(inst)
    assert res.feasible and res.value == 5
    assert solve_structured(inst).value == 5


def test_structured_reads_omitted_edges(zk4_instance):
    # zk4 less two root edges, two copy edges and one terminal edge: no
    # 8/3 solution of the full instance survives, and the structured
    # search, built from the edges, agrees with brute force on 10/3
    drop = {("r", "{1,3}"), ("r", "{1,4}"), ("{1,2,4}", "{1,2,4}'"),
            ("{2,3,4}", "{2,3,4}'"), ("{1,2,4}'", "1")}
    data = instance_to_dict(zk4_instance)
    data["edges"] = [e for e in data["edges"]
                     if (e["tail"], e["head"]) not in drop]
    inst = instance_from_dict(data)
    s, b = solve_structured(inst), brute_force_opt(inst)
    assert s.optimal and b.feasible
    assert s.value == b.value == s.lower_bound == Fraction(10, 3)
    lp = solve_lp_exact(inst)
    assert lp.certified and lp.optimal_value <= s.value


def test_brute_size_cap(zk9_instance):
    with pytest.raises(SizeCapError):
        brute_force_opt(zk9_instance)  # |A| + |B| = 210


def test_brute_reports_isolated_terminal(zk4_instance):
    t = next(iter(zk4_instance.terminals))
    keep = [i for i, (k, w) in enumerate(zip(zk4_instance.classes,
                                              zk4_instance.heads))
            if not (k == E4 and w == t)]
    bad = replace(zk4_instance, **{
        col: tuple(getattr(zk4_instance, col)[i] for i in keep)
        for col in ("tails", "heads", "classes", "colors")})
    res = brute_force_opt(bad)
    assert not res.feasible
    assert res.value is None
    assert res.unreachable == (zk4_instance.labels[t],)
