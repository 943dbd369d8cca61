import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import dstgap
from dstgap import build_instance, subset_objects, zk_objects
from dstgap.families import default_j_sets
from dstgap.flows import canonical_solution, verify_feasibility
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

from _util import (certify_reference, label_set, mask_set, set_label,
                   set_mask, toy_instance)


# ---------------------------------------------------------------------------
# gap certificates

def test_certify_zk9(zk9_objects):
    cert = certify_gap(zk9_objects, default_j_sets(zk9_objects))
    assert cert.alpha == 2  # min(6/3, 4/1) = sqrt(k) - 1
    assert cert.opt_lower_bound == 2 * Fraction(126, 56) == Fraction(9, 2)
    assert cert.gap_lower_bound == 1
    assert all(js == 3 and res == 1 for _, js, res in cert.per_u)


@pytest.mark.parametrize("make", [
    lambda: zk_objects(4), lambda: zk_objects(9),
    lambda: subset_objects(6, 2, 1), lambda: subset_objects(7, 3, 1),
], ids=["zk4", "zk9", "m6", "m7a3"])
def test_certify_matches_set_algebra(make):
    # seeded random J-sets of every density, with an empty J-set and one
    # that holds every color, and the family's own J-sets
    obj = make()
    rng = random.Random(obj.num_a)
    js = [tuple(map(mask_set, default_j_sets(obj)))]
    for _ in range(12):
        p = rng.random()
        j = [frozenset(c for c in range(obj.k) if rng.random() < p)
             for _ in range(obj.num_a)]
        j[rng.randrange(obj.num_a)] = frozenset()
        j[rng.randrange(obj.num_a)] = frozenset(range(obj.k))
        js.append(tuple(j))
    for j in js:
        assert (certify_gap(obj, tuple(map(set_mask, j)))
                == certify_reference(obj, j))


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
    full = tuple(set_mask(range(zk4_objects.k))
                 for _ in zk4_objects.a_labels)
    cert = certify_gap(zk4_objects, full)
    assert cert.alpha == Fraction(zk4_objects.d, zk4_objects.k) == Fraction(1, 2)
    assert all(res == 0 for _, _, res in cert.per_u)


def test_certify_rejects_wrong_length(zk4_objects):
    with pytest.raises(ValueError):
        certify_gap(zk4_objects, (set_mask(()),))


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
    assert res.fixed_a == "{1,2}"
    assert res.value == Fraction(2, 3) + 2  # one root edge, two copy edges
    assert len(res.opened_a) == 1 and len(res.opened_b) == 2


# The node counts and opened sets below pin the search order (branching
# color, child order, child filter, greedy incumbent, the fixed A-vertex):
# a change to any of them moves these figures.

def test_structured_zk9(zk9_instance):
    res = solve_structured(zk9_instance)
    assert res.optimal
    assert res.value == res.lower_bound == 6
    assert res.nodes == 2_427
    assert res.fixed_a == "{1,2,3}"
    assert res.opened_a == ("{1,2,3}", "{5,6,7}")
    assert res.opened_b == ("{1,2,3,4}", "{1,2,3,9}", "{5,6,7,8}")


def test_structured_subset_m6(subset_m6_instance):
    res = solve_structured(subset_m6_instance)
    assert res.optimal
    assert res.value == 5
    assert res.nodes == 123
    assert res.fixed_a == "{1,2}"
    assert res.opened_a == ("{1,2}", "{3,4}")
    assert res.opened_b == ("{1,2,3,4}", "{1,2,5,6}", "{3,4,5,6}")


def test_structured_subset_m7a3():
    inst = build_instance(subset_objects(7, 3, 1))
    res = solve_structured(inst)
    assert res.optimal
    assert res.value == Fraction(21, 5)
    assert res.nodes == 1_681
    assert res.fixed_a == "{1,2,3}"
    assert res.opened_a == ("{1,2,3}",)
    assert res.opened_b == ("{1,2,3,4,5,6}", "{1,2,3,4,5,7}",
                                     "{1,2,3,4,6,7}", "{1,2,3,5,6,7}")


def test_structured_ignores_claimed_d_prime(zk9_instance):
    # the bound divides by max |K_v| from the instance's edges, not by the
    # objects' d': objects that keep one edge per B-vertex have d' = 1, and
    # trusting it would prune the whole tree at the root
    obj = zk9_instance.provenance
    first = {b: (a, b, c) for a, b, c in reversed(obj.edges)}
    lying = zk9_instance._replace(
        provenance=obj._replace(edges=tuple(sorted(first.values()))))
    assert (lying.provenance.d_prime, obj.d_prime) == (1, 4)
    res = solve_structured(lying)
    assert res.optimal and res.value == 6
    assert res.nodes == 2_427
    short = solve_structured(lying, budget=5)
    assert short.lower_bound == Fraction(15, 4)


def test_structured_toy():
    res = solve_structured(toy_instance())
    assert res.optimal and res.value == 2  # |B|/|A| + 1


def test_structured_budget_exhaustion(zk9_instance):
    # the budget counts candidate B-vertices examined: the first node's
    # branching color has 56 candidates, more than 5, so the search stops
    # before it expands that node
    res = solve_structured(zk9_instance, budget=5)
    assert not res.optimal
    assert res.nodes == 1
    assert res.value == 6
    # k/d' + |B|/|A| = 9/4 + 3/2
    assert res.lower_bound == Fraction(15, 4)
    assert solve_structured(zk9_instance, budget=56).nodes == 2


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
    opened_b = solve_structured(subset_m6_instance).opened_b
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
    s = solve_structured(inst)
    # the omitted edges break the full cycle; the transposition (1 2), if
    # kept, fixes A-vertex {1,2}, so its orbit is not all of A
    assert s.fixed_a is None
    assert s.optimal and s.value == 5


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
    assert s.fixed_a is None
    assert s.value == b.value == s.lower_bound == Fraction(10, 3)
    lp = solve_lp_exact(inst)
    assert lp.certified and lp.optimal_value <= s.value


def test_structured_fixes_a_only_when_transitive(zk4_instance):
    # zk4 less one copy edge: with {1,2,3}' or {1,2,4}' cut off, every
    # solution that opens A-vertex {1,2} costs 10/3, but the optimum is
    # still 8/3 through another A-vertex.  The search may open {1,2} first
    # only when the automorphisms checked on the file are transitive on A.
    data = instance_to_dict(zk4_instance)
    for v in map(zk4_instance.labels.__getitem__,
                 zk4_instance.level_ids(2)):
        cut = dict(data, edges=[e for e in data["edges"]
                                if (e["tail"], e["head"]) != (v, v + "'")])
        inst = instance_from_dict(cut)
        s, b = solve_structured(inst), brute_force_opt(inst)
        assert s.fixed_a is None
        assert s.optimal and s.value == b.value == Fraction(8, 3), v


def _a_label_names_no_set(inst):
    """The instance's file with its first A-label renamed "x0"."""
    data = instance_to_dict(inst)
    old = data["levels"][1][0]
    data["levels"][1][0] = "x0"
    for entry in data["edges"]:
        for key in ("tail", "head"):
            if entry[key] == old:
                entry[key] = "x0"
    return instance_from_dict(data)


def _zk4_far_ground():
    """zk4 with its ground set 1, 2, 3, 4 written -7, 0, 5, 10**30."""
    far = {1: -7, 2: 0, 3: 5, 4: 10**30}
    obj = zk_objects(4)

    def moved(label):
        return set_label(far[x] for x in label_set(label))

    return build_instance(obj._replace(
        a_labels=tuple(map(moved, obj.a_labels)),
        b_labels=tuple(map(moved, obj.b_labels)),
        color_labels=tuple(str(far[int(c)]) for c in obj.color_labels)))


def _zk4_a_label_repeats_an_element():
    """zk4 with its first A-label, {1,2}, written "{2,1,1}"."""
    obj = zk_objects(4)
    assert obj.a_labels[0] == "{1,2}"
    return build_instance(obj._replace(
        a_labels=("{2,1,1}",) + obj.a_labels[1:]))


@pytest.mark.parametrize("make, ground, reps, fixed_a, nodes", [
    (lambda: build_instance(zk_objects(4)), (1, 2, 3, 4), ["1"], "{1,2}", 3),
    (lambda: build_instance(zk_objects(9)), tuple(range(1, 10)), ["1"],
     "{1,2,3}", 2427),
    (lambda: build_instance(subset_objects(6, 2, 1)), tuple(range(1, 7)),
     ["{1,2}"], "{1,2}", 123),
    (lambda: build_instance(subset_objects(7, 3, 1)), tuple(range(1, 8)),
     ["{1,2,3}"], "{1,2,3}", 1681),
    (lambda: _a_label_names_no_set(build_instance(zk_objects(4))), (),
     ["1", "2", "3", "4"], None, 10),
    (_zk4_far_ground, (-7, 0, 5, 10**30), ["-7"], "{-7,0}", 3),
    (_zk4_a_label_repeats_an_element, (1, 2, 3, 4), ["1"], "{2,1,1}", 3),
], ids=["zk4", "zk9", "m6", "m7a3", "label-names-no-set", "zk4-far-ground",
        "zk4-repeated-element"])
def test_symmetry_found_on_labels_and_edges(make, ground, reps, fixed_a,
                                            nodes):
    # the label automorphisms are checked on the file's edges alone: verify
    # keeps those that keep x, and the search opens an A-vertex first only
    # where they are transitive on A.  Both the full cycle of the sorted
    # ground set and the transposition of its two smallest elements are
    # kept, whatever the elements are and however often a label names one
    inst = make()
    rep = verify_feasibility(inst, canonical_solution(inst))
    assert [g.cycle for g in rep.automorphisms] \
        == ([ground, ground[:2]] if ground else [])
    assert [inst.labels[t] for t in rep.representatives] == reps
    res = solve_structured(inst)
    assert (res.fixed_a, res.nodes) == (fixed_a, nodes)


def test_brute_size_cap(zk9_instance):
    with pytest.raises(SizeCapError):
        brute_force_opt(zk9_instance)  # |A| + |B| = 210


def test_brute_reports_isolated_terminal(zk4_instance):
    t = next(iter(zk4_instance.terminals))
    keep = [i for i, (k, w) in enumerate(zip(zk4_instance.classes,
                                              zk4_instance.heads))
            if not (k == E4 and w == t)]
    bad = zk4_instance._replace(**{
        col: tuple(getattr(zk4_instance, col)[i] for i in keep)
        for col in ("tails", "heads", "colors")})
    res = brute_force_opt(bad)
    assert not res.feasible
    assert res.value is None
    assert res.unreachable == (zk4_instance.labels[t],)
