import os
import random
import subprocess
import sys
import textwrap
from collections import deque
from fractions import Fraction

import pytest

import dstgap

from dstgap.families import SubsetFamilyParams, subset_objects
from dstgap.flows import (
    FractionalSolution,
    canonical_solution,
    check_path_witness,
    max_flow_value,
    path_witness,
    solution_cost,
    verify_feasibility,
)
from dstgap.lp import DEFAULT_VAR_CAP, solve_lp_exact
from dstgap.model import E1, E3, build_instance

from _util import toy_instance


@pytest.fixture(scope="module")
def subset_m8_instance():
    return build_instance(subset_objects(SubsetFamilyParams(8, 2, 1)))


# ---------------------------------------------------------------------------
# canonical solution

def test_canonical_zk9(zk9_instance):
    sol = canonical_solution(zk9_instance)
    assert set(sol.x) == {Fraction(1, 56)}
    assert solution_cost(zk9_instance, sol) == Fraction(9, 2)


def test_canonical_subset_m8(subset_m8_instance):
    sol = canonical_solution(subset_m8_instance)
    assert set(sol.x) == {Fraction(1, 15)}
    assert solution_cost(subset_m8_instance, sol) == Fraction(2 * 70, 15) == Fraction(28, 3)


def test_canonical_degenerate_s1(subset_m4_instance):
    # m=4, a=2 has s=1: unit capacities, cost 2|B|
    sol = canonical_solution(subset_m4_instance)
    assert set(sol.x) == {Fraction(1)}
    assert solution_cost(subset_m4_instance, sol) == 2 * 1


def test_solution_rejects_negative():
    with pytest.raises(ValueError):
        FractionalSolution((Fraction(-1, 2),))


# ---------------------------------------------------------------------------
# max-flow

def test_max_flow_canonical_is_one(zk4_instance):
    sol = canonical_solution(zk4_instance)
    for t in zk4_instance.terminals:
        res = max_flow_value(zk4_instance, sol, t)
        assert res.value == 1
        assert res.cut_capacity == res.value
        assert res.cut_edges


def test_max_flow_all_zero(zk4_instance):
    zero = FractionalSolution(tuple(Fraction(0) for _ in zk4_instance.edges))
    t = next(iter(zk4_instance.terminals))
    res = max_flow_value(zk4_instance, zero, t)
    assert res.value == 0
    # the min cut is exactly the edges out of the root
    e1 = tuple(i for i, e in enumerate(zk4_instance.edges) if e.klass == E1)
    assert res.cut_edges == e1
    assert res.source_side == frozenset({zk4_instance.root})


def test_max_flow_scales_linearly(zk4_instance):
    sol = canonical_solution(zk4_instance)
    doubled = FractionalSolution(tuple(2 * v for v in sol.x))
    for t in zk4_instance.terminals:
        assert max_flow_value(zk4_instance, doubled, t).value == 2


# ---------------------------------------------------------------------------
# feasibility

def test_canonical_feasible_everywhere(zk4_instance, subset_m6_instance,
                                       subset_m8_instance):
    for inst in (zk4_instance, subset_m6_instance, subset_m8_instance):
        rep = verify_feasibility(inst, canonical_solution(inst))
        assert rep.feasible
        assert all(e.value == 1 for e in rep.entries)
        assert len(rep.entries) == inst.provenance.k


def test_zeroed_e3_edge_breaks_feasibility(zk4_instance):
    inst = zk4_instance
    sol = canonical_solution(inst)
    idx = next(i for i, e in enumerate(inst.edges) if e.klass == E3)
    x = list(sol.x)
    x[idx] = Fraction(0)
    rep = verify_feasibility(inst, FractionalSolution(tuple(x)))
    assert not rep.feasible
    failing = rep.failing()
    # the terminals colored at that B-vertex each lose one of their 3 paths
    assert failing and all(e.value == 1 - Fraction(1, 3) for e in failing)
    assert all(e.cut.cut_capacity == e.value for e in failing)


def _mixed_denominator_solutions(inst):
    canon = canonical_solution(inst)
    zeroed = list(canon.x)
    zeroed[next(i for i, e in enumerate(inst.edges) if e.klass == E3)] = \
        Fraction(0)
    return [
        FractionalSolution(tuple(zeroed)),
        solve_lp_exact(inst).x_opt,
        FractionalSolution(tuple(Fraction(1, 2 + i % 5)
                                 for i in range(len(inst.edges)))),
    ]


def test_shared_network_matches_fresh_max_flow(zk4_instance):
    # one network serves every terminal; its capacities must be restored
    # between runs, whatever the terminal order
    inst = zk4_instance
    for sol in _mixed_denominator_solutions(inst):
        assert len({v.denominator for v in sol.x}) > 1
        fresh = {t: max_flow_value(inst, sol, t) for t in inst.terminals}
        for order in (list(inst.terminals), list(reversed(inst.terminals))):
            rep = verify_feasibility(inst, sol, terminals=order)
            assert [e.terminal for e in rep.entries] == order
            for e in rep.entries:
                f = fresh[e.terminal]
                assert e.value == f.value == e.cut.cut_capacity
                assert e.cut.cut_edges == f.cut_edges
                assert e.cut.source_side == f.source_side


def _oracle_max_flow(inst, x, t):
    """Shortest augmenting paths over Fraction capacities; independent of
    flows._Dinic.  Returns the value, the edges leaving the residual-
    reachable set of the root, and that set."""
    edges = inst.edges
    out_edges = [[] for _ in range(inst.n)]
    in_edges = [[] for _ in range(inst.n)]
    for j, e in enumerate(edges):
        out_edges[e.tail].append(j)
        in_edges[e.head].append(j)
    flow = [Fraction(0)] * len(edges)
    value = Fraction(0)
    while True:
        prev = {inst.root: None}  # vertex -> (edge, +1 forward / -1 back)
        queue = deque([inst.root])
        while queue:
            v = queue.popleft()
            for j in out_edges[v]:
                w = edges[j].head
                if w not in prev and flow[j] < x[j]:
                    prev[w] = (j, 1)
                    queue.append(w)
            for j in in_edges[v]:
                w = edges[j].tail
                if w not in prev and flow[j] > 0:
                    prev[w] = (j, -1)
                    queue.append(w)
        if t not in prev:
            break
        steps, v = [], t
        while prev[v] is not None:
            j, sign = prev[v]
            steps.append((j, sign))
            v = edges[j].tail if sign > 0 else edges[j].head
        delta = min(x[j] - flow[j] if sign > 0 else flow[j]
                    for j, sign in steps)
        for j, sign in steps:
            flow[j] += sign * delta
        value += delta
    cut = tuple(j for j, e in enumerate(edges)
                if e.tail in prev and e.head not in prev)
    assert sum((x[j] for j in cut), Fraction(0)) == value
    return value, cut, frozenset(prev)


def _oracle_solutions(inst):
    canon = canonical_solution(inst)
    zeroed = list(canon.x)
    zeroed[next(i for i, e in enumerate(inst.edges) if e.klass == E3)] = \
        Fraction(0)
    # sparse random capacities: on zk4 and m6 some of these need augmenting
    # paths that cancel flow along a reverse arc
    noisy = []
    for seed in range(3):
        rng = random.Random(seed)
        noisy.append(FractionalSolution(tuple(
            Fraction(rng.choice((0, 0, 1, 2, 3)), rng.randint(1, 4))
            for _ in inst.edges)))
    # the root reaches every other terminal, but not the first one
    t0 = inst.terminals[0]
    cut_off = [Fraction(0) if e.head == t0 else canon.x[i]
               for i, e in enumerate(inst.edges)]
    sols = [canon, FractionalSolution(tuple(zeroed)),
            FractionalSolution(tuple(Fraction(1, 2 + i % 5)
                                     for i in range(len(inst.edges)))),
            *noisy]
    if len(inst.edges) <= DEFAULT_VAR_CAP:  # m6's LP is over the cap
        sols.append(solve_lp_exact(inst).x_opt)
    return sols + [FractionalSolution(tuple(cut_off))]


@pytest.mark.parametrize("name", ["zk4", "subset_m4", "subset_m6"])
def test_max_flow_matches_oracle(name, request):
    inst = request.getfixturevalue(f"{name}_instance")
    for sol in _oracle_solutions(inst):
        rep = verify_feasibility(inst, sol)
        assert [e.terminal for e in rep.entries] == list(inst.terminals)
        for e in rep.entries:
            value, cut, side = _oracle_max_flow(inst, sol.x, e.terminal)
            assert e.value == e.cut.cut_capacity == value
            assert e.cut.cut_edges == cut
            assert e.cut.source_side == side
    # the last solution cuts the first terminal off, and only it: the root
    # still reaches every other terminal
    first, *rest = rep.entries
    assert first.value == 0 and all(e.value == 1 for e in rest)
    assert first.cut.source_side >= set(inst.terminals[1:])


def test_cut_mismatch_raises_under_optimize():
    # the flow/cut equality is an explicit check, not an assert, so it
    # still runs under python -O
    code = textwrap.dedent("""
        import sys
        from dstgap import build_instance, flows, zk_objects
        if __debug__:
            sys.exit("not running under -O")
        real = flows._Dinic.max_flow
        flows._Dinic.max_flow = lambda self, s, t: real(self, s, t) + 1
        inst = build_instance(zk_objects(4))
        try:
            flows.verify_feasibility(inst, flows.canonical_solution(inst))
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
    assert "max-flow/min-cut mismatch" in proc.stdout


def test_empty_terminal_set_vacuous(zk4_instance):
    rep = verify_feasibility(zk4_instance, canonical_solution(zk4_instance),
                             terminals=[])
    assert rep.feasible and rep.entries == ()


# ---------------------------------------------------------------------------
# path witnesses

def test_witness_zk4(zk4_instance):
    sol = canonical_solution(zk4_instance)
    for t in zk4_instance.terminals:
        w = path_witness(zk4_instance, t)
        assert len(w.paths) == 3
        assert sum(w.weights) == 1
        assert check_path_witness(zk4_instance, w, sol)


def test_witness_subset_m8(subset_m8_instance):
    t = next(iter(subset_m8_instance.terminals))
    w = path_witness(subset_m8_instance, t)
    assert len(w.paths) == 15
    assert check_path_witness(subset_m8_instance, w,
                              canonical_solution(subset_m8_instance))


def test_witness_paths_disjoint(zk9_instance):
    t = next(iter(zk9_instance.terminals))
    w = path_witness(zk9_instance, t)
    seen_edges, seen_inner = set(), set()
    for path in w.paths:
        assert not (seen_edges & set(path))
        seen_edges |= set(path)
        inner = {zk9_instance.edges[i].head for i in path[:-1]}
        assert not (seen_inner & inner)  # vertex-disjoint except at r and t
        seen_inner |= inner


def test_witness_rejects_non_terminal(zk4_instance):
    with pytest.raises(ValueError):
        path_witness(zk4_instance, zk4_instance.root)


def test_check_witness_rejects_tampering(zk4_instance):
    sol = canonical_solution(zk4_instance)
    t = next(iter(zk4_instance.terminals))
    w = path_witness(zk4_instance, t)

    # weights that do not sum to 1
    bad = type(w)(w.terminal, w.paths, (Fraction(1, 2),) * len(w.paths))
    assert not check_path_witness(zk4_instance, bad, sol)

    # unit sum but overloading one path beyond x_e = 1/3
    skew = (Fraction(2, 3), Fraction(1, 3), Fraction(0))
    bad = type(w)(w.terminal, w.paths, skew)
    assert not check_path_witness(zk4_instance, bad, sol)

    # a path that does not start at the root
    bad = type(w)(w.terminal, (w.paths[0][1:],) + w.paths[1:], w.weights)
    assert not check_path_witness(zk4_instance, bad, sol)


def test_toy_witness():
    inst = toy_instance()
    t = next(iter(inst.terminals))
    w = path_witness(inst, t)
    assert len(w.paths) == 1 and w.weights == (Fraction(1),)
    assert check_path_witness(inst, w, canonical_solution(inst))
