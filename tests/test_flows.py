import os
import random
import subprocess
import sys
import textwrap
from collections import deque
from fractions import Fraction

import pytest

import dstgap

from dstgap.families import subset_objects, zk_objects
from dstgap.flows import (
    FractionalSolution,
    PathWitness,
    canonical_solution,
    check_path_witness,
    max_flow_value,
    path_witness,
    solution_cost,
    verify_feasibility,
)
from dstgap.lp import DEFAULT_VAR_CAP, solve_lp_exact
from dstgap.model import (
    E3,
    build_instance,
    instance_from_dict,
    instance_to_dict,
)

from _util import (
    e3_edge_left_out,
    e4_edge_left_out,
    permuted_subset_objects,
    toy_instance,
)


@pytest.fixture(scope="module")
def subset_m8_instance():
    return build_instance(subset_objects(8, 2, 1))


# ---------------------------------------------------------------------------
# canonical solution

def test_canonical_zk9(zk9_instance):
    sol = canonical_solution(zk9_instance)
    assert set(sol.x) == {Fraction(1, 56)}
    assert sol.scale == 56 and set(sol.caps) == {1}
    assert solution_cost(zk9_instance, sol) == Fraction(9, 2)
    # _replace makes the integer form again
    half = sol._replace(x=(Fraction(1, 2),) + sol.x[1:])
    assert half.scale == 56 and half.caps[:2] == (28, 1)


def test_canonical_subset_m8(subset_m8_instance):
    sol = canonical_solution(subset_m8_instance)
    assert set(sol.x) == {Fraction(1, 15)}
    assert solution_cost(subset_m8_instance, sol) == Fraction(2 * 70, 15) == Fraction(28, 3)


def test_canonical_degenerate_s1(subset_m4_instance):
    # m=4, a=2 has s=1: unit capacities, cost 2|B|
    sol = canonical_solution(subset_m4_instance)
    assert set(sol.x) == {Fraction(1)}
    assert solution_cost(subset_m4_instance, sol) == 2 * 1


def test_canonical_integer_form(zk9_instance, subset_m8_instance,
                                subset_m4_instance):
    # canonical_solution sets scale s and unit caps without reading x: the
    # integer form FractionalSolution reads off the same x
    for inst in (zk9_instance, subset_m8_instance, subset_m4_instance):
        sol = canonical_solution(inst)
        made = FractionalSolution(sol.x)
        assert (sol, sol.scale, sol.caps) == (made, made.scale, made.caps)
        assert sol.scale == inst.provenance.s


def test_solution_rejects_negative():
    with pytest.raises(ValueError):
        FractionalSolution((Fraction(-1, 2),))
    with pytest.raises(ValueError):
        FractionalSolution((Fraction(1, 2),))._replace(x=(Fraction(-1),))


# ---------------------------------------------------------------------------
# max-flow

def _cut_capacity(sol, flow):
    return sum((sol.x[i] for i in flow.cut_edges), Fraction(0))


def test_max_flow_canonical_is_one(zk4_instance):
    inst = zk4_instance
    sol = canonical_solution(inst)
    for t in inst.terminals:
        res = max_flow_value(inst, sol, t)
        assert res.value == 1
        assert _cut_capacity(sol, res) == res.value
        # x = 1/s saturates t's s in-edges, so the sink side is {t} alone
        into_t = tuple(i for i, w in enumerate(inst.heads) if w == t)
        assert len(into_t) == inst.provenance.s
        assert res.cut_edges == into_t
        assert res.sink_side == {t}


def test_max_flow_all_zero(zk4_instance):
    zero = FractionalSolution(tuple(Fraction(0) for _ in zk4_instance.tails))
    t = next(iter(zk4_instance.terminals))
    res = max_flow_value(zk4_instance, zero, t)
    assert res.value == 0
    # nothing reaches t, so the sink side is {t} alone and the cut is t's
    # in-edges
    into_t = tuple(i for i, w in enumerate(zk4_instance.heads) if w == t)
    assert len(into_t) == 3
    assert res.cut_edges == into_t
    assert res.sink_side == {t}


def test_max_flow_scales_linearly(zk4_instance):
    sol = canonical_solution(zk4_instance)
    doubled = FractionalSolution(tuple(2 * v for v in sol.x))
    for t in zk4_instance.terminals:
        assert max_flow_value(zk4_instance, doubled, t).value == 2


@pytest.mark.parametrize("where", ["root", "n"])
def test_a_listed_vertex_must_be_a_terminal(where, zk4_instance):
    # the root and vertex n are named as no terminal, before any max-flow
    # runs (which would take min() of an empty path at the root, and
    # index past the network at n)
    inst = zk4_instance
    sol = canonical_solution(inst)
    v = inst.root if where == "root" else inst.n
    message = f"^vertex {v} is not a terminal$"
    with pytest.raises(ValueError, match=message):
        verify_feasibility(inst, sol, terminals=[inst.terminals[0], v, -1])
    with pytest.raises(ValueError, match=message):
        max_flow_value(inst, sol, v)


def test_a_negative_vertex_is_not_a_terminal():
    # -1 would index the last vertex from the end, and a max-flow to it
    # would repeat a phase that pushes nothing: a child with a timeout, so
    # that such a loop fails the test rather than hangs it
    code = textwrap.dedent("""
        from dstgap import build_instance, flows, zk_objects
        inst = build_instance(zk_objects(4))
        sol = flows.canonical_solution(inst)
        for call in (lambda: flows.verify_feasibility(inst, sol, [-1]),
                     lambda: flows.max_flow_value(inst, sol, -1)):
            try:
                call()
            except ValueError as exc:
                print(exc)
    """)
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["vertex -1 is not a terminal"] * 2


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
    idx = inst.classes.index(E3)
    x = list(sol.x)
    x[idx] = Fraction(0)
    sol = FractionalSolution(tuple(x))
    rep = verify_feasibility(inst, sol)
    assert not rep.feasible
    failing = rep.failing()
    # the terminals colored at that B-vertex each lose one of their 3 paths
    assert failing and all(e.value == 1 - Fraction(1, 3) for e in failing)
    assert all(_cut_capacity(sol, e) == e.value for e in failing)


def _mixed_denominator_solutions(inst):
    canon = canonical_solution(inst)
    zeroed = list(canon.x)
    zeroed[inst.classes.index(E3)] = Fraction(0)
    return [
        FractionalSolution(tuple(zeroed)),
        solve_lp_exact(inst).x_opt,
        FractionalSolution(tuple(Fraction(1, 2 + i % 5)
                                 for i in range(len(inst.tails)))),
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
                assert e.value == f.value == _cut_capacity(sol, e)
                assert e.cut_edges == f.cut_edges
                assert e.sink_side == f.sink_side


def _oracle_max_flow(inst, x, t):
    """Shortest augmenting paths over Fraction capacities; independent of
    flows._Dinic.  Returns the value, the edges into the set of vertices
    that still reach t in the final residual network, and that set: the
    sink side of the min cut whose source side is the largest."""
    tails, heads = inst.tails, inst.heads
    out_edges = [[] for _ in range(inst.n)]
    in_edges = [[] for _ in range(inst.n)]
    for j, (u, w) in enumerate(zip(tails, heads)):
        out_edges[u].append(j)
        in_edges[w].append(j)
    flow = [Fraction(0)] * len(tails)
    value = Fraction(0)
    while True:
        prev = {inst.root: None}  # vertex -> (edge, +1 forward / -1 back)
        queue = deque([inst.root])
        while queue:
            v = queue.popleft()
            for j in out_edges[v]:
                w = heads[j]
                if w not in prev and flow[j] < x[j]:
                    prev[w] = (j, 1)
                    queue.append(w)
            for j in in_edges[v]:
                w = tails[j]
                if w not in prev and flow[j] > 0:
                    prev[w] = (j, -1)
                    queue.append(w)
        if t not in prev:
            break
        steps, v = [], t
        while prev[v] is not None:
            j, sign = prev[v]
            steps.append((j, sign))
            v = tails[j] if sign > 0 else heads[j]
        delta = min(x[j] - flow[j] if sign > 0 else flow[j]
                    for j, sign in steps)
        for j, sign in steps:
            flow[j] += sign * delta
        value += delta
    # backward search from t: u reaches w in the residual network over an
    # unsaturated edge u -> w or a flow-carrying edge w -> u
    sink = {t}
    stack = [t]
    while stack:
        w = stack.pop()
        for j in in_edges[w]:
            if tails[j] not in sink and flow[j] < x[j]:
                sink.add(tails[j])
                stack.append(tails[j])
        for j in out_edges[w]:
            if heads[j] not in sink and flow[j] > 0:
                sink.add(heads[j])
                stack.append(heads[j])
    cut = tuple(j for j, (u, w) in enumerate(zip(tails, heads))
                if u not in sink and w in sink)
    assert sum((x[j] for j in cut), Fraction(0)) == value
    return value, cut, frozenset(sink)


def _oracle_solutions(inst):
    canon = canonical_solution(inst)
    zeroed = list(canon.x)
    zeroed[inst.classes.index(E3)] = Fraction(0)
    # sparse random capacities: on zk4 and m6 some of these need augmenting
    # paths that cancel flow along a reverse arc
    noisy = []
    for seed in range(3):
        rng = random.Random(seed)
        noisy.append(FractionalSolution(tuple(
            Fraction(rng.choice((0, 0, 1, 2, 3)), rng.randint(1, 4))
            for _ in inst.tails)))
    # the root reaches every other terminal, but not the first one
    t0 = inst.terminals[0]
    cut_off = [Fraction(0) if w == t0 else canon.x[i]
               for i, w in enumerate(inst.heads)]
    sols = [canon, FractionalSolution(tuple(zeroed)),
            FractionalSolution(tuple(Fraction(1, 2 + i % 5)
                                     for i in range(len(inst.tails)))),
            *noisy]
    if len(inst.tails) <= DEFAULT_VAR_CAP:  # m6's LP is over the cap
        sols.append(solve_lp_exact(inst).x_opt)
    return sols + [FractionalSolution(tuple(cut_off))]


def _e1_edge_left_out(inst):
    """The instance that inst's file loads as with its first root edge
    left out."""
    data = instance_to_dict(inst)
    del data["edges"][next(i for i, e in enumerate(data["edges"])
                           if e["tail"] == "r")]
    return instance_from_dict(data)


# name -> the instance.  Under the canonical solution the path witness
# certifies every terminal of the family instances; on the two less an
# edge, it fails at some terminals, whose max-flow Dinic finds
ORACLE_CASES = {
    "zk4": lambda request: request.getfixturevalue("zk4_instance"),
    "subset_m4": lambda request: request.getfixturevalue("subset_m4_instance"),
    "subset_m6": lambda request: request.getfixturevalue("subset_m6_instance"),
    "zk9-less-e3": lambda request: e3_edge_left_out(
        request.getfixturevalue("zk9_instance"), True),
    "zk4-less-e1": lambda request: _e1_edge_left_out(
        request.getfixturevalue("zk4_instance")),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_max_flow_matches_oracle(name, request):
    inst = ORACLE_CASES[name](request)
    canon = verify_feasibility(inst, canonical_solution(inst))
    certified = tuple(t for t, ok in canon.witnessed if ok)
    if "less" in name:  # both the certificate and Dinic ran
        assert 0 < len(certified) < len(canon.representatives)
    else:
        assert certified == canon.representatives
    for sol in _oracle_solutions(inst):
        rep = verify_feasibility(inst, sol)
        assert [e.terminal for e in rep.entries] == list(inst.terminals)
        for e in rep.entries:
            value, cut, side = _oracle_max_flow(inst, sol.x, e.terminal)
            assert e.value == _cut_capacity(sol, e) == value
            assert e.cut_edges == cut
            assert e.sink_side == side
    # the last solution cuts the first terminal off, and only it: every
    # other terminal keeps its canonical max-flow, which is 1 on the family
    # instances
    first, *rest = rep.entries
    assert first.value == 0
    assert [e.value for e in rest] == [e.value for e in canon.entries[1:]]
    assert "less" in name or all(e.value == 1 for e in rest)
    assert first.sink_side.isdisjoint(inst.terminals[1:])


def test_every_representative_has_one_witness_verdict(zk9_instance):
    # zk9 less one E4 edge keeps no automorphism, so every terminal is a
    # representative.  Terminal 1's in-edges hold (s - 1)/s and its
    # witness needs the missing edge: its verdict is reported as failed,
    # beside the holding ones, and Dinic finds its max-flow
    inst = e4_edge_left_out(zk9_instance)
    rep = verify_feasibility(inst, canonical_solution(inst))
    t1, *rest = inst.terminals
    assert inst.labels[t1] == "1"
    assert rep.witnessed == ((t1, False), *((t, True) for t in rest))
    assert rep.representatives == tuple(inst.terminals)
    assert [e.terminal for e in rep.failing()] == [t1]
    assert rep.entries[0].value == Fraction(55, 56)


def test_cut_mismatch_raises_under_optimize():
    # the flow/cut equality is an explicit check, not an assert, so it
    # still runs under python -O: on a terminal whose max-flow is run, and
    # on one whose sink side is mapped from its orbit representative's.
    # Dinic runs where a terminal's in-edges do not hold one unit, as under
    # x = 1 on every edge, or where check_path_witness rejects the witness:
    # its entries are then Dinic's, and equal the certified ones
    code = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from dstgap import build_instance, flows, model, zk_objects
        if __debug__:
            sys.exit("not running under -O")
        inst = build_instance(zk_objects(4))

        def check(sol):
            try:
                flows.verify_feasibility(inst, sol)
            except RuntimeError as exc:
                print(exc)
            else:
                sys.exit("no error raised")

        real = flows._Dinic.max_flow
        flows._Dinic.max_flow = lambda self, s, t: real(self, s, t) + 1
        check(flows.FractionalSolution((Fraction(1),) * len(inst.tails)))
        runs = []
        flows._Dinic.max_flow = lambda self, s, t: runs.append(t) or real(
            self, s, t)
        canon = flows.canonical_solution(inst)
        certified = flows.verify_feasibility(inst, canon)
        print(len(runs), certified.witnessed == ((inst.terminals[0], True),))
        # weights of 1/2, 1/2 and 0 sum to 1, but 1/2 is over x = 1/3
        witness = flows.path_witness
        flows.path_witness = lambda inst, t: witness(inst, t)._replace(
            weights=(Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        fallback = flows.verify_feasibility(inst, canon)
        print(len(runs), fallback.witnessed == ((inst.terminals[0], False),),
              fallback.entries == certified.entries)
        flows._Dinic.max_flow, flows.path_witness = real, witness
        # E3 edges of 1/3 under E4 edges of 1: the first terminal's sink
        # side holds its in-neighbours, which a map that moves only the
        # first two terminals does not carry to the second's
        t0, t1, *rest = inst.terminals
        vmap = list(range(inst.n))
        vmap[t0], vmap[t1] = t1, t0
        moved = flows.Automorphism((), vmap)
        flows.orbit_tree = lambda vertices, automorphisms: {
            t0: None, t1: (t0, moved), **dict.fromkeys(rest)}
        check(flows.FractionalSolution(tuple(
            Fraction(1, 3 if k == model.E3 else 1) for k in inst.classes)))
    """)
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    run, certified, fallback, mapped = proc.stdout.splitlines()
    assert run == "max-flow/min-cut mismatch at terminal 1: flow 4, " \
        "cut capacity 3"
    assert certified == "0 True"
    assert fallback == "1 True True"
    assert mapped == "max-flow/min-cut mismatch at terminal 2: flow 1, " \
        "cut capacity 2"


# ---------------------------------------------------------------------------
# terminal orbits

def _family_deleted(inst):
    data = instance_to_dict(inst)
    del data["meta"]["family"]
    return instance_from_dict(data)


def _subset(m, a):
    return build_instance(subset_objects(m, a, 0))


def _relabeled_m5():
    obj = subset_objects(5, 2, 0)
    perm = [1, 2, 3, 4, 5]
    random.Random(5).shuffle(perm)
    return build_instance(permuted_subset_objects(obj, dict(zip(range(1, 6),
                                                                perm))))


FULL = ["cycle", "(1 2)"]

# name -> (instance, the generators kept under the canonical solution)
ORBIT_CASES = {
    "zk4": (lambda: build_instance(zk_objects(4)), FULL),
    "zk9": (lambda: build_instance(zk_objects(9)), FULL),
    "m4": (lambda: _subset(4, 2), FULL),
    "m6": (lambda: _subset(6, 2), FULL),
    "m8": (lambda: _subset(8, 2), FULL),
    "m10a3": (lambda: _subset(10, 3), FULL),
    "toy": (toy_instance, []),
    "m5-relabeled": (_relabeled_m5, FULL),
    "zk9-e3-at-12": (lambda: e3_edge_left_out(build_instance(zk_objects(9)),
                                               True), ["(1 2)"]),
    "zk9-e3-at-1": (lambda: e3_edge_left_out(build_instance(zk_objects(9)),
                                              False), []),
    "m6-e3-at-12": (lambda: e3_edge_left_out(_subset(6, 2), True),
                    ["(1 2)"]),
    "m6-e3-at-1": (lambda: e3_edge_left_out(_subset(6, 2), False), []),
    "zk4-no-family": (lambda: _family_deleted(build_instance(zk_objects(4))),
                      FULL),
}


def _orbit_solutions(inst):
    """The canonical solution; the same with the first E3 edge at 0, which
    only the transposition keeps on a full family instance with more than
    one B-vertex; and sparse random capacities."""
    canon = canonical_solution(inst)
    zeroed = list(canon.x)
    zeroed[inst.classes.index(E3)] = Fraction(0)
    rng = random.Random(3)
    noisy = tuple(Fraction(rng.choice((0, 1, 2, 3)), rng.randint(1, 4))
                  for _ in inst.tails)
    return [canon, FractionalSolution(tuple(zeroed)),
            FractionalSolution(noisy)]


@pytest.mark.parametrize("name", list(ORBIT_CASES))
def test_orbit_path_matches_per_terminal_oracle(name):
    make, kept = ORBIT_CASES[name]
    inst = make()
    for n, sol in enumerate(_orbit_solutions(inst)):
        rep = verify_feasibility(inst, sol)
        oracle = [max_flow_value(inst, sol, t) for t in inst.terminals]
        assert [e.terminal for e in rep.entries] == list(inst.terminals)
        for e, direct in zip(rep.entries, oracle):
            assert e.value == direct.value == _cut_capacity(sol, e)
            assert e.cut_edges == direct.cut_edges
            assert e.sink_side == direct.sink_side
        cycles = ["cycle" if len(g.cycle) > 2 else
                  "(" + " ".join(map(str, g.cycle)) + ")"
                  for g in rep.automorphisms]
        if n == 0:
            assert cycles == kept
            if kept == FULL:
                assert rep.representatives == (inst.terminals[0],)
            if not kept:
                assert rep.representatives == tuple(inst.terminals)
        elif n == 1 and kept == FULL and inst.level_sizes[2] > 1:
            assert cycles == ["(1 2)"]


def test_explicit_terminals_run_directly(zk4_instance):
    rep = verify_feasibility(zk4_instance, canonical_solution(zk4_instance),
                             terminals=list(zk4_instance.terminals))
    assert rep.automorphisms == ()
    assert rep.representatives == tuple(zk4_instance.terminals)


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
        inner = {zk9_instance.heads[i] for i in path[:-1]}
        assert not (seen_inner & inner)  # vertex-disjoint except at r and t
        seen_inner |= inner


def test_witness_rejects_non_terminal(zk4_instance):
    with pytest.raises(ValueError):
        path_witness(zk4_instance, zk4_instance.root)


def test_witness_rejects_wrong_s(zk4_instance):
    # objects less one edge: its color has 2 matching edges, and s is 3,
    # the size of the other classes.  The loader refuses such objects; the
    # witness checks s on its own
    objects = zk4_instance.provenance
    color = objects.edges[0][2]
    fewer = zk4_instance._replace(
        provenance=objects._replace(edges=objects.edges[1:]))
    with pytest.raises(ValueError, match="2 matching edges, but s = 3"):
        path_witness(fewer, fewer.terminals[color])


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

    # each path carries 1/3: over x = 3/10 on every edge, within x = 7/20
    # (in integers, ceil(10/3) = 4 > 3 and ceil(20/3) = 7 <= 7)
    m = len(zk4_instance.tails)
    assert not check_path_witness(
        zk4_instance, w, FractionalSolution((Fraction(3, 10),) * m))
    assert check_path_witness(
        zk4_instance, w, FractionalSolution((Fraction(7, 20),) * m))


def test_check_witness_sums_mixed_denominators(zk4_instance):
    # the weights are summed in integers over their lcm, 30, which is no
    # one weight's denominator: 3/10 + 1/6 + 8/15 is 1, and with 1/2 or
    # 17/30 in place of 8/15 the sum is 1 - 1/30 or 1 + 1/30.  Under x = 1
    # every weight fits on its path
    w = path_witness(zk4_instance, zk4_instance.terminals[0])
    sol = FractionalSolution((Fraction(1),) * len(zk4_instance.tails))
    for last, ok in ((Fraction(8, 15), True), (Fraction(1, 2), False),
                     (Fraction(17, 30), False)):
        weights = (Fraction(3, 10), Fraction(1, 6), last)
        assert check_path_witness(zk4_instance, w._replace(weights=weights),
                                  sol) is ok


def test_toy_witness():
    inst = toy_instance()
    t = next(iter(inst.terminals))
    w = path_witness(inst, t)
    assert len(w.paths) == 1 and w.weights == (Fraction(1),)
    assert check_path_witness(inst, w, canonical_solution(inst))


def _reference_check_path_witness(inst, witness, sol):
    """check_path_witness as a walk over each path's edges in turn, with
    Fraction weights against x: the reference for its checks on all paths
    at once."""
    if sum(witness.weights, Fraction(0)) != 1:
        return False
    used = set()
    for path, w in zip(witness.paths, witness.weights):
        if w < 0 or used & set(path):
            return False
        used |= set(path)
        at, seen = inst.root, {inst.root}
        for i in path:
            if inst.tails[i] != at or inst.heads[i] in seen or w > sol.x[i]:
                return False
            at = inst.heads[i]
            seen.add(at)
        if at != witness.terminal:
            return False
    return True


def _random_witness(rng, inst):
    """A path witness of one of inst's terminals, or random walks from the
    root, each most often with one edit: an edge dropped, added or moved,
    a path copied or emptied, or the paths reordered.  Most weights are
    equal; the rest have any sign, one too many or too few."""
    m = len(inst.tails)
    terminal = rng.choice(inst.terminals)
    try:  # a graph with cycles has no path witness
        paths = [list(p) for p in path_witness(inst, terminal).paths]
    except KeyError:
        paths = None
    if paths is None or rng.random() < 0.5:
        paths = []
        for _ in range(rng.randint(1, 3)):
            at, path = inst.root, []
            for _ in range(rng.randint(1, 5)):
                out = [j for j in range(m) if inst.tails[j] == at]
                if not out:
                    break
                path.append(rng.choice(out))
                at = inst.heads[path[-1]]
            paths.append(path)
        terminal = at if rng.random() < 0.8 else terminal
    edit = rng.randrange(8)
    path = rng.choice(paths)
    if edit == 0 and path:
        path.pop()
    elif edit == 1:
        path.append(rng.randrange(m))
    elif edit == 2:
        paths.append(list(path))
    elif edit == 3:
        paths.append([])
    elif edit == 4 and path:
        path[rng.randrange(len(path))] = rng.randrange(m)
    elif edit == 5:
        rng.shuffle(paths)
    if rng.random() < 0.7:
        weights = [Fraction(1, len(paths))] * len(paths)
    else:
        weights = [Fraction(rng.randint(-1, 3), rng.randint(1, 6))
                   for _ in range(max(0, len(paths) + rng.randint(-1, 1)))]
        if weights:
            weights[-1] = 1 - sum(weights[:-1], Fraction(0))
    return PathWitness(terminal, tuple(map(tuple, paths)), tuple(weights))


def test_check_witness_matches_per_edge_reference(zk4_instance,
                                                  subset_m6_instance):
    # random and tampered witnesses on two family instances and on random
    # graphs with cycles, where a walk's vertex ids need not rise.  The
    # capacities are uniform, random, or each edge's largest weight on the
    # witness's paths, which holds a witness of unequal weights, at times
    # with one edge's lowered
    rng = random.Random(7)
    cyclic = [zk4_instance._replace(
        tails=tuple(rng.randrange(4) for _ in range(30)),
        heads=tuple(rng.randrange(5) for _ in range(30)),
        colors=(None,) * 30) for _ in range(3)]
    verdicts = set()
    for inst in (zk4_instance, subset_m6_instance, *cyclic):
        m = len(inst.tails)
        for n in range(200):
            witness = _random_witness(rng, inst)
            if n % 3 == 0:
                x = [Fraction(rng.randint(0, 3), rng.randint(1, 6))
                     for _ in range(m)]
            elif n % 3 == 1:
                x = [Fraction(1, rng.randint(1, 3))] * m
            else:
                x = [Fraction(0)] * m
                for path, w in zip(witness.paths, witness.weights):
                    for i in path:
                        x[i] = max(x[i], w)
                if rng.random() < 0.5:  # one edge just below its weight
                    i = rng.randrange(m)
                    x[i] = max(x[i] - Fraction(1, 100), Fraction(0))
            sol = FractionalSolution(tuple(x))
            verdict = check_path_witness(inst, witness, sol)
            assert verdict is _reference_check_path_witness(
                inst, witness, sol), witness
            verdicts.add((inst in cyclic, verdict))
    assert verdicts == {(False, True), (False, False), (True, True),
                        (True, False)}
