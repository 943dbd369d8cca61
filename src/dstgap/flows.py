"""Fractional solutions and exact max-flow feasibility checks.

The canonical solution puts capacity 1/s on every edge; it routes one unit
to each terminal along the s edge-disjoint paths r -> u -> v -> pi(v) -> t,
one per matching edge (u, v) of the terminal's color.  Feasibility of an
arbitrary capacity vector is checked terminal by terminal with an exact
max-flow: capacities are scaled once by their common denominator into one
integer network (Dinic), whose capacities are restored before each
terminal's run; the flow is scaled back, so values are exact, and every
terminal gets a min-cut witness of equal capacity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .model import DstInstance


@dataclass(frozen=True)
class FractionalSolution:
    """Edge capacities, aligned with inst.edges."""

    x: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.x):
            raise ValueError("capacities must be non-negative")


def canonical_solution(inst: DstInstance) -> FractionalSolution:
    s = inst.provenance.s
    return FractionalSolution(tuple(Fraction(1, s) for _ in inst.edges))


def solution_cost(inst: DstInstance, sol: FractionalSolution) -> Fraction:
    return sum((e.cost * v for e, v in zip(inst.edges, sol.x)), Fraction(0))


class _Dinic:
    """Integer max-flow; standard Dinic with the iterator trick."""

    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]  # per vertex: indices into arcs
        self.to = []
        self.cap = []

    def add(self, u, v, c):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _bfs(self, s, t):
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for i in self.head[u]:
                v = self.to[i]
                if self.cap[i] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        self.level = level
        return level[t] >= 0

    def _dfs(self, u, t, f, it):
        if u == t:
            return f
        while it[u] < len(self.head[u]):
            i = self.head[u][it[u]]
            v = self.to[i]
            if self.cap[i] > 0 and self.level[v] == self.level[u] + 1:
                pushed = self._dfs(v, t, min(f, self.cap[i]), it)
                if pushed:
                    self.cap[i] -= pushed
                    self.cap[i ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s, t):
        flow = 0
        while self._bfs(s, t):
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, 1 << 62, it)
                if not pushed:
                    break
                flow += pushed
        return flow

    def residual_reachable(self, s):
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for i in self.head[u]:
                v = self.to[i]
                if self.cap[i] > 0 and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return seen


@dataclass(frozen=True)
class MaxFlowResult:
    value: Fraction
    cut_edges: tuple       # edge indices crossing the min cut
    cut_capacity: Fraction
    source_side: frozenset


def max_flow_value(inst: DstInstance, sol: FractionalSolution,
                   terminal: int) -> MaxFlowResult:
    """Exact max-flow from the root to `terminal` under capacities sol.x."""
    return verify_feasibility(inst, sol, [terminal]).entries[0].cut


@dataclass(frozen=True)
class TerminalFlow:
    terminal: int
    label: str
    value: Fraction
    ok: bool  # value >= 1
    cut: MaxFlowResult


@dataclass(frozen=True)
class FeasibilityReport:
    entries: tuple

    @property
    def feasible(self) -> bool:
        return all(e.ok for e in self.entries)

    def failing(self):
        return [e for e in self.entries if not e.ok]


def verify_feasibility(inst: DstInstance, sol: FractionalSolution,
                       terminals=None) -> FeasibilityReport:
    """Max-flow >= 1 for every terminal; empty terminal set is vacuous.

    One integer network carries x * scale on every edge; each terminal's
    run starts from those base capacities and ends with its min cut, whose
    capacity must equal the flow.
    """
    if terminals is None:
        terminals = inst.terminals
    scale = math.lcm(*(v.denominator for v in sol.x))
    net = _Dinic(inst.n)
    for e, v in zip(inst.edges, sol.x):
        net.add(e.tail, e.head, v.numerator * (scale // v.denominator))
    base = net.cap[:]

    entries = []
    for t in terminals:
        net.cap[:] = base
        value = Fraction(net.max_flow(inst.root, t), scale)
        reach = net.residual_reachable(inst.root)
        cut = tuple(
            i for i, e in enumerate(inst.edges)
            if reach[e.tail] and not reach[e.head]
        )
        cut_cap = sum((sol.x[i] for i in cut), Fraction(0))
        if cut_cap != value:
            raise RuntimeError(
                f"max-flow/min-cut mismatch at terminal {inst.labels[t]}: "
                f"flow {value}, cut capacity {cut_cap}")
        res = MaxFlowResult(value, cut, cut_cap,
                            frozenset(i for i, r in enumerate(reach) if r))
        entries.append(TerminalFlow(t, inst.labels[t], value, value >= 1, res))
    return FeasibilityReport(tuple(entries))


@dataclass(frozen=True)
class PathWitness:
    terminal: int
    paths: tuple    # each a tuple of edge indices, r -> ... -> terminal
    weights: tuple  # Fractions, sum to 1


def path_witness(inst: DstInstance, terminal: int) -> PathWitness:
    """The s edge-disjoint unit paths for one terminal.

    One path per matching edge (u, v) of the terminal's color; weight 1/s
    each, so the witness saturates the canonical solution exactly.
    """
    obj = inst.provenance
    t_off = inst.level_offset(4)
    color = terminal - t_off
    if not 0 <= color < obj.k:
        raise ValueError(f"vertex {terminal} is not a terminal")
    eidx = inst.edge_index
    a_off, b_off = 1, 1 + obj.num_a

    paths = []
    for a, b, c in obj.edges:
        if c != color:
            continue
        u, v = a_off + a, b_off + b
        vp = inst.pi(v)
        paths.append((
            eidx[(inst.root, u)],
            eidx[(u, v)],
            eidx[(v, vp)],
            eidx[(vp, terminal)],
        ))
    assert len(paths) == obj.s
    w = Fraction(1, obj.s)
    return PathWitness(terminal, tuple(paths), tuple(w for _ in paths))


def check_path_witness(inst: DstInstance, witness: PathWitness,
                       sol: FractionalSolution) -> bool:
    """Witness invariants: simple edge-disjoint r->t paths, unit total
    weight, and each path's weight within x on each of its edges (the paths
    share no edge, so that weight is the edge's whole load)."""
    if sum(witness.weights, Fraction(0)) != 1:
        return False
    used_edges = set()
    for path, w in zip(witness.paths, witness.weights):
        if w < 0 or used_edges.intersection(path):
            return False
        used_edges.update(path)
        at = inst.root
        seen = {at}
        for i in path:
            e = inst.edges[i]
            if e.tail != at or e.head in seen or w > sol.x[i]:
                return False
            at = e.head
            seen.add(at)
        if at != witness.terminal:
            return False
    return True
