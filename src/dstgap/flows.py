"""Fractional solutions and exact max-flow feasibility checks.

The canonical solution puts capacity 1/s on every edge; it routes one unit
to each terminal along the s edge-disjoint paths r -> u -> v -> pi(v) -> t,
one per matching edge (u, v) of the terminal's color.  Feasibility of an
arbitrary capacity vector is checked terminal by terminal with an exact
max-flow: capacities are scaled once by their common denominator into one
integer network (Dinic), whose capacities are restored before each
terminal's run; the flow is scaled back, so values are exact.  Dinic's
levels are distances to the terminal, found by a BFS backward from it, so
a run only works on the part of the network that can still reach its
terminal.  Every terminal gets a min-cut witness of equal capacity, checked
in integers: the vertices reachable from the root in the final residual
network, found by a scan of the whole network.  That is the unique smallest
min-cut source side, the same for every maximum flow, so the witness does
not depend on which maximum flow Dinic finds.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .model import DstInstance


@dataclass(frozen=True)
class FractionalSolution:
    """Edge capacities, aligned with inst.edges."""

    x: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.x):
            raise ValueError("capacities must be non-negative")


def canonical_solution(inst: DstInstance) -> FractionalSolution:
    w = Fraction(1, inst.provenance.s)
    return FractionalSolution((w,) * len(inst.edges))


def solution_cost(inst: DstInstance, sol: FractionalSolution) -> Fraction:
    return sum((e.cost * v for e, v in zip(inst.edges, sol.x)), Fraction(0))


class _Dinic:
    """Integer max-flow: Dinic with levels measured to the sink.

    Edge j is arc 2j (capacity caps[j]) and its reverse 2j + 1 (capacity
    0), so arc i ^ 1 is always the reverse of arc i.  Each phase labels
    vertices with their residual distance to t by a BFS run backward from t:
    arc i out of v stands for arc i ^ 1 into v, whose capacity it tests.
    The BFS stops as soon as it labels the root.  The blocking flow then
    walks from the root only along arcs one level closer to t, so a phase
    never enters a vertex that cannot reach t.
    """

    def __init__(self, n, tails, heads, caps):
        self.n = n
        m = len(tails)
        self.to = [0] * (2 * m)
        self.to[0::2] = heads
        self.to[1::2] = tails
        self.cap = [0] * (2 * m)
        self.cap[0::2] = caps
        self.head = [[] for _ in range(n)]  # per vertex: its arc indices
        for j, (u, v) in enumerate(zip(tails, heads)):
            self.head[u].append(2 * j)
            self.head[v].append(2 * j + 1)

    def _levels(self, s, t):
        """Residual distances to t; -1 for vertices not reached before s.

        BFS labels are exact, and every vertex closer to t than s is
        labelled before s is, so the search can stop at s."""
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[t] = 0
        q = deque([t])
        while q:
            v = q.popleft()
            lu = level[v] + 1
            for i in head[v]:
                u = to[i]
                if level[u] < 0 and cap[i ^ 1]:
                    level[u] = lu
                    if u == s:
                        return level
                    q.append(u)
        return level

    def _blocking_flow(self, s, t, level):
        """Augment along level-decreasing paths from s until none is left.

        One path is grown at a time with a current-arc pointer per vertex.
        Each augmentation pushes the path's bottleneck and cuts the path
        back to the tail of its first saturated arc.  A dead end loses its
        level, so no arc leads into it again in this phase.
        """
        head, to, cap = self.head, self.to, self.cap
        it = [0] * self.n
        path = []
        flow = 0
        u = s
        while True:
            if u == t:
                f = min(cap[i] for i in path)
                for i in path:
                    cap[i] -= f
                    cap[i ^ 1] += f
                flow += f
                for j, i in enumerate(path):
                    if not cap[i]:
                        del path[j:]
                        break
                u = to[path[-1]] if path else s
                continue
            arcs = head[u]
            down = level[u] - 1
            for k in range(it[u], len(arcs)):
                i = arcs[k]
                if cap[i] and level[to[i]] == down:
                    it[u] = k
                    path.append(i)
                    u = to[i]
                    break
            else:
                level[u] = -1  # a dead end for the rest of the phase
                if not path:
                    return flow
                u = to[path.pop() ^ 1]

    def max_flow(self, s, t):
        flow = 0
        while True:
            level = self._levels(s, t)
            if level[s] < 0:
                return flow
            flow += self._blocking_flow(s, t, level)

    def residual_reachable(self, s):
        head, to, cap = self.head, self.to, self.cap
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for i in head[u]:
                v = to[i]
                if cap[i] and not seen[v]:
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
    integer capacity must equal the integer flow.
    """
    if terminals is None:
        terminals = inst.terminals
    scale = math.lcm(*{v.denominator for v in sol.x})
    tails = [e.tail for e in inst.edges]
    heads = [e.head for e in inst.edges]
    caps = [v.numerator * (scale // v.denominator) for v in sol.x]
    net = _Dinic(inst.n, tails, heads, caps)
    base = net.cap[:]

    entries = []
    for t in terminals:
        net.cap[:] = base
        flow = net.max_flow(inst.root, t)
        reach = net.residual_reachable(inst.root)
        # edges from the reached side to the rest: reach[tail] > reach[head]
        cut = tuple(compress(range(len(tails)), map(
            operator.gt, map(reach.__getitem__, tails),
            map(reach.__getitem__, heads))))
        cut_int = sum(map(caps.__getitem__, cut))
        value = Fraction(flow, scale)
        cut_cap = Fraction(cut_int, scale)
        if cut_int != flow:
            raise RuntimeError(
                f"max-flow/min-cut mismatch at terminal {inst.labels[t]}: "
                f"flow {value}, cut capacity {cut_cap}")
        res = MaxFlowResult(value, cut, cut_cap,
                            frozenset(compress(range(inst.n), reach)))
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
    each, so the witness saturates the canonical solution exactly.  Raises
    ValueError if `terminal` is not a terminal or its color does not have
    exactly s matching edges (a file whose s disagrees with its edges).
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
    if len(paths) != obj.s:
        raise ValueError(f"terminal {inst.labels[terminal]} has {len(paths)} "
                         f"matching edges, but s = {obj.s}")
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
