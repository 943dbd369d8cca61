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
in integers.  It is read off the final backward BFS, the one that fails to
reach the root: the vertices it labels still reach the terminal in the
residual network, and the rest are the unique largest min-cut source side.
That side is the same for every maximum flow (Picard and Queyranne 1980),
so the witness does not depend on which maximum flow Dinic finds, and
finding its edges walks only the sink side.  A terminal's record keeps the
cut edges and the sink side, which the canonical solution makes {t}.

A max-flow runs once per terminal orbit.  Every label names a subset of a
ground set (model.label_set reads a bare integer x, a zk color, as {x}), so
a permutation of the ground set proposes a vertex map, level by level.  Two
are tried: the full cycle of the ground set and the transposition of its two
smallest elements.  A permutation is kept only when it is checked exactly
on the instance: every edge maps to an edge, and x is kept.  It is then an
automorphism of the network, and carries a terminal's largest min-cut
source side onto that of the terminal's image, so a terminal's cut is its
orbit representative's, mapped; so is a path witness.  Nothing is read
from the family name; with no permutation kept, every terminal is its own
orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .model import DstInstance, label_set


@dataclass(frozen=True)
class FractionalSolution:
    """Edge capacities, aligned with the instance's edge columns.  Its
    integer form, used by every exact check: scale is the least common
    denominator of x, and caps[i] = x[i] * scale."""

    x: tuple
    scale: int = field(init=False, repr=False, compare=False)
    caps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scale = math.lcm(*{v.denominator for v in self.x})
        caps = tuple([v.numerator * (scale // v.denominator) for v in self.x])
        if caps and min(caps) < 0:
            raise ValueError("capacities must be non-negative")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "caps", caps)


def canonical_solution(inst: DstInstance) -> FractionalSolution:
    w = Fraction(1, inst.provenance.s)
    return FractionalSolution((w,) * len(inst.tails))


def solution_cost(inst: DstInstance, sol: FractionalSolution) -> Fraction:
    costs = inst.class_costs
    return sum((costs[c] * v for c, v in zip(inst.classes, sol.x)),
               Fraction(0))


class _Dinic:
    """Integer max-flow: Dinic with levels measured to the sink.

    Edge j is arc 2j (capacity caps[j]) and its reverse 2j + 1 (capacity
    0), so arc i ^ 1 is always the reverse of arc i.  Each phase labels
    vertices with their residual distance to t by a BFS run backward from t:
    arc i out of v stands for arc i ^ 1 into v, whose capacity it tests.
    The BFS stops as soon as it labels the root.  The blocking flow then
    walks from the root only along arcs one level closer to t, so a phase
    never enters a vertex that cannot reach t.  The last BFS misses the
    root; the vertices it labels are the sink side of the min cut whose
    source side is the largest.
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
        """Residual distances to t (-1 for vertices not reached before s),
        and the labelled vertices in BFS order.

        BFS labels are exact, and every vertex closer to t than s is
        labelled before s is, so the search can stop at s."""
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.n
        level[t] = 0
        order = [t]
        for v in order:  # the list is the BFS queue
            lu = level[v] + 1
            for i in head[v]:
                u = to[i]
                if level[u] < 0 and cap[i ^ 1]:
                    level[u] = lu
                    if u == s:
                        return level, order
                    order.append(u)
        return level, order

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
        """The flow value.  The last phase's levels and labelled vertices
        stay as self.level and self.sink_side: the vertices that still
        reach t in the residual network."""
        flow = 0
        while True:
            self.level, self.sink_side = self._levels(s, t)
            if self.level[s] < 0:
                return flow
            flow += self._blocking_flow(s, t, self.level)


@dataclass(frozen=True)
class TerminalFlow:
    """One terminal's exact max-flow value and its min cut: the edges, in
    ascending order, into the sink side (the vertices that still reach the
    terminal in the residual network) from outside it."""

    terminal: int
    value: Fraction
    cut_edges: tuple
    sink_side: frozenset

    @property
    def ok(self) -> bool:
        return self.value >= 1


def max_flow_value(inst: DstInstance, sol: FractionalSolution,
                   terminal: int) -> TerminalFlow:
    """Exact max-flow from the root to `terminal` under capacities sol.x."""
    return verify_feasibility(inst, sol, [terminal]).entries[0]


@dataclass(frozen=True)
class FeasibilityReport:
    entries: tuple
    automorphisms: tuple = ()    # the kept label automorphisms
    representatives: tuple = ()  # the terminals whose max-flow was run

    @property
    def feasible(self) -> bool:
        return all(e.ok for e in self.entries)

    def failing(self):
        return [e for e in self.entries if not e.ok]


@dataclass(frozen=True)
class Automorphism:
    """A ground-set permutation checked on an instance and a solution: its
    vertex map fixes the root and each level, sends every edge to an edge
    (edge_map) and keeps x.  So it maps a terminal's max-flows, min cuts
    and path witnesses onto its image's."""

    cycle: tuple       # ground-set elements, each mapped to the next
    vertex_map: list   # vertex id -> vertex id
    edge_map: list     # edge position -> edge position


def label_automorphisms(inst: DstInstance, sol: FractionalSolution) -> tuple:
    """The full cycle of the labels' ground set and the transposition of its
    two smallest elements, each kept if it passes every check.

    The labels of levels 1, 2 and 4 are read once; level 3 is level 2
    primed, so it follows level 2.  A label that label_set cannot read, or
    two labels of one level that name the same set, keep none.
    """
    levels = []  # (vertex ids, label keys, key -> vertex id) per level
    for lvl in (1, 2, 4):
        ids = inst.level_ids(lvl)
        try:
            keys = [label_set(inst.labels[v]) for v in ids]
        except ValueError:
            return ()
        index = dict(zip(keys, ids))
        if len(index) != len(keys):
            return ()
        levels.append((ids, keys, index))
    ground = sorted(set().union(*(key for _, keys, _ in levels
                                  for key in keys)))
    if len(ground) < 2:
        return ()
    found = []
    for cycle in dict.fromkeys((tuple(ground), tuple(ground[:2]))):
        sigma = dict(zip(ground, ground))
        sigma.update(zip(cycle, cycle[1:] + cycle[:1]))
        g = _check_automorphism(inst, sol, cycle, sigma.__getitem__, levels)
        if g is not None:
            found.append(g)
    return tuple(found)


def _check_automorphism(inst, sol, cycle, move, levels):
    """The Automorphism the ground-set map `move` induces, or None if an
    image label is missing or an edge or a capacity is not kept."""
    vmap = [0] * inst.n  # the root is fixed
    for ids, keys, index in levels:
        images = [index.get(frozenset(map(move, key))) for key in keys]
        if None in images:
            return None
        vmap[ids.start:ids.stop] = images
        if ids.start == inst.level_offset(2):  # level 3 is level 2 primed
            nb = len(ids)
            vmap[ids.stop:ids.stop + nb] = [w + nb for w in images]
    # the image of edge (u, v) has code vmap[u] * n + vmap[v]
    edge_at, n = inst.edge_index.get, inst.n
    scaled = [w * n for w in vmap]
    emap = [edge_at(scaled[u] + vmap[v])
            for u, v in zip(inst.tails, inst.heads)]
    if None in emap:
        return None
    caps = sol.caps
    if tuple(map(caps.__getitem__, emap)) != caps:
        return None
    return Automorphism(cycle, vmap, emap)


def _orbit_tree(terminals, automorphisms) -> dict:
    """terminal -> None for the first terminal of each orbit, else the
    (terminal, automorphism) that carries an earlier terminal of the orbit
    to it.  Breadth-first, so each terminal comes after the one it is
    carried from."""
    tree = {}
    for rep in terminals:
        if rep in tree:
            continue
        tree[rep] = None
        queue = [rep]
        for t in queue:
            for g in automorphisms:
                u = g.vertex_map[t]
                if u not in tree:
                    tree[u] = (t, g)
                    queue.append(u)
    return tree


def verify_feasibility(inst: DstInstance, sol: FractionalSolution,
                       terminals=None) -> FeasibilityReport:
    """Max-flow >= 1 for every terminal; empty terminal set is vacuous.

    With terminals=None, one max-flow runs per orbit of the terminals under
    label_automorphisms(inst, sol); every other terminal's min cut is its
    representative's, mapped through the automorphisms that carry the
    representative to it.  An explicit list runs each listed terminal.
    One integer network carries the integer capacities; each run starts
    from them and ends with its min cut, whose integer capacity must equal
    the integer flow.
    """
    if terminals is None:
        automorphisms = label_automorphisms(inst, sol)
        terminals = inst.terminals
    else:
        automorphisms = ()
    tree = _orbit_tree(terminals, automorphisms)
    caps = sol.caps
    net = _Dinic(inst.n, inst.tails, inst.heads, caps)
    base = net.cap[:]
    head, to = net.head, net.to

    found = {}  # terminal -> TerminalFlow
    for t, step in tree.items():
        if step is not None:
            # an automorphism keeps x, so the mapped cut has the same
            # capacity and is the image's largest-source-side min cut
            p, g = step
            e = found[p]
            found[t] = TerminalFlow(
                t, e.value, tuple(sorted(map(g.edge_map.__getitem__,
                                             e.cut_edges))),
                frozenset(map(g.vertex_map.__getitem__, e.sink_side)))
            continue
        net.cap[:] = base
        flow = net.max_flow(inst.root, t)
        level, sink = net.level, net.sink_side
        # edges into the sink side from outside it: edge j enters v as arc
        # 2j + 1 of v
        cut = tuple(sorted(i >> 1 for v in sink for i in head[v]
                           if i & 1 and level[to[i]] < 0))
        cut_int = sum(map(caps.__getitem__, cut))
        if cut_int != flow:
            raise RuntimeError(
                f"max-flow/min-cut mismatch at terminal {inst.labels[t]}: "
                f"flow {Fraction(flow, sol.scale)}, cut capacity "
                f"{Fraction(cut_int, sol.scale)}")
        found[t] = TerminalFlow(t, Fraction(flow, sol.scale), cut,
                                frozenset(sink))

    entries = tuple(map(found.__getitem__, terminals))
    representatives = tuple(t for t, step in tree.items() if step is None)
    return FeasibilityReport(entries, automorphisms, representatives)


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
    eidx, n = inst.edge_index, inst.n
    a_off, b_off = 1, 1 + obj.num_a

    paths = []
    for a, b, c in obj.edges:
        if c != color:
            continue
        u, v = a_off + a, b_off + b
        vp = inst.pi(v)
        paths.append((
            eidx[inst.root * n + u],
            eidx[u * n + v],
            eidx[v * n + vp],
            eidx[vp * n + terminal],
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
    caps, scale = sol.caps, sol.scale
    used_edges = set()
    for path, w in zip(witness.paths, witness.weights):
        if w < 0 or used_edges.intersection(path):
            return False
        used_edges.update(path)
        # w <= x[i] exactly when ceil(w * scale) <= caps[i]
        need = -(-w.numerator * scale // w.denominator)
        at = inst.root
        seen = {at}
        for i in path:
            if inst.tails[i] != at or inst.heads[i] in seen or need > caps[i]:
                return False
            at = inst.heads[i]
            seen.add(at)
        if at != witness.terminal:
            return False
    return True
