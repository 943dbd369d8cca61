"""Fractional solutions and exact max-flow feasibility checks.

The canonical solution puts capacity 1/s on every edge; it routes one unit
to each terminal along the s edge-disjoint paths r -> u -> v -> pi(v) -> t,
one per matching edge (u, v) of the terminal's color.  Feasibility of an
arbitrary capacity vector is checked terminal by terminal, in integers:
capacities are scaled once by their common denominator.  Each orbit
representative's path witness is checked once, under the capacities, and
its verdict reported.  Where it holds and the terminal's in-edges hold
exactly one unit, the witness is a flow of value 1 and the in-edges a cut
of capacity 1, so by weak duality its max-flow is 1.  Every in-edge is
then saturated, so no other vertex reaches the terminal in the residual
network: its sink side is the terminal alone, and its min cut its
in-edges, the same entries an exact max-flow gives, with no flow network
built (a certifying check in the sense of McConnell, Mehlhorn, Naher and
Schweitzer 2011).  Elsewhere, as under a damaged file or lp's LP point,
the max-flow runs on one integer network (Dinic), built at the first
such terminal, whose capacities are restored before each later run; the
flow is scaled back, so values are exact.  Dinic's levels are distances
to the terminal, found by a BFS backward from it, so a run only works on
the part of the network that can still reach its terminal.  Every
terminal gets a min-cut witness of equal capacity, checked in integers.
A run's is read off the final backward BFS, the one that fails to reach
the root: the vertices it labels still reach the terminal in the
residual network, and the rest are the unique largest min-cut source
side.  That side is the same for every maximum flow (Picard and
Queyranne 1980), so the witness does not depend on which maximum flow
Dinic finds, and finding its edges walks only the sink side.  A
terminal's record keeps the cut edges and the sink side, which the
canonical solution makes {t}.

A max-flow is certified or run once per terminal orbit.  Every label
names a subset of a ground set (model.label_masks reads a bare integer x,
a zk color, as {x}), so a permutation of the ground set proposes a vertex
map, level by level.  The sets are the objects' label_sets: the family
generator records the masks it writes the labels from, and any other
objects read each label once.  Two permutations are tried: the full cycle
of the ground set and the transposition of its two smallest elements.  A
permutation is kept only when it is checked exactly on the instance's
edges: the int codes of the edges' images (DstInstance.image_codes),
sorted, are the instance's edge codes, which ascend in edge order, so
every edge maps to an edge, with no lookup per edge.  Where it also keeps
x, it is an automorphism of the network, and carries a terminal's largest
min-cut source side onto that of the terminal's image, so a terminal's
sink side is its orbit representative's, mapped, and its cut is read off
that side (the terminal's in-edges where that side is the terminal alone)
and checked as a run terminal's is; a path witness maps too.  Nothing is
read from the family name; with no permutation kept, every terminal is
its own orbit.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import add, attrgetter, lt, mul
from typing import NamedTuple

from .model import DstInstance


class _SolutionFields(NamedTuple):
    x: tuple


class FractionalSolution(_SolutionFields):
    """Edge capacities, aligned with the instance's edge columns.  Its
    integer form, used by every exact check: scale is the least common
    denominator of x, and caps[i] = x[i] * scale.  Both are set when the
    solution is made, by _replace too; they are not fields, so equality and
    repr are by x."""

    def __new__(cls, x):
        scale = math.lcm(*{v.denominator for v in x})
        return cls._scaled(x, scale, tuple(
            [v.numerator * (scale // v.denominator) for v in x]))

    @classmethod
    def _scaled(cls, x, scale, caps):
        """The solution x, whose integer form scale and caps the caller
        knows."""
        if caps and min(caps) < 0:
            raise ValueError("capacities must be non-negative")
        self = super().__new__(cls, x)
        self.scale, self.caps = scale, caps
        return self

    @classmethod
    def _make(cls, iterable):  # NamedTuple's skips __new__
        return cls(*iterable)


def canonical_solution(inst: DstInstance) -> FractionalSolution:
    """x = 1/s on every edge: its integer form is scale s and every cap 1,
    made without reading a property of each edge's Fraction."""
    w = Fraction(1, inst.provenance.s)
    n = len(inst.tails)
    return FractionalSolution._scaled((w,) * n, w.denominator,
                                      (w.numerator,) * n)


def solution_cost(inst: DstInstance, sol: FractionalSolution) -> Fraction:
    """Sum of cost times x: the integer capacities are summed per class,
    so one Fraction is made per class, not per edge."""
    caps = dict.fromkeys(inst.class_costs, 0)
    for c, v in zip(inst.classes, sol.caps):
        caps[c] += v
    return sum((q * caps[c] for c, q in inst.class_costs.items()),
               Fraction(0)) / sol.scale


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
        head = self.head = [[] for _ in range(n)]  # per vertex: its arcs
        for i, u, v in zip(range(0, 2 * m, 2), tails, heads):
            head[u].append(i)
            head[v].append(i + 1)

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
        """The flow value.  The last phase's labelled vertices stay as
        self.sink_side: the vertices that still reach t in the residual
        network."""
        flow = 0
        while True:
            level, self.sink_side = self._levels(s, t)
            if level[s] < 0:
                return flow
            flow += self._blocking_flow(s, t, level)


class TerminalFlow(NamedTuple):
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


class FeasibilityReport(NamedTuple):
    """One TerminalFlow per terminal, in the order asked for; the label
    automorphisms that keep x; and (representative, whether its path
    witness holds) for each orbit representative, the terminals whose
    max-flow was certified or run, in orbit-tree order."""

    entries: tuple
    automorphisms: tuple = ()
    witnessed: tuple = ()

    @property
    def representatives(self) -> tuple:
        return tuple(t for t, _ in self.witnessed)

    @property
    def feasible(self) -> bool:
        return all(e.ok for e in self.entries)

    def failing(self):
        return [e for e in self.entries if not e.ok]


class Automorphism(NamedTuple):
    """A ground-set permutation checked on an instance: its vertex map
    fixes the root and each level and sends the edges onto the edges, as
    the codes of the edges' images, sorted, are the edge codes.
    Where it also keeps x, it maps a terminal's max-flows, min cuts and
    path witnesses onto its image's."""

    cycle: tuple       # ground-set elements, each mapped to the next
    vertex_map: list   # vertex id -> vertex id


def label_automorphisms(inst: DstInstance) -> tuple:
    """The full cycle of the labels' ground set and the transposition of its
    two smallest elements, each kept if it passes every check.

    The sets that the labels of levels 1, 2 and 4 name are the objects'
    label_sets, int masks over the sorted ground set, so the cycle moves a
    mask by a bit rotation and the transposition swaps its bits 0 and 1.
    Level 3 is level 2 primed, so it follows level 2.  A label that
    model.label_masks cannot read, or two labels of one level that name
    the same set, keep none.
    """
    try:
        ground, masks = inst.provenance.label_sets
    except ValueError:
        return ()
    levels = []  # (vertex ids, label masks, mask -> vertex id) per level
    for lvl, keys in zip((1, 2, 4), masks):
        ids = inst.level_ids(lvl)
        index = dict(zip(keys, ids))
        if len(index) != len(keys):
            return ()
        levels.append((ids, keys, index))
    if len(ground) < 2:
        return ()
    full, top = (1 << len(ground)) - 1, len(ground) - 1

    def rotate(mask):  # bit i to bit i + 1, the top bit to bit 0
        return (mask << 1 & full) | mask >> top

    def swap(mask):  # bits 0 and 1 exchanged
        return mask ^ 3 if (mask ^ mask >> 1) & 1 else mask

    moves = [(tuple(ground), rotate)]
    if len(ground) > 2:  # with two elements the cycle is the transposition
        moves.append((tuple(ground[:2]), swap))
    found = []
    for cycle, move in moves:
        g = _check_automorphism(inst, cycle, move, levels)
        if g is not None:
            found.append(g)
    return tuple(found)


def _check_automorphism(inst, cycle, move, levels):
    """The Automorphism that the mask map `move` induces, or None if an
    image label or an edge's image is missing.  The vertex map is one to
    one, so the images' codes are distinct."""
    vmap = [0] * inst.n  # the root is fixed
    for ids, keys, index in levels:
        images = list(map(index.get, map(move, keys)))
        if None in images:
            return None
        vmap[ids.start:ids.stop] = images
        if ids.start == inst.level_offset(2):  # level 3 is level 2 primed
            nb = len(ids)
            vmap[ids.stop:ids.stop + nb] = [w + nb for w in images]
    if array("q", sorted(inst.image_codes(vmap))) != inst.edge_codes:
        return None
    return Automorphism(cycle, vmap)


def orbit_tree(vertices, automorphisms) -> dict:
    """vertex -> None for the first listed vertex of each orbit, else the
    (vertex, automorphism) that carries an earlier vertex of the orbit to
    it.  Breadth-first, so each vertex comes after the one it is carried
    from.  The orbits of the listed vertices are walked in full, so the
    tree of one vertex is its whole orbit."""
    tree = {}
    for rep in vertices:
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


def _terminal_in_edges(inst: DstInstance) -> dict:
    """terminal -> the ascending ids of the edges into it.  Those are the
    edges out of level 3, the last ones in code order, grouped by head."""
    into = {t: [] for t in inst.terminals}
    heads = inst.heads
    for j in range(bisect_left(inst.tails, inst.level_offset(3)), len(heads)):
        into[heads[j]].append(j)
    return {t: tuple(js) for t, js in into.items()}


def _witness_holds(inst: DstInstance, terminal: int,
                    sol: FractionalSolution) -> bool:
    """Whether the terminal's path witness exists and check_path_witness
    accepts it under sol."""
    try:
        return check_path_witness(inst, path_witness(inst, terminal), sol)
    # a missing path edge, or a color with other than s matching edges
    except (KeyError, ValueError):
        return False


def verify_feasibility(inst: DstInstance, sol: FractionalSolution,
                       terminals=None) -> FeasibilityReport:
    """Max-flow >= 1 for every terminal; empty terminal set is vacuous.

    With terminals=None, one max-flow is found per orbit of the terminals
    under the instance's label automorphisms that keep x; every other
    terminal's min cut is its representative's, mapped through the
    automorphisms that carry the representative to it.  An explicit list
    finds each listed terminal's; ValueError names the first listed vertex
    that is not a terminal.  Each representative's path witness is checked
    once, and its verdict reported.  Where it holds and the in-edges hold
    exactly one unit, it certifies the max-flow: a flow of 1 under a cut
    of 1, so the max-flow is 1, the in-edges are saturated and the sink
    side is the terminal itself.  Any other representative runs Dinic on
    one integer network, built at the first such run; each run starts
    from the integer capacities, restored in place after an earlier run.
    Every terminal's min cut, certified, run or mapped, must have an
    integer capacity equal to its integer flow.
    """
    caps, scale = sol.caps, sol.scale
    if terminals is None:
        automorphisms = inst.automorphisms
        # with unequal capacities, the (code, capacity) pairs of the edges'
        # images must be the edges' own
        if caps and caps.count(caps[0]) != len(caps):
            keyed = list(zip(inst.edge_codes, caps))  # in code order
            automorphisms = tuple(g for g in automorphisms if sorted(zip(
                inst.image_codes(g.vertex_map), caps)) == keyed)
        terminals = inst.terminals
    else:
        for v in terminals:
            if v not in inst.terminals:
                raise ValueError(f"vertex {v} is not a terminal")
        automorphisms = ()
    tree = orbit_tree(terminals, automorphisms)
    into = _terminal_in_edges(inst)
    net = None
    witnessed = {}  # representative -> whether its path witness holds

    found = {}  # terminal -> (TerminalFlow, its integer flow)
    for t, step in tree.items():
        if step is None:
            witnessed[t] = _witness_holds(inst, t, sol)
            if witnessed[t] and sum(map(caps.__getitem__, into[t])) == scale:
                flow, sink = scale, frozenset((t,))
            else:
                if net is None:
                    net = _Dinic(inst.n, inst.tails, inst.heads, caps)
                else:  # an earlier run left its flow in the network
                    net.cap[0::2], net.cap[1::2] = caps, [0] * len(caps)
                flow = net.max_flow(inst.root, t)
                sink = frozenset(net.sink_side)
        else:
            # an automorphism that keeps x carries the sink side and the
            # flow of the terminal it maps from onto this terminal's
            p, g = step
            e, flow = found[p]
            sink = frozenset(map(g.vertex_map.__getitem__, e.sink_side))
        if len(sink) == 1:  # the sink side is {t}
            cut = into[t]
        else:
            # edges into the sink side from outside it: edge j enters v as
            # arc 2j + 1 of v.  A sink side other than {t} comes from a run
            head, to = net.head, net.to
            cut = tuple(sorted(i >> 1 for v in sink for i in head[v]
                               if i & 1 and to[i] not in sink))
        cut_int = sum(map(caps.__getitem__, cut))
        if cut_int != flow:
            raise RuntimeError(
                f"max-flow/min-cut mismatch at terminal {inst.labels[t]}: "
                f"flow {Fraction(flow, scale)}, cut capacity "
                f"{Fraction(cut_int, scale)}")
        found[t] = TerminalFlow(t, Fraction(flow, scale), cut, sink), flow

    entries = tuple(found[t][0] for t in terminals)
    return FeasibilityReport(entries, automorphisms, tuple(witnessed.items()))


class PathWitness(NamedTuple):
    terminal: int
    paths: tuple    # each a tuple of edge indices, r -> ... -> terminal
    weights: tuple  # Fractions, sum to 1


def path_witness(inst: DstInstance, terminal: int) -> PathWitness:
    """The s edge-disjoint unit paths for one terminal.

    One path per matching edge (u, v) of the terminal's color; weight 1/s
    each, so the witness saturates the canonical solution exactly.  Raises
    ValueError if `terminal` is not a terminal or its color does not have
    exactly s matching edges (objects that fail validation).
    """
    obj = inst.provenance
    a_off, b_off, t_off = map(inst.level_offset, (1, 2, 4))
    color = terminal - t_off
    if not 0 <= color < obj.k:
        raise ValueError(f"vertex {terminal} is not a terminal")
    r, nb = inst.root, inst.level_sizes[2]

    # r -> u -> v -> pi(v) -> terminal, per matching edge; pi(v) = v + |B|
    tails, heads = [], []
    for a, b, c in obj.edges:
        if c != color:
            continue
        u, v = a_off + a, b_off + b
        vp = v + nb
        tails += (r, u, v, vp)
        heads += (u, v, vp, terminal)
    at = inst.edge_positions(tails, heads)
    paths = [tuple(at[i:i + 4]) for i in range(0, len(at), 4)]
    if len(paths) != obj.s:
        raise ValueError(f"terminal {inst.labels[terminal]} has {len(paths)} "
                         f"matching edges, but s = {obj.s}")
    w = Fraction(1, obj.s)
    return PathWitness(terminal, tuple(paths), tuple(w for _ in paths))


def check_path_witness(inst: DstInstance, witness: PathWitness,
                       sol: FractionalSolution) -> bool:
    """Witness invariants: simple edge-disjoint r->t paths, unit total
    weight, and each path's weight within x on each of its edges (the paths
    share no edge, so that weight is the edge's whole load).  Each path is
    paired with a weight as zip pairs them.  The checks run on all paths at
    once: one set of their edges, and one capacity test per distinct
    weight."""
    weights = witness.weights
    nums = list(map(attrgetter("numerator"), weights))
    dens = list(map(attrgetter("denominator"), weights))
    # the weights sum to 1 exactly when their numerators over one common
    # denominator sum to it
    den = math.lcm(*set(dens))
    if sum(map(mul, nums, map(den.__floordiv__, dens))) != den:
        return False
    paths = witness.paths[:len(weights)]
    if min(nums[:len(paths)], default=0) < 0:
        return False
    root, terminal = inst.root, witness.terminal
    # an empty path's walk is the root alone
    walks = [path for path in paths if path]
    if len(walks) < len(paths) and root != terminal:
        return False
    # no edge twice, in one path or two
    edges = list(chain.from_iterable(walks))
    if len(set(edges)) != len(edges):
        return False
    # each path's walk is the root, then each edge's head: each edge leaves
    # the vertex before it on its walk, and the last is the terminal
    heads = list(map(inst.heads.__getitem__, edges))
    ends = list(accumulate(map(len, walks)))
    before = [root, *heads][:-1]
    for end in ends[:-1]:
        before[end] = root
    if list(map(inst.tails.__getitem__, edges)) != before \
            or any(heads[end - 1] != terminal for end in ends):
        return False
    # no vertex repeats on one walk.  Where ids rise along every walk, as
    # they do up the levels, none can; else no head may be the root, and
    # no walk may have a head twice (its index times n plus the head, as
    # one int, would repeat)
    if not all(map(lt, before, heads)):
        offsets = chain.from_iterable(map(
            repeat, range(0, len(walks) * inst.n, inst.n), map(len, walks)))
        if root in heads or len(set(map(add, offsets, heads))) != len(heads):
            return False
    # w <= x[i] exactly when ceil(w * scale) <= caps[i]: per distinct
    # weight, one test against the least capacity on its paths
    caps, scale = sol.caps, sol.scale
    keys = list(zip(nums, dens))
    for num, d in set(keys[:len(paths)]):
        ids = list(chain.from_iterable(
            compress(paths, map((num, d).__eq__, keys))))
        if ids and -(-num * scale // d) > min(map(caps.__getitem__, ids)):
            return False
    return True
