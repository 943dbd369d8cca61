"""Exact integral optima and the density-lemma gap certificate.

Any minimal Steiner tree of a built instance decomposes into subtrees that
each use one root edge (r, u), some neighbors v of u with their copy edges,
and free terminal edges; pruning a v whose copy edge is missing never hurts.
So the integral optimum equals the cheapest "structured" solution: a set S
of opened A-vertices and a set V' of opened B-vertices, each adjacent to an
opened A-vertex, whose color sets jointly cover all terminals, at cost
|S| * |B|/|A| + |V'|.

`solve_structured` searches that space with branch and bound.  When the
label automorphisms checked on the file (flows.label_automorphisms) carry
A-vertex 0 to every A-vertex, the search opens A-vertex 0 first: every
feasible solution opens some A-vertex u, and an automorphism that carries
u to A-vertex 0 keeps levels, edges and costs, so it carries an optimal
solution to an optimal one that opens A-vertex 0.  `brute_force_opt` is the
independent oracle and uses no symmetry: it enumerates (S, V') subsets
directly and checks terminal reachability by graph search on the instance,
trusting no structural argument.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import ceil
from operator import itemgetter
from typing import NamedTuple

from . import flows
from .model import (E1, E2, E3, DstInstance, GapObjects, InfeasibleError,
                    SizeCapError, bit_indices)


# ---------------------------------------------------------------------------
# gap certificate

class GapCertificate(NamedTuple):
    alpha: Fraction
    per_u: tuple              # (a_label, |J_u|, max |K_v \ J_u| over edges at u)
    opt_lower_bound: Fraction  # alpha * |B| / s
    gap_lower_bound: Fraction  # alpha / 2


def certify_gap(objects: GapObjects, j: tuple) -> GapCertificate:
    """Largest alpha with |J_u| <= d/alpha and |K_v \\ J_u| <= d'/alpha.

    j holds one J-set per A-vertex, an int mask of color indices (bit c for
    color c) as `families.default_j_sets` returns, and K_v is
    objects.color_masks_by_b, so each size is a popcount.  Empty sets impose
    no constraint, so alpha = min(d / max |J_u|, d' / max |K_v \\ J_u|),
    skipping a maximum of 0.  The result is then checked edge by edge, in
    integers, by a second and independent enumeration.
    """
    if len(j) != objects.num_a:
        raise ValueError("J-set family must assign a set to every A-vertex")

    d, dp = objects.d, objects.d_prime
    kv = objects.color_masks_by_b
    j_sizes = list(map(int.bit_count, j))

    residual_max = [0] * objects.num_a
    for a, b, _ in objects.edges:
        r = (kv[b] & ~j[a]).bit_count()
        if r > residual_max[a]:
            residual_max[a] = r
    j_max = max(j_sizes, default=0)
    r_max = max(residual_max, default=0)
    bounds = [Fraction(n, size) for n, size in ((d, j_max), (dp, r_max))
              if size]
    if not bounds:
        raise ValueError("all constraints vacuous: empty color sets")
    alpha = min(bounds)

    # independent check, from the sizes re-enumerated edge by edge: alpha =
    # num/den meets every constraint, and one of them with equality, so no
    # larger alpha does
    num, den = alpha.numerator, alpha.denominator
    residuals = {(kv[b] & ~j[a]).bit_count()
                 for a, b, _ in objects.edges} - {0}
    slack = [d * den - js.bit_count() * num for js in j if js]
    slack += [dp * den - r * num for r in residuals]
    if 0 not in slack or any(x < 0 for x in slack):
        raise RuntimeError(f"self-check failed: alpha mismatch ({alpha} is "
                           "not the largest alpha meeting every constraint)")

    return GapCertificate(
        alpha=alpha,
        per_u=tuple(zip(objects.a_labels, j_sizes, residual_max)),
        opt_lower_bound=alpha * Fraction(objects.num_b, objects.s),
        gap_lower_bound=alpha / 2,
    )


# ---------------------------------------------------------------------------
# structured branch-and-bound solver

class StructuredResult(NamedTuple):
    opened_a: tuple        # labels
    opened_b: tuple        # labels
    value: Fraction
    optimal: bool
    lower_bound: Fraction
    nodes: int             # popped search nodes
    fixed_a: str | None    # label of the A-vertex opened first, if any


def _greedy_cover(kv, nbr, na: int, nb: int, full: int):
    """Greedy incumbent: best new coverage per cost, ties to smallest index.

    kv[v] and nbr[v] are the color and A-neighbour bitmasks of B-vertex v;
    costs are in units of 1/|A|.  Returns (S, V') bitmasks, or None when the
    colors are not coverable.
    """
    covered = s_mask = v_mask = 0
    while covered != full:
        best = None  # (gain, cost, v)
        for v, colors in enumerate(kv):
            gain = (colors & ~covered).bit_count()
            if not gain:
                continue
            cost = na if nbr[v] & s_mask else na + nb
            if best is None or gain * best[1] > best[0] * cost:
                best = (gain, cost, v)
        if best is None:
            return None
        v = best[2]
        v_mask |= 1 << v
        if not nbr[v] & s_mask:
            s_mask |= nbr[v] & -nbr[v]
        covered |= kv[v]
    return s_mask, v_mask


def _transitive_on_a(inst: DstInstance) -> bool:
    """Whether the label automorphisms checked on the file's edges carry
    A-vertex 0 to every A-vertex."""
    a_ids = inst.level_ids(1)
    return len(flows.orbit_tree(a_ids[:1], inst.automorphisms)) == len(a_ids)


# Candidate B-vertices the search may examine.  Subset m8 a=2 is proven
# after about 14 million; zk16 examines 1,365 per node, so it stops after
# about 15,000 nodes.
DEFAULT_BUDGET = 20_000_000


def solve_structured(inst: DstInstance,
                     budget: int = DEFAULT_BUDGET) -> StructuredResult:
    """Exact structured optimum by depth-first branch and bound.

    The search runs in integer units of 1/|A|: opening an A-vertex costs
    |B| and opening a B-vertex costs |A|.  Colors, S and V' are int
    bitmasks.  Bit i of a color mask is the i-th color in (number of
    candidate B-vertices, index) order, so the branching color (the
    uncovered one with the fewest candidates) is the lowest zero bit.
    The search starts with A-vertex 0 open when the checked automorphisms
    are transitive on A, and from nothing open otherwise.  Expanding a
    node examines every candidate of its branching color; once more than
    `budget` candidates have been examined the search stops, and the
    result is the incumbent with the root lower bound.
    Raises InfeasibleError if the instance's edges do not reach every
    terminal.
    """
    obj = inst.provenance
    na, nb, k = obj.num_a, obj.num_b, obj.k
    # Read the instance's edges, not its objects, since a file may leave
    # edges out: B-vertex v may be opened from A-vertex u if r->u and
    # u->v are present, and then covers the colors of the edges v'->t if
    # its copy edge v->v' is present.  On a complete instance nbr[v] is
    # v's neighbourhood in H and kv_sets[v] is K_v.
    a_off, b_off, bp_off, t_off = map(inst.level_offset, (1, 2, 3, 4))
    rooted = 0
    nbr = [0] * nb
    copied = [False] * nb
    kv_sets = [set() for _ in range(nb)]
    for tail, head, klass in zip(inst.tails, inst.heads, inst.classes):
        if klass == E1:
            rooted |= 1 << (head - a_off)
        elif klass == E2:
            nbr[head - b_off] |= 1 << (tail - a_off)
        elif klass == E3:
            copied[tail - b_off] = True
        else:
            kv_sets[tail - bp_off].add(head - t_off)
    nbr = [m & rooted for m in nbr]
    kv_sets = [colors if nbr[v] and copied[v] else set()
               for v, colors in enumerate(kv_sets)]
    by_color = [[] for _ in range(k)]
    for v, colors in enumerate(kv_sets):
        for c in colors:
            by_color[c].append(v)
    order = sorted(range(k), key=lambda c: (len(by_color[c]), c))
    pos = [0] * k
    for i, c in enumerate(order):
        pos[c] = i
    by_pos = [by_color[c] for c in order]
    kv = [sum(1 << pos[c] for c in colors) for colors in kv_sets]
    nbr_bits = [[1 << u for u in bit_indices(m)] for m in nbr]
    full = (1 << k) - 1

    greedy = _greedy_cover(kv, nbr, na, nb, full)
    if greedy is None:
        raise InfeasibleError("the colors are not coverable: a terminal "
                              "cannot be reached from the root")
    best = greedy
    best_cost = nb * greedy[0].bit_count() + na * greedy[1].bit_count()

    # Each further B-vertex covers at most dp colors.  dp is read off the
    # instance's edges, not the objects' d': a file may leave edges out.
    dp = max(map(len, kv_sets))
    nodes = examined = 0
    exhausted = True
    fixed = _transitive_on_a(inst)

    # A node (cost, uncovered colors u) is pruned when its lower bound
    # cost + u/dp, plus |B|/|A| while nothing is open, reaches the best
    # cost; in integer units that is cost*dp + u*|A| (+ |B|*dp) >= best*dp.
    # Children always have an open A-vertex, so their test drops the last
    # term: kept iff c*dp - covered*|A| < best*dp - k*|A|.
    # (covered count, cost, S, V', covered); with fixed, S = {A-vertex 0}
    stack = [(0, nb, 1, 0, 0) if fixed else (0, 0, 0, 0, 0)]
    while stack:
        npc, cost, s_mask, v_mask, covered = stack.pop()
        nodes += 1
        if npc == k:
            if cost < best_cost:
                best_cost, best = cost, (s_mask, v_mask)
            continue
        if (cost * dp + (k - npc) * na + (0 if s_mask else nb * dp)
                >= best_cost * dp):
            continue
        t = ((covered + 1) & ~covered).bit_length() - 1
        examined += len(by_pos[t])
        if examined > budget:
            exhausted = False
            break
        limit = best_cost * dp - k * na
        children = []
        for v in by_pos[t]:  # v covers t, so v is not open yet
            cov = covered | kv[v]
            pc = cov.bit_count()
            vm = v_mask | 1 << v
            if nbr[v] & s_mask:
                c = cost + na
                if c * dp - pc * na < limit:
                    children.append((pc, c, s_mask, vm, cov))
            else:
                c = cost + na + nb
                if c * dp - pc * na < limit:
                    for ubit in nbr_bits[v]:
                        children.append((pc, c, s_mask | ubit, vm, cov))
        # explore most-promising (largest coverage) first
        children.sort(key=itemgetter(0))
        stack.extend(children)

    s_mask, v_mask = best
    value = Fraction(best_cost, na)
    lower = value if exhausted else min(
        value, Fraction(k * na + nb * dp, na * dp))
    return StructuredResult(
        tuple(sorted(obj.a_labels[u] for u in bit_indices(s_mask))),
        tuple(sorted(obj.b_labels[v] for v in bit_indices(v_mask))),
        value, exhausted, lower, nodes, obj.a_labels[0] if fixed else None)


# ---------------------------------------------------------------------------
# independent brute-force oracle

class BruteForceResult(NamedTuple):
    feasible: bool
    value: Fraction | None
    opened_a: tuple
    opened_b: tuple
    unreachable: tuple  # terminal labels blocked even with everything open


DEFAULT_BRUTE_CAP = 32


def brute_force_opt(inst: DstInstance,
                    cap: int = DEFAULT_BRUTE_CAP) -> BruteForceResult:
    """Enumerate (S, V') with pruning; feasibility by BFS on the instance.

    Deliberately ignores the structural decomposition argument: the only
    feasibility test is reachability of every terminal from the root in the
    subgraph with the chosen cost-bearing edges plus all free edges.
    """
    obj = inst.provenance
    na, nb = obj.num_a, obj.num_b
    if na + nb > cap:
        raise SizeCapError(f"|A|+|B| = {na + nb} exceeds brute-force cap {cap}")

    a_ids = list(inst.level_ids(1))
    b_ids = list(inst.level_ids(2))
    terminals = set(inst.terminals)
    out = [[] for _ in range(inst.n)]  # per vertex: (head, class) pairs
    b_in_a = {v: set() for v in b_ids}  # per B-vertex: its A-neighbours
    for tail, head, klass in zip(inst.tails, inst.heads, inst.classes):
        out[tail].append((head, klass))
        if klass == E2:
            b_in_a[head].add(tail)

    def reach(s_ids, v_ids):
        s_ids, v_ids = set(s_ids), set(v_ids)
        seen = {inst.root}
        q = deque([inst.root])
        while q:
            u = q.popleft()
            for w, klass in out[u]:
                if klass == E1 and w not in s_ids:
                    continue
                if klass == E3 and u not in v_ids:
                    continue
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen

    everything = reach(a_ids, b_ids)
    blocked = sorted(terminals - everything)
    if blocked:
        return BruteForceResult(False, None, (), (),
                                tuple(inst.labels[t] for t in blocked))

    ra = Fraction(nb, na)
    t_of_b = {v: {t for vp, klass in out[v] if klass == E3 for t, _ in out[vp]}
              for v in b_ids}
    max_gain = max(len(t_of_b[v]) for v in b_ids)
    min_vp = ceil(len(terminals) / max_gain)

    # greedy incumbent on the instance graph
    inc_s, inc_v = set(), set()
    covered = set()
    while covered != terminals:
        v = max((v for v in b_ids if v not in inc_v and v in everything),
                key=lambda v: (len(t_of_b[v] - covered), -v))
        inc_v.add(v)
        if not (b_in_a[v] & inc_s):
            inc_s.add(min(b_in_a[v] & everything))
        covered |= t_of_b[v]
    best_val = ra * len(inc_s) + len(inc_v)
    best_s, best_v = set(inc_s), set(inc_v)
    if not terminals <= reach(best_s, best_v):
        raise RuntimeError("greedy incumbent does not reach every terminal")

    for ns in range(1, na + 1):
        if ra * ns + min_vp >= best_val:
            break
        for s_ids in combinations(a_ids, ns):
            base = ra * ns
            usable = [v for v in b_ids if b_in_a[v] & set(s_ids)]
            if len(usable) < min_vp:
                continue
            coverable = set().union(*(t_of_b[v] for v in usable))
            if not terminals <= coverable:
                continue
            nv = min_vp
            while base + nv < best_val:
                found = False
                for v_ids in combinations(usable, nv):
                    if terminals <= reach(s_ids, v_ids):
                        best_val = base + nv
                        best_s, best_v = set(s_ids), set(v_ids)
                        found = True
                        break
                if found:
                    break
                nv += 1

    return BruteForceResult(
        True,
        best_val,
        tuple(sorted(inst.labels[u] for u in best_s)),
        tuple(sorted(inst.labels[v] for v in best_v)),
        (),
    )
