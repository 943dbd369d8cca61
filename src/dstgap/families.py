"""The two concrete gap-instance families.

Both are subset constructions over a ground set, with an edge from A to B
exactly when A is contained in B:

* element-colored family ("zk"): A = all sqrt(k)-subsets of the k terminals,
  B = all (sqrt(k)+1)-subsets, edge color = the unique terminal in B \\ A.
  Here d = k - sqrt(k), d' = sqrt(k) + 1.

* subset-colored family ("subset"): terminals themselves are a-subsets of
  [m]; A = K = all a-subsets, B = all 2a-subsets, edge color = B \\ A.
  Here d = C(m-a, a), d' = C(2a, a), k = C(m, a), and s = d.

Subsets are ordered colexicographically everywhere (labels, indices, edge
order) so generated objects are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .model import GapObjects, SizeCapError, parse_set_label, set_label

comb = math.comb

DEFAULT_EDGE_CAP = 10**7


def colex_subsets(m: int, size: int):
    """All size-subsets of {1..m} as frozensets, in colex order."""
    subs = [frozenset(c) for c in combinations(range(1, m + 1), size)]
    subs.sort(key=lambda s: tuple(sorted(s, reverse=True)))
    return subs


def zk_objects(k: int, max_edges: int = DEFAULT_EDGE_CAP) -> GapObjects:
    """The element-colored family on k terminals; k must be a perfect square >= 4."""
    rk = math.isqrt(k)
    if rk * rk != k:
        raise ValueError(f"k must be a perfect square, got {k}")
    if k < 4:
        raise ValueError(f"k must be at least 4, got {k}")
    # one edge per (B-vertex, element of it), counted before enumerating
    n_edges = comb(k, rk + 1) * (rk + 1)
    if n_edges > max_edges:
        raise SizeCapError(
            f"zk family k={k} has {n_edges} edges > cap {max_edges}")

    a_sets = colex_subsets(k, rk)
    b_sets = colex_subsets(k, rk + 1)
    a_index = {s: i for i, s in enumerate(a_sets)}

    edges = []
    for bi, b in enumerate(b_sets):
        for x in b:
            edges.append((a_index[b - {x}], bi, x - 1))
    edges.sort()

    d, dp = k - rk, rk + 1
    s, rem = divmod(d * len(a_sets), k)
    if rem:
        raise RuntimeError(
            f"zk family k={k}: d*|A| = {d * len(a_sets)} is not a multiple of k")
    return GapObjects(
        a_labels=tuple(set_label(x) for x in a_sets),
        b_labels=tuple(set_label(x) for x in b_sets),
        color_labels=tuple(str(i) for i in range(1, k + 1)),
        edges=tuple(edges),
        d=d,
        d_prime=dp,
        s=s,
        k=k,
        family="zk",
        family_params=(("k", k),),
    )


@dataclass(frozen=True)
class SubsetFamilyParams:
    """Parameters of the subset-colored family.

    a is the common size of A-sets and colors; B-sets have size 2a.  thresh
    is used only when deriving the default J-sets: a color C belongs to J_u
    iff |C intersect u| > thresh.
    """

    m: int
    a: int
    thresh: int = 0

    def __post_init__(self):
        if self.m < 1 or self.a < 1:
            raise ValueError("m and a must be positive")
        if 2 * self.a > self.m:
            raise ValueError(f"need 2a <= m, got a={self.a}, m={self.m}")
        if not 0 <= self.thresh < self.a:
            raise ValueError(f"need 0 <= thresh < a, got thresh={self.thresh}")


def subset_objects(params: SubsetFamilyParams,
                   max_edges: int = DEFAULT_EDGE_CAP) -> GapObjects:
    """The subset-colored family for the given parameters."""
    m, a = params.m, params.a
    k = comb(m, a)
    d = comb(m - a, a)
    if k * d > max_edges:
        raise SizeCapError(
            f"subset family m={m}, a={a} has {k * d} edges > cap {max_edges}")

    a_sets = colex_subsets(m, a)  # doubles as the color list
    b_sets = colex_subsets(m, 2 * a)
    a_index = {s: i for i, s in enumerate(a_sets)}

    edges = []
    for bi, b in enumerate(b_sets):
        for sub in combinations(sorted(b), a):
            sub = frozenset(sub)
            edges.append((a_index[sub], bi, a_index[b - sub]))
    edges.sort()

    labels = tuple(set_label(x) for x in a_sets)
    return GapObjects(
        a_labels=labels,
        b_labels=tuple(set_label(x) for x in b_sets),
        color_labels=labels,
        edges=tuple(edges),
        d=d,
        d_prime=comb(2 * a, a),
        s=d,
        k=k,
        family="subset",
        family_params=(("a", a), ("m", m), ("thresh", params.thresh)),
    )


def default_j_sets(objects: GapObjects, thresh: int | None = None) -> tuple:
    """Canonical J-sets, one frozenset of color indices per A-vertex.

    Element-colored family: J_u is u itself, read as a set of colors.
    Subset-colored family: J_u = {C in K : |C intersect u| > thresh}, with
    thresh defaulting to the generator parameter.
    """
    if objects.family == "zk":
        return tuple(
            frozenset(x - 1 for x in parse_set_label(lbl))
            for lbl in objects.a_labels
        )
    if objects.family == "subset":
        if thresh is None:
            thresh = objects.params["thresh"]
        a = objects.params["a"]
        if not 0 <= thresh < a:
            raise ValueError(f"need 0 <= thresh < a={a}, got {thresh}")
        color_sets = [parse_set_label(lbl) for lbl in objects.color_labels]
        return tuple(
            frozenset(ci for ci, c in enumerate(color_sets)
                      if len(c & u) > thresh)
            for u in map(parse_set_label, objects.a_labels)
        )
    raise ValueError(f"no default J-sets for family {objects.family!r}")
