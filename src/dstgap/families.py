"""The containment family of gap instances and its two named cases.

Over the ground set {1..m}: A is all a-subsets, B is all (a+c)-subsets, an
edge joins A to B exactly when A is contained in B, and its color is
B \\ A, a c-subset.  The colors are the terminals.  Each A-set lies in
C(m-a, c) B-sets and each B-set holds C(a+c, a) A-sets, so d = C(m-a, c),
d' = C(a+c, a), k = C(m, c) and s = d|A|/k.

* element-colored family ("zk", Zosin and Khuller): m = k, a = sqrt(k) and
  c = 1.  A color is one element and is labelled by it ("3").  Here
  d = k - sqrt(k), d' = sqrt(k) + 1.

* subset-colored family ("subset"): c = a, so colors and terminals are
  a-subsets, labelled as sets ("{3}" when a = 1).  Here d = C(m-a, a),
  d' = C(2a, a), k = C(m, a), and s = d.

Subsets are ordered colexicographically everywhere (labels, indices, edge
order) so generated objects are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .model import GapObjects, SizeCapError, label_set, set_label

comb = math.comb

DEFAULT_EDGE_CAP = 10**7


def colex_subsets(m: int, size: int):
    """All size-subsets of {1..m} as frozensets, in colex order: by largest
    element, then by the next largest, and so on.  combinations of m, ...,
    1 lists the subsets in exactly the reverse of that order."""
    return [frozenset(c) for c in
            reversed(list(combinations(range(m, 0, -1), size)))]


def _containment_objects(m: int, a: int, c: int, *, name: str, family: str,
                         family_params: tuple, color_label,
                         max_edges: int) -> GapObjects:
    """The containment family on {1..m} with a-subsets A, (a+c)-subsets B
    and c-subset colors.  name starts the error messages, and
    color_label(C) renders color C."""
    # one edge per (B-set, c-subset of it), counted before enumerating
    n_edges = comb(m, a + c) * comb(a + c, a)
    if n_edges > max_edges:
        raise SizeCapError(f"{name} has {n_edges} edges > cap {max_edges}")

    a_sets = colex_subsets(m, a)
    b_sets = colex_subsets(m, a + c)
    c_sets = colex_subsets(m, c)
    a_index = {x: i for i, x in enumerate(a_sets)}
    c_index = {x: i for i, x in enumerate(c_sets)}

    edges = []
    for bi, b in enumerate(b_sets):
        for color in map(frozenset, combinations(b, c)):
            edges.append((a_index[b - color], bi, c_index[color]))
    edges.sort()

    k = len(c_sets)
    d = comb(m - a, c)
    s, rem = divmod(d * len(a_sets), k)
    if rem:
        raise RuntimeError(
            f"{name}: d*|A| = {d * len(a_sets)} is not a multiple of k")
    return GapObjects(
        a_labels=tuple(map(set_label, a_sets)),
        b_labels=tuple(map(set_label, b_sets)),
        color_labels=tuple(map(color_label, c_sets)),
        edges=tuple(edges),
        d=d,
        d_prime=comb(a + c, a),
        s=s,
        k=k,
        family=family,
        family_params=family_params,
    )


def zk_objects(k: int, max_edges: int = DEFAULT_EDGE_CAP) -> GapObjects:
    """The element-colored family on k terminals; k must be a perfect square >= 4."""
    rk = math.isqrt(k)
    if rk * rk != k:
        raise ValueError(f"k must be a perfect square, got {k}")
    if k < 4:
        raise ValueError(f"k must be at least 4, got {k}")
    return _containment_objects(
        k, rk, 1, name=f"zk family k={k}", family="zk",
        family_params=(("k", k),), color_label=lambda color: str(*color),
        max_edges=max_edges)


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
    return _containment_objects(
        m, a, a, name=f"subset family m={m}, a={a}", family="subset",
        family_params=(("a", a), ("m", m), ("thresh", params.thresh)),
        color_label=set_label, max_edges=max_edges)


def default_j_sets(objects: GapObjects, thresh: int | None = None) -> tuple:
    """Canonical J-sets, one frozenset of color indices per A-vertex:
    J_u = {C : |C intersect u| > thresh}, with 0 <= thresh < |C|.

    Element-colored family: colors are single elements, so thresh is 0
    and J_u is u itself, read as a set of colors.  Subset-colored family:
    colors are a-sets, and thresh defaults to the generator parameter.
    """
    if objects.family == "zk":
        size, default = 1, 0
    elif objects.family == "subset":
        size, default = objects.params["a"], objects.params["thresh"]
    else:
        raise ValueError(f"no default J-sets for family {objects.family!r}")
    if thresh is None:
        thresh = default
    if not 0 <= thresh < size:
        raise ValueError(
            f"need 0 <= thresh < {size} (the color size), got {thresh}")
    colors = [label_set(lbl) for lbl in objects.color_labels]
    return tuple(
        frozenset(ci for ci, color in enumerate(colors)
                  if len(color & u) > thresh)
        for u in map(label_set, objects.a_labels)
    )
