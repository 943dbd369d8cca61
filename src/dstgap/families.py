"""The containment family of gap instances and its two named cases.

Over the ground set {1..m}: A is all a-subsets, B is all (a+c)-subsets, an
edge joins A to B exactly when A is contained in B, and its color is
B \\ A, a c-subset.  The colors are the terminals.  Each A-set lies in
C(m-a, c) B-sets and each B-set holds C(a+c, a) A-sets, so d = C(m-a, c),
d' = C(a+c, a), k = C(m, c) and s = d|A|/k = C(m-c, a).

`containment_params` is the one family map: it reads a family name and its
params as (m, a, c, thresh), and no other module compares a family name.
`containment_counts` is the one counting layer: every binomial of the
family, and the J-set sizes at a thresh, computed from (m, a, c, thresh)
alone, with no objects built.

* element-colored family ("zk", Zosin and Khuller), params {"k": k}: m = k,
  a = sqrt(k) and c = 1.  A color is one element, labelled by it ("3").
* subset-colored family ("subset"), params {"m", "a", "thresh"}: c = a,
  and colors are labelled as sets ("{3}" when a = 1).

Subsets are ordered colexicographically everywhere (labels, indices, edge
order) so generated objects are reproducible byte for byte.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .model import GapObjects, SizeCapError

DEFAULT_EDGE_CAP = 10**7


def colex_subsets(m: int, size: int):
    """All size-subsets of {1..m} as ascending tuples, in colex order: by
    largest element, then by the next largest, and so on.  combinations of
    m, ..., 1 lists the subsets, each descending, in exactly the reverse of
    that order."""
    subsets = [t[::-1] for t in combinations(range(m, 0, -1), size)]
    subsets.reverse()
    return subsets


class ContainmentCounts(NamedTuple):
    num_a: int | None    # |A| = C(m, a)
    num_b: int | None    # |B| = C(m, a+c)
    k: int | None        # C(m, c)
    d: int | None        # C(m-a, c)
    d_prime: int | None  # C(a+c, a)
    s: int | None        # C(m-c, a): the A-sets that miss a color
    max_j: int | None = None  # |J_u|, every u
    max_r: int | None = None  # |K_v \ J_u|, every edge (u, v)


def containment_counts(m: int, a: int, c: int, thresh: int,
                       cap: int | None = None) -> ContainmentCounts:
    """Every count of the containment family over {1..m}, for the J-sets
    J_u = {C : |C intersect u| > thresh}: |J_u| is the sum over i > thresh
    of C(a, i) C(m-a, c-i), and |K_v \\ J_u| for u inside v the sum over
    i <= thresh of C(a, i) C(c, c-i).  A ValueError unless 1 <= a, 1 <= c,
    a + c <= m and 0 <= thresh < c.

    With a cap, a count above it is None, and neither J-set sum is made: a
    file can claim a huge k, and the sums cost a number of binomials that
    grows with a.  C(n, i) grows with i up to n/2 and is at least 2**i
    there, so a count past the cap is found in about log2(cap) steps, where
    math.comb of a large n and r would run for minutes."""
    if not (1 <= a and 1 <= c and a + c <= m and 0 <= thresh < c):
        raise ValueError(f"no containment family at {(m, a, c, thresh)}")

    def comb(n, r):
        if cap is None:
            return math.comb(n, r)
        value = 1
        for i in range(min(r, n - r)):
            if value > cap:
                return None
            value = value * (n - i) // (i + 1)  # C(n, i + 1), exactly
        return value if value <= cap else None

    def overlaps(n, lo, hi):
        """The c-subsets of {1..n} that meet a fixed a-subset in lo..hi
        elements, the sum of C(a, i) C(n-a, c-i): each term's two factors
        come from the last term's by exact integer ratios.  n - a >= c, so
        the second factor is never 0."""
        x, y = comb(a, lo), comb(n - a, c - lo)
        total = 0
        for i in range(lo, hi + 1):
            total += x * y
            x = x * (a - i) // (i + 1)  # C(a, i + 1)
            y = y * (c - i) // (n - a - c + i + 1)  # C(n-a, c-i-1)
        return total

    counts = ContainmentCounts(comb(m, a), comb(m, a + c), comb(m, c),
                               comb(m - a, c), comb(a + c, a), comb(m - c, a))
    if cap is not None:
        return counts
    return counts._replace(max_j=overlaps(m, thresh + 1, c),
                           max_r=overlaps(a + c, 0, thresh))


def _containment_objects(family: str, params: dict,
                         max_edges: int) -> GapObjects:
    """The objects of the containment family that containment_params reads
    from a family name and its params."""
    m, a, c, thresh = containment_params(family, params)
    name = f"{family} family " + ", ".join(f"{key}={value}"
                                           for key, value in params.items())
    # one edge per (B-set, c-subset of it), counted before enumerating
    counts = containment_counts(m, a, c, thresh, cap=max_edges)
    n_b, per_b = counts.num_b, counts.d_prime
    n_edges = None if None in (n_b, per_b) else n_b * per_b
    if n_edges is None or n_edges > max_edges:
        count = n_edges or f"more than {max_edges}"
        raise SizeCapError(f"{name} has {count} edges > cap {max_edges}")

    a_sets = colex_subsets(m, a)
    b_sets = colex_subsets(m, a + c)
    c_sets = colex_subsets(m, c)

    # a subset as the int with bit x set for each element x: colex order is
    # the order of these ints, and a disjoint union is a sum
    bit = [1 << x for x in range(m + 1)]
    a_masks = [sum(map(bit.__getitem__, t)) for t in a_sets]
    b_index = {sum(map(bit.__getitem__, t)): i for i, t in enumerate(b_sets)}
    c_index = {sum(map(bit.__getitem__, t)): i for i, t in enumerate(c_sets)}
    # A-major: each A-set's supersets A + C, over the c-subsets C of its
    # complement in colex order, which is their B-sets' order too; so the
    # edges come out sorted
    high_first = bit[:0:-1]
    edges = []
    for ai, am in enumerate(a_masks):
        cms = list(map(sum, combinations(
            [x for x in high_first if not am & x], c)))
        cms.reverse()
        edges += [(ai, b_index[am + cm], c_index[cm]) for cm in cms]

    names = list(map(str, range(m + 1)))  # element x -> its text

    def label(subset):
        return "{" + ",".join(map(names.__getitem__, subset)) + "}"

    return GapObjects(
        a_labels=tuple(map(label, a_sets)),
        b_labels=tuple(map(label, b_sets)),
        color_labels=tuple(names[x] for (x,) in c_sets) if family == "zk"
        else tuple(map(label, c_sets)),
        edges=tuple(edges),
        family=family,
        family_params=tuple(sorted(params.items())),
    )


# family name -> its params, each with the value `gen` gives it when its
# option is left out (None: the option is required)
FAMILY_PARAMS = {"zk": {"k": None},
                 "subset": {"m": None, "a": None, "thresh": 0}}


def containment_params(family: str, params: dict):
    """(m, a, c, thresh) that a family name and its params name; None for a
    family this package does not know.  A ValueError if params are not
    exactly that family's ints, or do not fit it."""
    if family not in FAMILY_PARAMS:
        return None
    names = FAMILY_PARAMS[family]
    if type(params) is not dict or params.keys() != names.keys() \
            or any(type(x) is not int for x in params.values()):
        raise ValueError(f"need the {family} params {', '.join(names)}, "
                         "as ints")
    if family == "zk":
        k = params["k"]
        rk = math.isqrt(k)
        if rk * rk != k:
            raise ValueError(f"k must be a perfect square, got {k}")
        if k < 4:
            raise ValueError(f"k must be at least 4, got {k}")
        return k, rk, 1, 0
    m, a, thresh = params["m"], params["a"], params["thresh"]
    if m < 1 or a < 1:
        raise ValueError("m and a must be positive")
    if 2 * a > m:
        raise ValueError(f"need 2a <= m, got a={a}, m={m}")
    if not 0 <= thresh < a:
        raise ValueError(f"need 0 <= thresh < a, got thresh={thresh}")
    return m, a, a, thresh


def family_objects(family: str, params: dict,
                   max_edges: int = DEFAULT_EDGE_CAP) -> GapObjects:
    """zk_objects or subset_objects of the params, as containment_params
    reads a family name and its params; else a ValueError."""
    if containment_params(family, params) is None:
        raise ValueError(f"no family {family!r}")
    generate = zk_objects if family == "zk" else subset_objects
    return generate(**params, max_edges=max_edges)


def zk_objects(k: int, max_edges: int = DEFAULT_EDGE_CAP) -> GapObjects:
    """The element-colored family on k terminals; k must be a perfect square >= 4."""
    return _containment_objects("zk", {"k": k}, max_edges)


def subset_objects(m: int, a: int, thresh: int = 0,
                   max_edges: int = DEFAULT_EDGE_CAP) -> GapObjects:
    """The subset-colored family on {1..m}: A-sets and colors are a-sets
    and B-sets 2a-sets.  thresh is used only when deriving the default
    J-sets: a color C belongs to J_u iff |C intersect u| > thresh."""
    return _containment_objects(
        "subset", {"m": m, "a": a, "thresh": thresh}, max_edges)


def default_j_sets(objects: GapObjects, thresh: int | None = None) -> tuple:
    """Canonical J-sets, one int mask of color indices per A-vertex, bit c
    for color c: J_u = {C : |C intersect u| > thresh}, where 0 <= thresh <
    |C| = c and thresh defaults to the family's, as containment_params
    reads them.  A zk color is one element, so J_u is u itself, read as a
    set of colors.  Colors and A-sets are the ground-set masks of
    model.label_masks, so |C intersect u| is a popcount.
    """
    shape = containment_params(objects.family, objects.params)
    if shape is None:
        raise ValueError(f"no default J-sets for family {objects.family!r}")
    _, _, size, default = shape
    if thresh is None:
        thresh = default
    if not 0 <= thresh < size:
        raise ValueError(
            f"need 0 <= thresh < {size} (the color size), got {thresh}")
    colors, a_sets = objects.color_and_a_masks
    return tuple(
        sum(1 << ci for ci, color in enumerate(colors)
            if (color & u).bit_count() > thresh)
        for u in a_sets)
