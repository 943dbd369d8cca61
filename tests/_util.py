"""Shared helpers for the test suite."""

from fractions import Fraction
from math import comb

from dstgap.bounds import DIGITS
from dstgap.model import (GapObjects, build_instance, instance_from_dict,
                          instance_to_dict)


def set_label(elements) -> str:
    """The canonical label of a set, the inverse of label_set."""
    return "{" + ",".join(str(x) for x in sorted(elements)) + "}"


def label_set(label) -> frozenset:
    """The set a label names, parsed here apart from model.label_masks so
    the reference computations do not share its reader: a set label "{1,2}"
    is read as its set, and a bare integer, "3" or 3, as {3}.  Any other
    label is a ValueError."""
    if type(label) is int:
        return frozenset((label,))
    if type(label) is str:
        body = label.strip()
        if body[:1] == "{" and body[-1:] == "}":
            body = body[1:-1].strip()
            return frozenset(map(int, body.split(",")) if body else ())
        return frozenset((int(label),))
    raise ValueError(f"label {label!r} names no set")


def permuted_subset_objects(obj, sigma):
    """Relabel the ground set of a subset-family GapObjects by sigma.

    The label tuples stay canonical (they list every a-subset / 2a-subset
    either way); only the edge triples move, so the result is an isomorphic
    and still-valid objects value.
    """
    a_pos = {lbl: i for i, lbl in enumerate(obj.a_labels)}
    b_pos = {lbl: i for i, lbl in enumerate(obj.b_labels)}

    def amap(i):
        moved = set_label(sigma[x] for x in label_set(obj.a_labels[i]))
        return a_pos[moved]

    def bmap(i):
        moved = set_label(sigma[x] for x in label_set(obj.b_labels[i]))
        return b_pos[moved]

    edges = tuple(sorted((amap(a), bmap(b), amap(c)) for a, b, c in obj.edges))
    return obj._replace(edges=edges)


def e3_edge_left_out(inst, holds_1_and_2):
    """The instance that inst's file loads as with the E3 edge of one
    B-vertex left out: the first B-vertex whose set holds both 1 and 2, or
    the first that holds exactly one of them."""
    data = instance_to_dict(inst)
    want = 2 if holds_1_and_2 else 1
    i = next(i for i, e in enumerate(data["edges"])
             if e["cost"] == "1/1" and e["head"].endswith("'")
             and len(label_set(e["tail"]) & {1, 2}) == want)
    del data["edges"][i]
    return instance_from_dict(data)


def toy_objects():
    """Single-terminal toy: one A-vertex, one B-vertex, one color."""
    return GapObjects(
        a_labels=("u",),
        b_labels=("v",),
        color_labels=("t",),
        edges=((0, 0, 0),),
    )


def toy_instance():
    return build_instance(toy_objects())


def overlap_count(m, a, c, lo, hi):
    """The c-subsets of {1..m} that meet a fixed a-subset in lo..hi
    elements, as an inline sum of binomials (0 <= lo, hi <= c): the oracle
    for families.containment_counts, which it never calls."""
    return sum(comb(a, i) * comb(m - a, c - i) for i in range(lo, hi + 1))


def two_copies(obj, shift):
    """Two disjoint copies of the objects that share their colors: the
    second copy's A- and B-labels have every element moved up by shift.
    Each color class is then a matching of size 2s, so the result is valid
    generic objects with s doubled and k, d and d' kept."""
    def moved(labels):
        return tuple(set_label(x + shift for x in label_set(lbl))
                     for lbl in labels)

    na, nb = obj.num_a, obj.num_b
    return obj._replace(
        a_labels=obj.a_labels + moved(obj.a_labels),
        b_labels=obj.b_labels + moved(obj.b_labels),
        edges=obj.edges + tuple((a + na, b + nb, c) for a, b, c in obj.edges),
        family="generic", family_params=())


def kv_sets(objects) -> tuple:
    """K_v for every B-vertex, the frozenset of its color indices, read
    from objects.edges: the oracle for GapObjects.color_masks_by_b, which
    it never reads."""
    kv = [set() for _ in objects.b_labels]
    for _, b, c in objects.edges:
        kv[b].add(c)
    return tuple(map(frozenset, kv))


def mask_set(mask: int) -> frozenset:
    """The indices of the set bits of an int mask, tested one bit at a
    time, apart from model.bit_indices."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def set_mask(indices) -> int:
    """The int mask with bit i set for each index i, the inverse of
    mask_set."""
    return sum(1 << i for i in set(indices))


def certify_reference(objects, j):
    """(alpha, per_u, OPT bound, gap bound) of the J-sets j, frozensets of
    color indices, from set algebra: |K_v \\ J_u| as len(kv[b] - j[a]) at
    each edge, with K_v from kv_sets.  The oracle for integral.certify_gap's
    popcounts over masks, which it never calls."""
    kv = kv_sets(objects)
    residual = [0] * objects.num_a
    for a, b, _ in objects.edges:
        residual[a] = max(residual[a], len(kv[b] - j[a]))
    sizes = [len(js) for js in j]
    alpha = min(Fraction(n, max(counts)) for n, counts in
                ((objects.d, sizes), (objects.d_prime, residual))
                if max(counts))
    return (alpha, tuple(zip(objects.a_labels, sizes, residual)),
            alpha * Fraction(objects.num_b, objects.s), alpha / 2)


def exp_bounds_reference(x):
    """(lower, upper) around e^x from exact Fraction Taylor sums, stopped
    as bounds.exp_bounds stops, with the same geometric tail: the oracle
    for its scaled-integer enclosure, which it never calls."""
    if x < 0:
        lower, upper = exp_bounds_reference(-x)
        return 1 / upper, 1 / lower
    eps = Fraction(1, 10 ** (DIGITS + 5))
    term = total = Fraction(1)
    i = 1
    while True:
        term = term * x / i
        total += term
        i += 1
        # once x/i <= 1/2 the remaining tail is at most 2 * next term
        if i > 2 * x and term * x / i * 2 <= eps * total:
            break
    return total, total + term * x / i * 2
