"""Shared helpers for the test suite."""

from math import comb

from dstgap.model import GapObjects, build_instance, label_set


def set_label(elements) -> str:
    """The canonical label of a set, the inverse of model.label_set."""
    return "{" + ",".join(str(x) for x in sorted(elements)) + "}"


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


def toy_objects():
    """Single-terminal toy: one A-vertex, one B-vertex, one color."""
    return GapObjects(
        a_labels=("u",),
        b_labels=("v",),
        color_labels=("t",),
        edges=((0, 0, 0),),
        d=1,
        d_prime=1,
        s=1,
        k=1,
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
        s=2 * obj.s, family="generic", family_params=())
