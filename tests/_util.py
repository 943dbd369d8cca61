"""Shared helpers for the test suite."""

from dstgap.model import GapObjects, build_instance, label_set, set_label


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
