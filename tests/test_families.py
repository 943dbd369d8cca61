from math import comb

import pytest

from dstgap.families import (
    SubsetFamilyParams,
    colex_subsets,
    default_j_sets,
    subset_objects,
    zk_objects,
)
from dstgap.model import (SizeCapError, label_set, parse_set_label,
                          validate_objects)

from _util import toy_objects


# ---------------------------------------------------------------------------
# zk family

def test_zk4_shape(zk4_objects):
    obj = zk4_objects
    assert (obj.num_a, obj.num_b) == (6, 4)
    assert (obj.d, obj.d_prime, obj.s, obj.k) == (2, 3, 3, 4)
    assert obj.family == "zk" and obj.params == {"k": 4}


def test_zk9_shape(zk9_objects):
    obj = zk9_objects
    assert (obj.num_a, obj.num_b) == (84, 126)
    assert (obj.d, obj.d_prime, obj.s) == (6, 4, 56)


def test_zk_rejects_bad_k():
    for k in (3, 5, 8, 1, 0):
        with pytest.raises(ValueError):
            zk_objects(k)


def test_zk_edge_colors(zk4_objects):
    # color of (A, B) is the unique element of B \ A
    obj = zk4_objects
    for a, b, c in obj.edges:
        a_set = parse_set_label(obj.a_labels[a])
        b_set = parse_set_label(obj.b_labels[b])
        assert b_set - a_set == {c + 1}


def test_zk_matching_sizes(zk4_objects, zk9_objects):
    # |M_t| = s for every color t
    for obj in (zk4_objects, zk9_objects):
        per_color = [0] * obj.k
        for _, _, c in obj.edges:
            per_color[c] += 1
        assert per_color == [obj.s] * obj.k


# ---------------------------------------------------------------------------
# subset family

def test_subset_m6_shape(subset_m6_objects):
    obj = subset_m6_objects
    assert (obj.d, obj.d_prime, obj.s, obj.k) == (6, 6, 6, 15)
    assert obj.num_a == obj.num_b == 15
    assert obj.a_labels == obj.color_labels


def test_subset_m8_shape():
    obj = subset_objects(SubsetFamilyParams(8, 2))
    assert (obj.num_a, obj.num_b) == (28, 70)
    assert (obj.d, obj.d_prime, obj.s, obj.k) == (15, 6, 15, 28)
    assert validate_objects(obj) is None


def test_subset_m4_degenerate():
    obj = subset_objects(SubsetFamilyParams(4, 2, 0))
    assert len(obj.edges) == comb(4, 2) * 1 == 6
    assert obj.d == comb(2, 2) == 1
    assert validate_objects(obj) is None


def test_subset_edge_count_identity():
    # (A, B) <-> (A, B \ A) is a bijection with pairs of disjoint a-sets
    for m in (6, 8):
        obj = subset_objects(SubsetFamilyParams(m, 2))
        assert len(obj.edges) == comb(m, 2) * comb(m - 2, 2)
        assert len(set(obj.edges)) == len(obj.edges)


def test_subset_params_validation():
    with pytest.raises(ValueError):
        SubsetFamilyParams(3, 2)  # 2a > m
    with pytest.raises(ValueError):
        SubsetFamilyParams(6, 2, 2)  # thresh >= a
    with pytest.raises(ValueError):
        SubsetFamilyParams(6, 0)


def test_subset_size_cap():
    with pytest.raises(SizeCapError):
        subset_objects(SubsetFamilyParams(8, 2), max_edges=100)


def test_zk_size_cap_counts_edges():
    # zk9: C(9, 4) * 4 = 504 edges, the cap is inclusive
    assert len(zk_objects(9, max_edges=504).edges) == 504
    with pytest.raises(SizeCapError, match="504 edges"):
        zk_objects(9, max_edges=503)


def test_generators_pass_validation_grid():
    for k in (4, 9):
        assert validate_objects(zk_objects(k)) is None
    for m, a in ((2, 1), (5, 1), (4, 2), (5, 2), (6, 2), (6, 3), (8, 2)):
        for thresh in range(a):
            params = SubsetFamilyParams(m, a, thresh)
            assert validate_objects(subset_objects(params)) is None


# ---------------------------------------------------------------------------
# colex order

def test_colex_subsets_order():
    # colex on pairs {i < j}: by j, then by i
    expected = [frozenset({i, j}) for j in range(2, 7) for i in range(1, j)]
    assert len(expected) == comb(6, 2)
    assert colex_subsets(6, 2) == expected


# ---------------------------------------------------------------------------
# J-sets

def test_zk_j_sets(zk4_objects, zk9_objects):
    j = default_j_sets(zk9_objects)
    u = zk9_objects.a_labels.index("{1,2,3}")
    assert j[u] == frozenset({0, 1, 2})
    # J_u is u itself, as color indices: color x - 1 is element x
    for obj in (zk4_objects, zk9_objects, zk_objects(16)):
        j = default_j_sets(obj)
        assert j == tuple(frozenset(x - 1 for x in parse_set_label(lbl))
                          for lbl in obj.a_labels)
    with pytest.raises(ValueError):
        default_j_sets(zk4_objects, thresh=1)  # a zk color has one element


def test_zk_residual_is_one(zk4_objects, zk9_objects):
    # |K_B \ J_A| = 1 for every edge (A, B)
    for obj in (zk4_objects, zk9_objects):
        j = default_j_sets(obj)
        kv = obj.color_sets_by_b
        assert all(len(kv[b] - j[a]) == 1 for a, b, _ in obj.edges)


def test_subset_j_sets(subset_m6_objects):
    obj = subset_m6_objects
    u = obj.a_labels.index("{1,2}")
    j1 = default_j_sets(obj, thresh=1)
    assert j1[u] == frozenset({obj.color_labels.index("{1,2}")})
    j0 = default_j_sets(obj, thresh=0)
    assert len(j0[u]) == 15 - comb(4, 2) == 9


@pytest.mark.parametrize("build", [
    lambda: zk_objects(4), lambda: zk_objects(9), lambda: zk_objects(16),
    lambda: subset_objects(SubsetFamilyParams(6, 2, 1)),
    lambda: subset_objects(SubsetFamilyParams(7, 3, 1)),
    lambda: subset_objects(SubsetFamilyParams(10, 3, 1)),
], ids=["zk4", "zk9", "zk16", "m6", "m7a3", "m10a3"])
def test_j_sets_match_definition(build):
    obj = build()
    # J_u = {C : |C intersect u| > thresh}, by intersecting every color
    # with every A-set, for each thresh the color size allows
    colors = [label_set(lbl) for lbl in obj.color_labels]
    for thresh in range(len(colors[0])):
        assert default_j_sets(obj, thresh) == tuple(
            frozenset(ci for ci, color in enumerate(colors)
                      if len(color & u) > thresh)
            for u in map(label_set, obj.a_labels))


def test_j_sets_errors(subset_m6_objects):
    with pytest.raises(ValueError):
        default_j_sets(toy_objects())  # generic family has no default
    with pytest.raises(ValueError):
        default_j_sets(subset_m6_objects, thresh=2)
