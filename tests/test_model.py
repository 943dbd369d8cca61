import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest

import dstgap
from dstgap.families import SubsetFamilyParams, subset_objects
from dstgap.model import (
    E1, E2, E3, E4,
    SizeCapError,
    build_instance,
    edge_class_counts,
    instance_from_dict,
    instance_from_json,
    instance_sha256,
    instance_stats,
    instance_to_dot,
    instance_to_json,
    parse_set_label,
    set_label,
    validate_objects,
)
from dstgap.rationals import parse_rational, render_rational

from _util import permuted_subset_objects


# ---------------------------------------------------------------------------
# validate_objects

def test_validate_zk4(zk4_objects):
    rep = validate_objects(zk4_objects)
    assert rep.ok
    obj = zk4_objects
    assert (obj.d, obj.d_prime, obj.s) == (2, 3, 3)
    assert (obj.num_a, obj.num_b) == (6, 4)
    # the shape inequalities fail at this scale, but only advisorily
    assert not rep.strict_ok
    assert {c.name for c in rep.failures()} == {"A-at-most-B", "d-at-least-d-prime"}
    assert all(not c.required for c in rep.failures())


def test_validate_subset_m6(subset_m6_objects):
    rep = validate_objects(subset_m6_objects)
    assert rep.ok and rep.strict_ok
    obj = subset_m6_objects
    assert (obj.d, obj.d_prime, obj.s, obj.k) == (6, 6, 6, 15)
    assert obj.num_a == obj.num_b == 15


def test_validate_recolored_edge_fails(zk4_objects):
    edges = list(zk4_objects.edges)
    a, b, c = edges[0]
    kv = zk4_objects.color_sets_by_b()
    c2 = next(x for x in sorted(kv[b]) if x != c)
    edges[0] = (a, b, c2)
    rep = validate_objects(replace(zk4_objects, edges=tuple(edges)))
    assert not rep.ok
    names = {ch.name for ch in rep.failures()}
    assert "color-classes-are-matchings-of-size-s" in names
    # the failing check names a witness color
    bad = next(ch for ch in rep.failures()
               if ch.name == "color-classes-are-matchings-of-size-s")
    assert bad.detail


def test_validate_reports_all_failures(zk4_objects):
    # drop an edge: breaks regularity on both sides plus the counting identity
    rep = validate_objects(replace(zk4_objects, edges=zk4_objects.edges[1:]))
    names = {ch.name for ch in rep.failures()}
    assert {"a-regular", "b-regular", "counting-identity"} <= names


def test_validate_rejects_bad_indices(zk4_objects):
    bad = replace(zk4_objects, edges=zk4_objects.edges + ((99, 0, 0),))
    with pytest.raises(ValueError):
        validate_objects(bad)


# ---------------------------------------------------------------------------
# build_instance

def test_build_zk4_counts(zk4_instance):
    inst = zk4_instance
    assert inst.n == 1 + 6 + 8 + 4 == 19
    counts = edge_class_counts(inst)
    assert counts == {E1: 6, E2: 12, E3: 4, E4: 12}
    assert sum(counts.values()) == 34
    assert all(e.cost == Fraction(2, 3) for e in inst.edges if e.klass == E1)


def test_build_subset_m6_counts(subset_m6_instance):
    inst = subset_m6_instance
    assert inst.n == 1 + 15 + 30 + 15 == 61
    assert all(e.cost == 1 for e in inst.edges if e.klass == E1)


def test_pi_out_neighbors_are_color_sets(zk4_instance, subset_m6_instance):
    for inst in (zk4_instance, subset_m6_instance):
        obj = inst.provenance
        out = inst.out_adjacency()
        kv = obj.color_sets_by_b()
        t_off = inst.level_offset(4)
        for i, v in enumerate(inst.level_ids(2)):
            nbrs = {w - t_off for w, _ in out[inst.pi(v)]}
            assert nbrs == set(kv[i])


def test_edge_class_costs(zk4_instance, subset_m6_instance):
    for inst in (zk4_instance, subset_m6_instance):
        obj = inst.provenance
        by_class = {}
        for e in inst.edges:
            by_class.setdefault(e.klass, set()).add(e.cost)
        assert by_class == {
            E1: {Fraction(obj.num_b, obj.num_a)},
            E2: {Fraction(0)},
            E3: {Fraction(1)},
            E4: {Fraction(0)},
        }


def test_build_rejects_invalid_objects(zk4_objects):
    bad = replace(zk4_objects, edges=zk4_objects.edges[1:])
    with pytest.raises(ValueError):
        build_instance(bad)


def test_build_invariants_raise_under_optimize():
    # the generator and build invariants are explicit checks, not asserts,
    # so they still run under python -O
    code = textwrap.dedent("""
        import sys
        from dstgap import families, model
        if __debug__:
            sys.exit("not running under -O")
        real = families.colex_subsets
        # one extra A-set breaks the counting identity d*|A| = s*k
        families.colex_subsets = lambda m, size: (
            real(m, size) + [frozenset()] if size == 2 else real(m, size))
        try:
            families.zk_objects(4)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("zk_objects: no error raised")
        families.colex_subsets = real
        model.edge_class_counts = lambda inst: {}
        try:
            model.build_instance(families.zk_objects(4))
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("build_instance: no error raised")
    """)
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    assert "is not a multiple of k" in first
    assert "built instance has edge classes {}" in second


def test_build_deterministic(zk4_objects):
    a = build_instance(zk4_objects)
    b = build_instance(zk4_objects)
    assert instance_to_json(a) == instance_to_json(b)
    assert instance_sha256(a) == instance_sha256(b)


def test_pi_rejects_non_level2(zk4_instance):
    with pytest.raises(ValueError):
        zk4_instance.pi(0)


def test_terminal_in_degree_is_s(zk9_instance):
    indeg = {}
    for e in zk9_instance.edges:
        indeg[e.head] = indeg.get(e.head, 0) + 1
    s = zk9_instance.provenance.s
    assert all(indeg[t] == s for t in zk9_instance.terminals)


# ---------------------------------------------------------------------------
# stats

def test_stats_canonical_costs(zk4_instance, zk9_instance):
    assert instance_stats(zk4_instance).canonical_lp_cost == Fraction(8, 3)
    s9 = instance_stats(zk9_instance)
    assert s9.canonical_lp_cost == Fraction(2 * 126, 56) == Fraction(9, 2)
    assert s9.n == 1 + 84 + 252 + 9 == 346
    assert instance_stats(zk9_instance) == s9  # determinism


def test_stats_total_cost(zk4_instance):
    # 6 root edges at 2/3 plus 4 unit copy edges
    assert instance_stats(zk4_instance).total_cost == 6 * Fraction(2, 3) + 4


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip_byte_identical(zk4_instance, subset_m6_instance):
    for inst in (zk4_instance, subset_m6_instance):
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert instance_to_json(again) == text
        assert again.level_sizes == inst.level_sizes
        assert again.provenance == inst.provenance


def test_json_rationals_round_trip(zk4_instance):
    data = json.loads(instance_to_json(zk4_instance))
    for entry in data["edges"]:
        q = parse_rational(entry["cost"])
        assert render_rational(q) == entry["cost"]


def test_loader_rejects_bad_levels(zk4_instance):
    data = json.loads(instance_to_json(zk4_instance))
    broken = dict(data, levels=data["levels"][:4])
    with pytest.raises(ValueError):
        instance_from_dict(broken)


def test_loader_rejects_bad_pi(zk4_instance):
    data = json.loads(instance_to_json(zk4_instance))
    v = next(iter(data["pi"]))
    data["pi"][v] = v  # not the primed copy
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_loader_rejects_level_skipping_edge(zk4_instance):
    data = json.loads(instance_to_json(zk4_instance))
    # r -> B-vertex skips a level
    data["edges"][0] = {"tail": "r", "head": data["levels"][2][0], "cost": "1/1"}
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_dot_export(zk4_instance):
    dot = instance_to_dot(zk4_instance)
    assert dot.startswith("digraph dst {")
    assert dot.count("rank=same") == 5
    assert '"r" ->' in dot


def test_dot_export_cap(zk9_instance):
    assert instance_to_dot(zk9_instance)  # 346 vertices, under default cap
    with pytest.raises(SizeCapError):
        instance_to_dot(zk9_instance, max_vertices=100)


# ---------------------------------------------------------------------------
# properties

def test_set_label_round_trip():
    assert parse_set_label(set_label({3, 1, 2})) == frozenset({1, 2, 3})
    assert set_label(parse_set_label("{1,2,5}")) == "{1,2,5}"
    with pytest.raises(ValueError):
        parse_set_label("1,2")


def test_random_relabelings_build_valid_instances():
    rng = random.Random(7)
    for _ in range(8):
        m = rng.choice([4, 5])
        obj = subset_objects(SubsetFamilyParams(m, 2, 0))
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        sigma = dict(zip(range(1, m + 1), perm))
        relabeled = permuted_subset_objects(obj, sigma)
        assert validate_objects(relabeled).ok
        inst = build_instance(relabeled)
        assert inst.n == 1 + obj.num_a + 2 * obj.num_b + obj.k
        counts = edge_class_counts(inst)
        assert counts[E4] == obj.s * obj.k
        assert counts[E2] == len(obj.edges)
