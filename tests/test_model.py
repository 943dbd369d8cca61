import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import dstgap
from dstgap.families import SubsetFamilyParams, subset_objects, zk_objects
from dstgap.model import (
    E1, E2, E3, E4,
    GapObjects,
    SizeCapError,
    build_instance,
    edge_class_counts,
    instance_from_dict,
    instance_from_json,
    instance_sha256,
    instance_stats,
    instance_to_dict,
    instance_to_dot,
    instance_to_json,
    label_set,
    parse_set_label,
    set_label,
    validate_objects,
)
from dstgap.rationals import parse_rational, render_rational

from _util import permuted_subset_objects


# ---------------------------------------------------------------------------
# validate_objects

def test_validate_zk4(zk4_objects):
    # |A| > |B| and d < d' at this scale: the shape of the asymptotic
    # families, not an invariant, so the objects pass
    assert validate_objects(zk4_objects) is None
    obj = zk4_objects
    assert (obj.d, obj.d_prime, obj.s) == (2, 3, 3)
    assert (obj.num_a, obj.num_b) == (6, 4)


def test_validate_subset_m6(subset_m6_objects):
    assert validate_objects(subset_m6_objects) is None
    obj = subset_m6_objects
    assert (obj.d, obj.d_prime, obj.s, obj.k) == (6, 6, 6, 15)
    assert obj.num_a == obj.num_b == 15


def test_validate_recolored_edge_fails(zk4_objects):
    edges = list(zk4_objects.edges)
    a, b, c = edges[0]
    kv = zk4_objects.color_sets_by_b
    c2 = next(x for x in sorted(kv[b]) if x != c)
    edges[0] = (a, b, c2)
    with pytest.raises(ValueError) as info:
        validate_objects(replace(zk4_objects, edges=tuple(edges)))
    # the failing check names its witness colors
    colors = sorted({zk4_objects.color_labels[x] for x in (c, c2)})
    assert (f"color-classes-are-matchings-of-size-s (colors failing: "
            f"{colors})") in str(info.value)


def test_validate_reports_all_failures(zk4_objects):
    # drop an edge: breaks regularity on both sides plus the counting
    # identity, all named in one line with their witnesses
    a, b, _ = zk4_objects.edges[0]
    with pytest.raises(ValueError) as info:
        validate_objects(replace(zk4_objects, edges=zk4_objects.edges[1:]))
    message = str(info.value)
    assert "\n" not in message
    assert (f"a-regular (A-vertices with degree != d=2: "
            f"{[zk4_objects.a_labels[a]]})") in message
    assert (f"b-regular (B-vertices with degree != d'=3: "
            f"{[zk4_objects.b_labels[b]]})") in message
    assert "counting-identity (sk=12, d|A|=12, d'|B|=12, |E|=11)" in message


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
    assert inst.class_costs[E1] == Fraction(2, 3)


def test_build_subset_m6_counts(subset_m6_instance):
    inst = subset_m6_instance
    assert inst.n == 1 + 15 + 30 + 15 == 61
    assert inst.class_costs[E1] == 1


def test_pi_out_neighbors_are_color_sets(zk4_instance, subset_m6_instance):
    for inst in (zk4_instance, subset_m6_instance):
        obj = inst.provenance
        kv = obj.color_sets_by_b
        t_off = inst.level_offset(4)
        for i, v in enumerate(inst.level_ids(2)):
            nbrs = {w - t_off for u, w in zip(inst.tails, inst.heads)
                    if u == inst.pi(v)}
            assert nbrs == set(kv[i])


def test_edge_class_costs(zk4_instance, subset_m6_instance):
    for inst in (zk4_instance, subset_m6_instance):
        obj = inst.provenance
        by_class = {klass: inst.class_costs[klass]
                    for klass in set(inst.classes)}
        assert by_class == {
            E1: Fraction(obj.num_b, obj.num_a),
            E2: Fraction(0),
            E3: Fraction(1),
            E4: Fraction(0),
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


def test_no_assert_statements_in_package():
    # checks on a decision path must still run under python -O
    pkg = os.path.dirname(dstgap.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found


def test_build_deterministic(zk4_objects):
    a = build_instance(zk4_objects)
    b = build_instance(zk4_objects)
    assert instance_to_json(a) == instance_to_json(b)
    assert instance_sha256(a) == instance_sha256(b)


def test_pi_rejects_non_level2(zk4_instance):
    with pytest.raises(ValueError):
        zk4_instance.pi(0)


def test_terminal_in_degree_is_s(zk9_instance):
    indeg = Counter(zk9_instance.heads)
    s = zk9_instance.provenance.s
    assert all(indeg[t] == s for t in zk9_instance.terminals)


# ---------------------------------------------------------------------------
# stats

def test_stats_canonical_costs(zk4_instance, zk9_instance):
    assert instance_stats(zk4_instance).canonical_cost == Fraction(8, 3)
    s9 = instance_stats(zk9_instance)
    assert s9.canonical_cost == Fraction(2 * 126, 56) == Fraction(9, 2)
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


@pytest.mark.parametrize("extra", ["e4-outside-kv", "cross-copy"])
def test_loader_rejects_edge_outside_objects(zk4_instance, extra):
    # each edge goes down one level and costs its class cost, but the
    # objects' instance has no such edge
    data = json.loads(instance_to_json(zk4_instance))
    levels = data["levels"]
    listed = {(e["tail"], e["head"]) for e in data["edges"]}
    if extra == "e4-outside-kv":
        vp = levels[3][0]
        t = next(t for t in levels[4] if (vp, t) not in listed)
        data["edges"].append({"tail": vp, "head": t, "cost": "0/1"})
    else:
        data["edges"].append(
            {"tail": levels[2][0], "head": levels[3][1], "cost": "1/1"})
    with pytest.raises(ValueError, match="is not an edge of the objects'"):
        instance_from_dict(data)


def test_loader_rejects_labels_that_merge_two_edges():
    # A-vertex "v'" and terminal "v" make the E2 edge v' -> v and the E4
    # edge pi(v) -> v the same (tail, head) label pair
    objects = GapObjects(a_labels=("v'",), b_labels=("v",),
                         color_labels=("v",), edges=((0, 0, 0),),
                         d=1, d_prime=1, s=1, k=1)
    data = json.loads(instance_to_json(build_instance(objects)))
    with pytest.raises(ValueError, match="same \\(tail, head\\) labels"):
        instance_from_dict(data)


def test_loader_builds_no_edge_index(zk4_instance, subset_m6_instance):
    for inst in (zk4_instance, subset_m6_instance):
        loaded = instance_from_json(instance_to_json(inst))
        assert "edge_index" not in loaded.__dict__


# SHA-256 of the files `gen` writes; a writer change must keep every byte
PINNED_SHA256 = {
    "zk4": "aaf4c8725136cd4aaf785adba38af7ee8f33f7ef6a12217d4b7b2ec7e9372ca3",
    "zk9": "9e984ae61237b24e8ffdb0879df7ed2c4e9305bf928a56ebf98a8554d3971082",
    "zk16": "9d941671d3702da60446928d6ee15ab41035ab23093a47c64afc0bca8f7f6f37",
    "m4": "beff2e76641ee73f2b8b8fbf2b42fad44e9c8489ddfeb1332dd93bce0e44f640",
    "m6": "536cb97b406f25e40ffbe0ca3d643d9951a500a849f4ba3ae94296918f1b9423",
    "m7a3": "ffda0df24496d4ad82fb5ac9849b5e7dfaf8c407ae3d862765051a51efe6874f",
    "m10a3": "1c33cf57b39b87ad90c820affc681af16f5aab429c0effa3a7040b00e598570c",
    # the one file whose colors are 1-sets, written "{x}" and not "x"
    "m5a1": "658004539a34062b524cbc8bca4d430776a6f2a793b1a534d1f499632433ee35",
}
FAMILY_OBJECTS = {
    "zk4": lambda: zk_objects(4),
    "zk9": lambda: zk_objects(9),
    "zk16": lambda: zk_objects(16),
    "m4": lambda: subset_objects(SubsetFamilyParams(4, 2, 0)),
    "m6": lambda: subset_objects(SubsetFamilyParams(6, 2, 1)),
    "m7a3": lambda: subset_objects(SubsetFamilyParams(7, 3, 1)),
    "m10a3": lambda: subset_objects(SubsetFamilyParams(10, 3, 1)),
    "m5a1": lambda: subset_objects(SubsetFamilyParams(5, 1, 0)),
}


def _oracle(inst):
    return json.dumps(instance_to_dict(inst), indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_family_files_are_pinned(name):
    inst = build_instance(FAMILY_OBJECTS[name]())
    text = instance_to_json(inst)
    assert text == _oracle(inst)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[name]
    assert instance_sha256(inst) == PINNED_SHA256[name]


def test_writer_matches_oracle_on_relabelled_objects(subset_m6_objects):
    sigma = dict(zip(range(1, 7), (3, 6, 1, 5, 2, 4)))
    inst = build_instance(permuted_subset_objects(subset_m6_objects, sigma))
    assert instance_to_json(inst) == _oracle(inst)


def test_writer_matches_oracle_on_loaded_files(zk4_instance):
    data = instance_to_dict(zk4_instance)
    classes = [("color" in e, e["cost"]) for e in data["edges"]]
    # leave out the first E1 edge, an E3 edge and the last E4 edge
    drop = {0, classes.index((False, "1/1")), len(classes) - 1}
    data["edges"] = [e for i, e in enumerate(data["edges"]) if i not in drop]
    loaded = instance_from_dict(data)
    assert len(loaded.tails) == len(zk4_instance.tails) - 3
    assert instance_to_json(loaded) == _oracle(loaded)
    assert instance_to_dict(loaded) == data

    generic = instance_to_dict(zk4_instance)
    generic["meta"]["family"] = "generic"
    generic["meta"]["params"] = {"note": {"b": [1, [2.5, None]], "a": {}},
                                 "tags": [], "x": "\u00e9\""}
    loaded = instance_from_dict(generic)
    assert instance_to_json(loaded) == _oracle(loaded)
    assert json.loads(instance_to_json(loaded)) == generic

    # a file's labels need not be strings: integer terminals
    numbered = instance_to_dict(zk4_instance)
    terminals = set(numbered["levels"][4])
    numbered["levels"][4] = [int(t) for t in numbered["levels"][4]]
    for e in numbered["edges"]:
        e.update((key, int(e[key])) for key in ("head", "color")
                 if e.get(key) in terminals)
    loaded = instance_from_dict(numbered)
    assert instance_to_json(loaded) == _oracle(loaded)
    assert json.loads(instance_to_json(loaded)) == numbered


def test_writer_matches_oracle_on_awkward_labels(zk4_objects):
    obj = zk4_objects
    quoted = replace(
        obj,
        a_labels=tuple(f'A"{x}\\' for x in obj.a_labels),
        b_labels=tuple(f"B\x01{x}\t\u00e9" for x in obj.b_labels),
        color_labels=tuple(f"\u2603{x}\U0001f600\x7f" for x in obj.color_labels))
    # labels built in code need not be strings
    typed = replace(obj, a_labels=(("u", 1), 2, 2.5, None, "v", ("w", (3, "x"))),
                    color_labels=(1, "2", ("t", 3), -4))
    for objects in (quoted, typed):
        inst = build_instance(objects)
        assert instance_to_json(inst) == _oracle(inst)
        assert instance_to_json(inst).isascii()
    no_edges = replace(build_instance(quoted), tails=(), heads=(), classes=(),
                       colors=())
    assert instance_to_json(no_edges) == _oracle(no_edges)


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


def test_label_set_reads_sets_and_bare_integers():
    assert label_set("{1,2}") == frozenset({1, 2})
    assert label_set("3") == label_set("{3}") == frozenset({3})
    assert label_set(3) == frozenset({3})  # a file's labels need not be str
    for label in ("x", "{1,x}", 1.5, True, None, ("u", 1)):
        with pytest.raises(ValueError) as info:
            label_set(label)
        assert str(info.value) == f"label {label!r} names no set"


def test_random_relabelings_build_valid_instances():
    rng = random.Random(7)
    for _ in range(8):
        m = rng.choice([4, 5])
        obj = subset_objects(SubsetFamilyParams(m, 2, 0))
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        sigma = dict(zip(range(1, m + 1), perm))
        relabeled = permuted_subset_objects(obj, sigma)
        assert validate_objects(relabeled) is None
        inst = build_instance(relabeled)
        assert inst.n == 1 + obj.num_a + 2 * obj.num_b + obj.k
        counts = edge_class_counts(inst)
        assert counts[E4] == obj.s * obj.k
        assert counts[E2] == len(obj.edges)
