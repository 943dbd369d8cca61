import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import dstgap
from dstgap import families, model
from dstgap.cli import main
from dstgap.families import subset_objects, zk_objects
from dstgap.model import (
    E1, E2, E3, E4,
    GapObjects,
    SizeCapError,
    build_instance,
    edge_class_counts,
    instance_from_dict,
    instance_from_json,
    instance_sha256,
    instance_to_dict,
    instance_to_dot,
    instance_to_json,
    DstInstance,
    label_set,
    validate_objects,
)
from dstgap.rationals import parse_rational, render_rational

from _util import permuted_subset_objects, set_label


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
        validate_objects(zk4_objects._replace(edges=tuple(edges)))
    # the failing check names its witness colors
    colors = sorted({zk4_objects.color_labels[x] for x in (c, c2)})
    assert (f"color-classes-are-matchings-of-size-s (colors failing: "
            f"{colors})") in str(info.value)


def test_validate_reports_all_failures(zk4_objects):
    # drop an edge: breaks regularity on both sides plus the counting
    # identity, all named in one line with their witnesses
    a, b, _ = zk4_objects.edges[0]
    with pytest.raises(ValueError) as info:
        validate_objects(zk4_objects._replace(edges=zk4_objects.edges[1:]))
    message = str(info.value)
    assert "\n" not in message
    assert (f"a-regular (A-vertices with degree != d=2: "
            f"{[zk4_objects.a_labels[a]]})") in message
    assert (f"b-regular (B-vertices with degree != d'=3: "
            f"{[zk4_objects.b_labels[b]]})") in message
    assert "counting-identity (sk=12, d|A|=12, d'|B|=12, |E|=11)" in message


def test_validate_rejects_bad_indices(zk4_objects):
    bad = zk4_objects._replace(edges=zk4_objects.edges + ((99, 0, 0),))
    with pytest.raises(ValueError):
        validate_objects(bad)


def test_validate_huge_claimed_family_is_quick():
    # k = C(16000, 4000) has 3,906 digits, and d and d' match it; every
    # count is computed no further than k, and neither J-set sum is made
    bad = GapObjects(
        a_labels=("u",), b_labels=("v",), color_labels=("t",),
        edges=((0, 0, 0),), d=comb(12000, 4000), d_prime=comb(8000, 4000),
        s=1, k=comb(16000, 4000), family="subset",
        family_params=(("a", 4000), ("m", 16000), ("thresh", 0)))
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        validate_objects(bad)
    assert time.perf_counter() - start < 1.0
    # each claimed int is cut to its ends and its length in the one line
    message = str(info.value)
    assert len(message) < 1000
    for name in ("color-count", "a-regular", "b-regular",
                 "counting-identity", "kv-size", "family-params"):
        assert f"{name} (" in message, name
    assert f"k={str(bad.k)[:5]}...{str(bad.k)[-5:]} (3906 digits)" in message


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
    bad = zk4_objects._replace(edges=zk4_objects.edges[1:])
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


def _package_nodes():
    """(module file name, node) for every AST node of the package."""
    pkg = os.path.dirname(dstgap.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            yield from ((name, node) for node in ast.walk(tree))


def test_no_assert_statements_in_package():
    # checks on a decision path must still run under python -O
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert not found


def test_only_families_compares_a_family_name():
    # one family map: every other module asks families what a name means
    found = [
        f"{name}:{node.lineno}" for name, node in _package_nodes()
        if name != "families.py"
        and isinstance(node, (ast.Compare, ast.MatchValue))
        and any(isinstance(sub, ast.Constant) and sub.value in ("zk", "subset")
                for sub in ast.walk(node))
    ]
    assert not found


def test_only_containment_counts_calls_comb():
    # one counting layer: every binomial of the family is computed in
    # families.containment_counts, so no other code names comb
    nodes = list(_package_nodes())
    inside = {id(sub) for name, node in nodes
              if (name, getattr(node, "name", None))
              == ("families.py", "containment_counts")
              for sub in ast.walk(node)}
    found = [
        f"{name}:{node.lineno}" for name, node in nodes
        if id(node) not in inside
        and "comb" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
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
# serialization

def test_json_round_trip_byte_identical(zk4_instance, subset_m6_instance):
    for inst in (zk4_instance, subset_m6_instance):
        text = instance_to_json(inst)
        again = instance_from_json(text.encode())
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
        loaded = instance_from_json(instance_to_json(inst).encode())
        assert "edge_index" not in loaded.__dict__


def test_replace_recomputes_cached_values(zk4_objects, zk4_instance,
                                          subset_m6_instance):
    # _replace makes a new object whose cache is empty: each derived value,
    # read first on the original, is computed again from the new fields
    kv, inst = zk4_objects.color_sets_by_b, zk4_instance
    codes, costs = inst.edge_index, inst.class_costs
    a, b, c = zk4_objects.edges[0]
    fewer = zk4_objects._replace(edges=zk4_objects.edges[1:])
    assert fewer.color_sets_by_b == kv[:b] + (kv[b] - {c},) + kv[b + 1:]
    with pytest.raises(ValueError) as info:
        validate_objects(fewer)
    assert (f"kv-size (B-vertices with |K_v| != d'=3: "
            f"{[zk4_objects.b_labels[b]]})") in str(info.value)
    assert "b-regular" in str(info.value)

    dropped = inst._replace(**{col: getattr(inst, col)[1:] for col in
                               ("tails", "heads", "classes", "colors")})
    assert dropped.edge_index == {code: i - 1 for code, i in codes.items()
                                  if i}
    # labels, level sizes and costs follow the objects
    labels, sizes = inst.labels, inst.level_sizes
    moved = inst._replace(provenance=subset_m6_instance.provenance)
    assert sizes == (1, 6, 4, 4, 4) and costs[E1] == Fraction(4, 6)
    assert moved.labels == subset_m6_instance.labels != labels
    assert moved.level_sizes == (1, 15, 15, 15, 15)
    assert moved.class_costs == subset_m6_instance.class_costs
    assert moved.class_costs[E1] == 1
    # equality is by field values alone
    again = inst._replace()
    assert again == inst and "edge_index" not in again.__dict__


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
    "m4": lambda: subset_objects(4, 2, 0),
    "m6": lambda: subset_objects(6, 2, 1),
    "m7a3": lambda: subset_objects(7, 3, 1),
    "m10a3": lambda: subset_objects(10, 3, 1),
    "m5a1": lambda: subset_objects(5, 1, 0),
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


def test_tampered_instance_writes_its_own_columns(zk4_instance):
    # the writer renders the instance's edge columns, not its objects': an
    # edge that is not a built edge, a dropped edge and an edge out of built
    # order are all written as they are
    inst = zk4_instance
    vp, t = inst.level_offset(3), inst.terminals[-1]
    extra = inst._replace(tails=inst.tails + (vp,), heads=inst.heads + (t,),
                          classes=inst.classes + (E4,),
                          colors=inst.colors + (None,))
    order = list(range(len(inst.tails)))[::-1][1:]
    shuffled = inst._replace(**{col: tuple(getattr(inst, col)[i]
                                           for i in order)
                                for col in ("tails", "heads", "classes",
                                            "colors")})
    for tampered in (extra, shuffled):
        text = instance_to_json(tampered)
        assert text == _oracle(tampered)
        assert text != instance_to_json(inst)
    last, entry = json.loads(instance_to_json(extra))["edges"][-2:]
    assert entry == dict(last, tail=inst.labels[vp], head=inst.labels[t])


@pytest.mark.parametrize("name", sorted(FAMILY_OBJECTS))
def test_instance_values_are_its_objects(name):
    # an instance has its edge columns and objects as fields; its labels,
    # level sizes and costs are what the objects give, built or loaded
    assert DstInstance._fields == ("tails", "heads", "classes", "colors",
                                   "provenance")
    obj = FAMILY_OBJECTS[name]()
    built = build_instance(obj)
    data = json.loads(instance_to_json(built))
    data["edges"].pop()  # an E4 edge: the objects stay whole
    loaded = instance_from_dict(data)
    assert loaded.provenance == obj
    assert len(loaded.tails) == len(built.tails) - 1
    for inst in (built, loaded):
        assert inst.labels == (("r",) + obj.a_labels + obj.b_labels
                               + tuple(v + "'" for v in obj.b_labels)
                               + obj.color_labels)
        assert inst.labels == tuple(label for level in data["levels"]
                                    for label in level)
        assert inst.level_sizes == (1, obj.num_a, obj.num_b, obj.num_b,
                                    obj.k)
        assert inst.class_costs == {E1: Fraction(obj.num_b, obj.num_a),
                                    E2: 0, E3: 1, E4: 0}


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_family_files_load_by_rendering(name, monkeypatch):
    # a file as gen writes it loads with no dict tree, into the instance
    # the dict tree gives
    text = instance_to_json(build_instance(FAMILY_OBJECTS[name]()))
    expected = instance_from_dict(json.loads(text))

    def refuse(data):
        raise AssertionError("the file was loaded through its dict tree")

    monkeypatch.setattr(model, "instance_from_dict", refuse)
    loaded = instance_from_json(text.encode())
    assert loaded == expected
    assert loaded.provenance == expected.provenance


# SHA-256 of the stdout and the report of `certify NAME.json --out
# NAME.certify`, run in the file's directory on the file `gen` writes
CERTIFY_SHA256 = {
    "m10a3": ("3cd9cf065c71c4d9fe3fba86bc59d96bd2874ba4d1b266b3e29813a69cb63a52",
              "18a9e23aca880174d4fa1c1e9a140b0cb504af0eee4b31423e4f01bd5733f71e"),
    "m4": ("cf09aa09ad8ad347725ca9e2d9d29a175ae6ce888fc9f4a6489f2198dca42e70",
           "ebfe82b4c515c937561ad6888a790c57f3156c3c32495f4a40ae58ac6db29fc2"),
    "m5a1": ("51db3667ab347d8a44288ada2f05193b9373c65c702254cde640a37530dc05dc",
             "32a6f8a511a500851adbd7f34017ecd4f95cd0ba22b82495f6854c121e531177"),
    "m6": ("4e62e10a6ad48a4a3390ebcdd92bc17a1575946c03783836ea509de7509c90e9",
           "6e0dc25abaad61b439fed3757b0a52619d75dfc244654a16fbffeece06ca3c73"),
    "m7a3": ("e9852d6d2e5e48c91f1a73bdc6177ecac80dc98ee8e2633cb2a73ca5332484a1",
             "de7445ab476c5229ddf4da08347c6071b89e7a7e2e3a58fee5275751e663d7a2"),
    "zk16": ("31614a3358cbf80fd8d9e7a90a6502d43c94ea6934b5e4b3efc8caf78dfa3740",
             "ea94f345ac833293438d0122eadd6db58ef9c642d5383da55aa157db74816da7"),
    "zk4": ("ee871307ad73c30e3be9f86848f5a590cd671a96edf2ee8572d5ef4c0bf1ea77",
            "50584dc495a5b0373a8921d827f23dd279eeb7f44ac877ed25afef6468fa3a11"),
    "zk9": ("efdf378174d0649ea85607d144bd10defa07706cc4763ecaf3c0f152864e4a09",
            "a9f1961088a95b32950edd49c194a1df5d03c1e3157d6ab8ce7d853fb710b7b4"),
}


def test_certify_builds_no_instance(tmp_path, monkeypatch, capsys):
    # certify reads only the objects: a family file as gen writes it is
    # generated and compared with its bytes, and no graph is built
    assert sorted(CERTIFY_SHA256) == sorted(FAMILY_OBJECTS)
    for name in FAMILY_OBJECTS:
        (tmp_path / f"{name}.json").write_text(
            instance_to_json(build_instance(FAMILY_OBJECTS[name]())))

    def refuse(objects):
        raise AssertionError("certify built an instance")

    monkeypatch.setattr(model, "build_instance", refuse)
    monkeypatch.chdir(tmp_path)
    for name, (stdout_sha, report_sha) in CERTIFY_SHA256.items():
        assert main(["certify", f"{name}.json", "--out",
                     f"{name}.certify"]) == 0, name
        stdout = capsys.readouterr().out
        report = (tmp_path / f"{name}.certify").read_bytes()
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256(report).hexdigest() == report_sha


def test_small_file_claiming_a_large_family_builds_nothing(monkeypatch):
    # zk4's file with meta k = 10000: the generator is capped by the file's
    # length, so it refuses zk10000 without enumerating it
    data = instance_to_dict(build_instance(zk_objects(4)))
    data["meta"]["k"] = data["meta"]["params"]["k"] = 10000
    text = json.dumps(data, indent=1) + "\n"
    caps = []
    generate = families.zk_objects

    def spy(k, max_edges):
        caps.append(max_edges)
        with pytest.raises(SizeCapError):
            generate(k, max_edges=max_edges)
        raise SizeCapError("refused")

    monkeypatch.setattr(families, "zk_objects", spy)
    with pytest.raises(ValueError, match="color-count"):
        instance_from_json(text.encode())
    # every edge of the objects is an entry of 50 or more characters
    assert len(caps) == 1 and 0 < caps[0] <= len(text) // 50


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
    quoted = obj._replace(
        a_labels=tuple(f'A"{x}\\' for x in obj.a_labels),
        b_labels=tuple(f"B\x01{x}\t\u00e9" for x in obj.b_labels),
        color_labels=tuple(f"\u2603{x}\U0001f600\x7f" for x in obj.color_labels))
    # labels built in code need not be strings
    typed = obj._replace(
        a_labels=(("u", 1), 2, 2.5, None, "v", ("w", (3, "x"))),
        color_labels=(1, "2", ("t", 3), -4))
    for objects in (quoted, typed):
        inst = build_instance(objects)
        assert instance_to_json(inst) == _oracle(inst)
        assert instance_to_json(inst).isascii()
    no_edges = build_instance(quoted)._replace(tails=(), heads=(),
                                               classes=(), colors=())
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
    assert label_set(set_label({3, 1, 2})) == frozenset({1, 2, 3})
    assert set_label(label_set("{1,2,5}")) == "{1,2,5}"
    with pytest.raises(ValueError):
        label_set("1,2")


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
        obj = subset_objects(m, 2, 0)
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
