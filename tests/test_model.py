import ast
import hashlib
import json
import operator
import os
import random
import subprocess
import sys
import textwrap
import time
from array import array
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
    instance_from_dict,
    instance_from_json,
    instance_sha256,
    instance_to_dict,
    instance_to_dot,
    instance_to_json,
    DstInstance,
    label_masks,
    validate_objects,
)
from dstgap.rationals import parse_rational, render_rational

from _util import (FAMILY_OBJECTS, e3_edge_left_out, kv_sets, label_set,
                   mask_set, permuted_subset_objects, set_label,
                   toy_instance, toy_objects, two_copies)


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
    kv = kv_sets(zk4_objects)
    c2 = next(x for x in sorted(kv[b]) if x != c)
    edges[0] = (a, b, c2)
    with pytest.raises(ValueError) as info:
        validate_objects(zk4_objects._replace(edges=tuple(edges)))
    # the failing check names its witness colors
    colors = sorted({zk4_objects.color_labels[x] for x in (c, c2)})
    assert (f"color-classes-are-matchings-of-size-s (colors failing: "
            f"{colors})") in str(info.value)


def test_validate_color_twice_at_a_b_vertex(zk4_objects):
    # two edges at different B-vertices swap colors: every degree and class
    # size stays, but each color is then twice at one B-vertex, and only
    # the matchings check fails
    obj = zk4_objects
    at_a = [{c for a, _, c in obj.edges if a == u} for u in range(obj.num_a)]
    kv = kv_sets(obj)
    i, j = next((i, j) for i, (a1, b1, c1) in enumerate(obj.edges)
                for j, (a2, b2, c2) in enumerate(obj.edges)
                if b1 != b2 and c2 in kv[b1] and c1 in kv[b2]
                and c2 not in at_a[a1] and c1 not in at_a[a2])
    edges = list(obj.edges)
    (a1, b1, c1), (a2, b2, c2) = edges[i], edges[j]
    edges[i], edges[j] = (a1, b1, c2), (a2, b2, c1)
    with pytest.raises(ValueError) as info:
        validate_objects(obj._replace(edges=tuple(edges)))
    colors = sorted(obj.color_labels[c] for c in (c1, c2))
    assert str(info.value) == ("objects fail validation: color-classes-are-"
                               f"matchings-of-size-s (colors failing: "
                               f"{colors})")


def test_validate_reports_all_failures(zk4_objects):
    # drop an edge: breaks regularity on both sides and the edge's color
    # class, all named in one line with their witnesses; d, d' and s are
    # the most common degrees and class size, so each names only the one
    # vertex or color that differs
    a, b, c = zk4_objects.edges[0]
    fewer = zk4_objects._replace(edges=zk4_objects.edges[1:])
    with pytest.raises(ValueError) as info:
        validate_objects(fewer)
    message = str(info.value)
    assert "\n" not in message
    assert (f"a-regular (A-vertices with degree != d=2: "
            f"{[zk4_objects.a_labels[a]]})") in message
    assert (f"b-regular (B-vertices with degree != d'=3: "
            f"{[zk4_objects.b_labels[b]]})") in message
    assert (f"color-classes-are-matchings-of-size-s (colors failing: "
            f"{[zk4_objects.color_labels[c]]})") in message
    assert (fewer.d, fewer.d_prime, fewer.s, fewer.k) == (2, 3, 3, 4)


def test_objects_are_their_edges(zk4_objects):
    # d, d', s and k are read from the edges, not stored beside them
    assert GapObjects._fields == ("a_labels", "b_labels", "color_labels",
                                  "edges", "family", "family_params")
    # invalid objects: the A-degrees, the B-degrees and the class sizes
    # are each one 1 and one 2, and each tie goes to the smaller
    uneven = GapObjects(a_labels=("u", "w"), b_labels=("v", "x"),
                        color_labels=("t", "z"),
                        edges=((0, 0, 0), (1, 0, 1), (1, 1, 0)))
    assert (uneven.d, uneven.d_prime, uneven.s, uneven.k) == (1, 1, 1, 2)


def test_objects_with_no_color_fail_s_positive():
    # s, the size of every color class, is 0 when there is no color, and
    # no terminal means no instance to solve
    for b_labels in ((), ("v",)):
        objects = GapObjects(a_labels=("u",), b_labels=b_labels,
                             color_labels=(), edges=())
        with pytest.raises(ValueError) as info:
            validate_objects(objects)
        assert str(info.value) == ("objects fail validation: s-positive "
                                   "(s=0: a terminal needs an in-edge)")


def test_validate_rejects_bad_indices(zk4_objects):
    bad = zk4_objects._replace(edges=zk4_objects.edges + ((99, 0, 0),))
    with pytest.raises(ValueError):
        validate_objects(bad)


def test_validate_huge_claimed_family_is_quick():
    # the toy's file claiming subset m = 16000, a = 4000 in its meta, with
    # d, d' and k = C(16000, 4000), 3,906 digits, to match: every count is
    # computed no further than the objects' largest, and neither J-set sum
    # is made
    data = instance_to_dict(toy_instance())
    huge = {"d": comb(12000, 4000), "d_prime": comb(8000, 4000),
            "k": comb(16000, 4000)}
    data["meta"].update(huge, family="subset",
                        params={"m": 16000, "a": 4000, "thresh": 0})
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        instance_from_dict(data)
    assert time.perf_counter() - start < 1.0
    assert str(info.value).startswith("objects fail validation: "
                                      "family-params (subset params ")
    # valid objects: the first claim is checked against them, and the
    # claimed int is cut to its ends and its length in the one line
    data["meta"].update(family="generic", params={})
    with pytest.raises(ValueError) as info:
        instance_from_dict(data)
    d = str(huge["d"])
    assert str(info.value) == (f"meta.d is {d[:5]}...{d[-5:]} ({len(d)} "
                               "digits), but the edges give d=1")


# ---------------------------------------------------------------------------
# build_instance

def test_build_zk4_counts(zk4_instance):
    inst = zk4_instance
    assert inst.n == 1 + 6 + 8 + 4 == 19
    counts = {c: inst.classes.count(c) for c in (E1, E2, E3, E4)}
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
        kv = kv_sets(obj)
        t_off, nb = inst.level_offset(4), inst.level_sizes[2]
        for i, v in enumerate(inst.level_ids(2)):  # pi(v) = v + |B|
            nbrs = {w - t_off for u, w in zip(inst.tails, inst.heads)
                    if u == v + nb}
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
        # one A-set fewer leaves its B-sets short of d' edges
        families.colex_subsets = lambda m, size: (
            real(m, size)[1:] if size == 2 else real(m, size))
        try:
            model.build_instance(families.zk_objects(4))
        except ValueError as exc:
            print(exc)
        else:
            sys.exit("build_instance: no error raised")
        families.colex_subsets = real
        # a _columns bug: the last E4 edge, into terminal '4', is dropped
        columns = model.GapObjects._columns.func
        model.GapObjects._columns = property(
            lambda objects: tuple(col[:-1] for col in columns(objects)))
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
    assert first.startswith("objects fail validation: b-regular (")
    assert second == ("built (vertex, in-degree) pairs off the (root, A, B, "
                      "B', terminal) in-degrees (0, 1, 3, 1, 3): [('4', 2)]")


def test_build_checks_every_in_degree(zk4_objects, monkeypatch):
    # a _columns bug that moves the first E2 head to the next B-vertex keeps
    # every class size and every terminal's in-degree, but leaves one
    # B-vertex short of d' in-edges and gives the next one more
    columns = GapObjects._columns.func

    def moved(objects):
        tails, heads, *rest = columns(objects)
        heads = list(heads)
        heads[objects.num_a] += 1
        return (tails, tuple(heads), *rest)

    monkeypatch.setattr(GapObjects, "_columns", property(moved))
    first, second = zk4_objects.b_labels[:2]
    with pytest.raises(RuntimeError) as info:
        build_instance(zk4_objects)
    assert str(info.value) == (
        "built (vertex, in-degree) pairs off the (root, A, B, B', terminal) "
        f"in-degrees (0, 1, 3, 1, 3): [({first!r}, 2), ({second!r}, 4)]")


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


def test_only_bit_indices_walks_a_mask():
    # one bit reader: a loop that peels a mask's lowest bit, mask & -mask,
    # while the mask is not 0 is model.bit_indices, and nowhere else
    nodes = list(_package_nodes())
    inside = {id(sub) for name, node in nodes
              if (name, getattr(node, "name", None))
              == ("model.py", "bit_indices")
              for sub in ast.walk(node)}

    def lowest_bit_of(node):
        """The name x of an expression x & -x, else None."""
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                and isinstance(node.left, ast.Name)
                and isinstance(node.right, ast.UnaryOp)
                and isinstance(node.right.op, ast.USub)
                and isinstance(node.right.operand, ast.Name)
                and node.left.id == node.right.operand.id):
            return node.left.id
        return None

    found = [
        f"{name}:{sub.lineno}" for name, node in nodes
        if isinstance(node, ast.While) and id(node) not in inside
        for sub in ast.walk(node)
        if lowest_bit_of(sub) in {n.id for n in ast.walk(node.test)
                                  if isinstance(n, ast.Name)}
    ]
    assert not found


def test_no_module_calls_the_indent_encoder():
    # one encoder: model.json_nested writes json.dumps(indent=1)'s text for
    # the instance file and every report, so no module, model included,
    # calls json.dumps with an indent
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "dumps"
             and any(k.arg == "indent" for k in node.keywords)]
    assert not found


def test_only_the_console_entry_calls_os_exit():
    # main returns its code to an in-process caller; only cli's console
    # entry ends the process, and it names os._exit once
    nodes = list(_package_nodes())
    inside = {id(sub) for name, node in nodes
              if (name, getattr(node, "name", None))
              == ("cli.py", "console_entry")
              for sub in ast.walk(node)}
    named = [(name, id(node) in inside) for name, node in nodes
             if "_exit" in (getattr(node, "id", None),
                            getattr(node, "attr", None),
                            getattr(node, "name", None))]  # an import
    assert named == [("cli.py", True)]


def test_build_deterministic(zk4_objects):
    a = build_instance(zk4_objects)
    b = build_instance(zk4_objects)
    assert instance_to_json(a) == instance_to_json(b)
    assert instance_sha256(a) == instance_sha256(b)


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
                         color_labels=("v",), edges=((0, 0, 0),))
    data = json.loads(instance_to_json(build_instance(objects)))
    with pytest.raises(ValueError, match="same \\(tail, head\\) labels"):
        instance_from_dict(data)


def test_loader_builds_no_edge_codes(zk4_instance, subset_m6_instance,
                                     monkeypatch):
    # nor a class column: a family file is rendered and a listed edge's cost
    # checked by the level of its head
    texts = [instance_to_json(inst) for inst in (zk4_instance,
                                                 subset_m6_instance)]
    monkeypatch.setattr(DstInstance, "classes", property(
        lambda inst: pytest.fail("the loader read the classes")))
    for text in texts:
        data = json.loads(text)
        data["edges"].pop()
        for loaded in (instance_from_json(text.encode()),
                       instance_from_dict(data)):
            assert "edge_codes" not in loaded.__dict__


def test_replace_recomputes_cached_values(zk4_objects, zk4_instance,
                                          subset_m6_instance):
    # _replace makes a new object whose cache is empty: each derived value,
    # read first on the original, is computed again from the new fields
    kv, inst = zk4_objects.color_masks_by_b, zk4_instance
    codes, costs = inst.edge_codes, inst.class_costs
    assert inst.edge_positions(inst.tails, inst.heads) \
        == list(range(len(codes)))
    a, b, c = zk4_objects.edges[0]
    assert (zk4_objects.d, zk4_objects.d_prime, zk4_objects.s) == (2, 3, 3)
    assert validate_objects(zk4_objects) is None
    fewer = zk4_objects._replace(edges=zk4_objects.edges[1:])
    sets = tuple(map(mask_set, kv))
    assert (tuple(map(mask_set, fewer.color_masks_by_b))
            == sets[:b] + (sets[b] - {c},) + sets[b + 1:])
    with pytest.raises(ValueError) as info:
        validate_objects(fewer)
    assert (f"b-regular (B-vertices with degree != d'=3: "
            f"{[zk4_objects.b_labels[b]]})") in str(info.value)
    # two copies sharing the colors: the classes double, and so does s
    twice = two_copies(zk4_objects, 4)
    assert (twice.d, twice.d_prime, twice.s, twice.k) == (2, 3, 6, 4)
    assert validate_objects(twice) is None

    dropped = inst._replace(**{col: getattr(inst, col)[1:] for col in
                               ("tails", "heads", "colors")})
    assert dropped.edge_codes == codes[1:]
    assert dropped.edge_positions(inst.tails[1:], inst.heads[1:]) \
        == list(range(len(codes) - 1))
    with pytest.raises(KeyError):
        dropped.edge_positions(inst.tails[:1], inst.heads[:1])
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
    assert again == inst and "edge_codes" not in again.__dict__


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


def _head_levels(inst) -> list:
    """The level of each edge's head, found in the level_offset ranges."""
    ranges = list(map(inst.level_ids, range(5)))
    return [next(level for level, ids in enumerate(ranges) if head in ids)
            for head in inst.heads]


def _reversed(inst):
    return inst._replace(**{col: getattr(inst, col)[::-1]
                            for col in ("tails", "heads", "colors")})


HEAD_LEVEL_CASES = {
    "m6-loaded": lambda: instance_from_json(instance_to_json(
        build_instance(FAMILY_OBJECTS["m6"]())).encode()),
    "zk9-less-e3": lambda: e3_edge_left_out(build_instance(zk_objects(9)),
                                            True),
    "zk9-reversed": lambda: _reversed(build_instance(zk_objects(9))),
}


@pytest.mark.parametrize("name", [*FAMILY_OBJECTS, *HEAD_LEVEL_CASES])
def test_classes_are_head_levels(name):
    if name in FAMILY_OBJECTS:
        obj = FAMILY_OBJECTS[name]()
        inst = build_instance(obj)
        # the built order: E1 in A order, E2, E3 once per B-vertex, then E4
        assert list(inst.classes) == (
            [E1] * obj.num_a + [E2] * len(obj.edges) + [E3] * obj.num_b
            + [E4] * (obj.num_b * obj.d_prime))
    else:
        inst = HEAD_LEVEL_CASES[name]()
    assert list(inst.classes) == _head_levels(inst)


def _terminal_cut_off():
    """zk4's file less every in-edge of its first terminal, loaded."""
    data = instance_to_dict(build_instance(zk_objects(4)))
    t = data["levels"][4][0]
    data["edges"] = [e for e in data["edges"] if e["head"] != t]
    return instance_from_dict(data)


CODE_ORDER_CASES = {
    **{name: lambda make=make: build_instance(make())
       for name, make in FAMILY_OBJECTS.items()},
    "m6-loaded": HEAD_LEVEL_CASES["m6-loaded"],
    "zk9-less-e3": HEAD_LEVEL_CASES["zk9-less-e3"],
    "zk4-less-a-terminal": _terminal_cut_off,
}


@pytest.mark.parametrize("name", list(CODE_ORDER_CASES))
def test_edge_codes_ascend_in_built_order(name):
    # built and loaded columns are in code order, so the edge codes are
    # the one edge index, bisected as they stand
    inst = CODE_ORDER_CASES[name]()
    codes, m = inst.edge_codes, len(inst.tails)
    assert type(codes) is array and codes.typecode == "q" and len(codes) == m
    assert all(map(operator.lt, codes, codes[1:]))
    assert codes.tolist() == [u * inst.n + v
                              for u, v in zip(inst.tails, inst.heads)]
    assert inst.edge_positions(inst.tails, inst.heads) == list(range(m))
    # before the first code, past the last, and between two codes
    t, r = inst.terminals[-1], inst.root
    for pair in ((r, r), (t, r), (inst.heads[0], inst.tails[0])):
        with pytest.raises(KeyError):
            inst.edge_positions(*zip(pair))
        with pytest.raises(KeyError):
            inst.edge_positions(inst.tails[:1] + pair[:1],
                                inst.heads[:1] + pair[1:])


@pytest.mark.parametrize("make", [
    *FAMILY_OBJECTS.values(), toy_objects,
    lambda: two_copies(zk_objects(4), 4),
], ids=[*FAMILY_OBJECTS, "toy", "zk4x2"])
def test_color_masks_are_the_color_sets(make):
    # K_v as a mask, bit c for color c, holds the colors of v's edges
    obj = make()
    assert tuple(map(mask_set, obj.color_masks_by_b)) == kv_sets(obj)


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
                          colors=inst.colors + (None,))
    order = list(range(len(inst.tails)))[::-1][1:]
    shuffled = inst._replace(**{col: tuple(getattr(inst, col)[i]
                                           for i in order)
                                for col in ("tails", "heads", "colors")})
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
    assert DstInstance._fields == ("tails", "heads", "colors", "provenance")
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
    with pytest.raises(ValueError, match="family-params"):
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


@pytest.mark.parametrize("chunk", [1, 5, 33, 34, 4096])
def test_writer_chunks_match_oracle(zk4_instance, monkeypatch, chunk):
    # the edge entries are rendered and joined a chunk at a time; zk4 has
    # 34 edges, and 33 once its first is left out
    monkeypatch.setattr(model, "_EDGE_CHUNK", chunk)
    data = instance_to_dict(zk4_instance)
    del data["edges"][0]
    loaded = instance_from_dict(data)
    for inst in (zk4_instance, loaded):
        pieces = list(model._json_pieces(inst))
        assert len(pieces) == 2 + -(-len(inst.tails) // chunk)
        assert "".join(pieces) == instance_to_json(inst) == _oracle(inst)
    assert len(zk4_instance.tails) == 34


def test_same_text_compares_every_byte(zk4_instance, monkeypatch):
    monkeypatch.setattr(model, "_EDGE_CHUNK", 5)
    data = instance_to_json(zk4_instance).encode()
    assert model._same_text(model._json_pieces(zk4_instance), data)
    for other in (data[:-1] + b"\0", data + b"\n", data[:-1], b""):
        assert not model._same_text(model._json_pieces(zk4_instance), other)


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
    no_edges = build_instance(quoted)._replace(tails=(), heads=(), colors=())
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


def test_label_masks_read_sets_and_bare_integers():
    # one sorted ground set over every level; bit i stands for ground[i].
    # A file's labels need not be str: 3 names {3}, as "3" and "{3}" do
    ground, masks = label_masks(("{1,2}", "3", 3, "{}"),
                                ("{3}", " { 5 , 1 } "))
    assert ground == (1, 2, 3, 5)
    assert masks == [[0b11, 0b100, 0b100, 0], [0b100, 0b1001]]
    # an element named twice is one bit, however it is written
    assert label_masks(("{2,1,1}", "{1, 1}")) == ((1, 2), [[0b11, 0b1]])
    # a ground set far from 1..m is ranked, not used as bit positions
    assert label_masks(("{-7,0}", f"{{5,{10**30}}}")) \
        == ((-7, 0, 5, 10**30), [[0b11, 0b1100]])
    for label in ("x", "{1,x}", 1.5, True, None, ("u", 1)):
        with pytest.raises(ValueError) as info:
            label_masks(("{1}",), ("{2}", label, "y"))
        assert str(info.value) == f"label {label!r} names no set"


@pytest.mark.parametrize("name", sorted(FAMILY_OBJECTS))
def test_family_label_sets_are_the_labels_sets(name):
    # the generator records the masks it writes the labels from: they are
    # what label_masks reads from the labels, and each names the label's
    # set; _replace with new labels reads the new labels
    obj = FAMILY_OBJECTS[name]()
    levels = (obj.a_labels, obj.b_labels, obj.color_labels)
    assert obj.label_sets == label_masks(*levels)
    assert obj.color_and_a_masks \
        == label_masks(obj.color_labels, obj.a_labels)[1]
    ground, masks = obj.label_sets
    for labels, level in zip(levels, masks):
        assert [frozenset(map(ground.__getitem__, mask_set(mask)))
                for mask in level] == list(map(label_set, labels))

    reversed_colors = obj._replace(color_labels=obj.color_labels[::-1])
    assert reversed_colors.label_sets == (ground, masks[:2] + [masks[2][::-1]])
    assert reversed_colors.color_and_a_masks == [masks[2][::-1], masks[0]]


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
        assert inst.classes.count(E4) == obj.s * obj.k
        assert inst.classes.count(E2) == len(obj.edges)
