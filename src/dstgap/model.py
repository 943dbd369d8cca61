"""Core gap-instance objects.

`GapObjects` is the abstract structure: a bipartite graph H on A and B with
every A-vertex of degree d, every B-vertex of degree d', and the edge set
partitioned into k color classes that are matchings of size s each (one
color per terminal).  `DstInstance` is the concrete 5-level layered DST
graph built from it:

    level 0: root r
    level 1: A                    (edges r->u, cost |B|/|A|)
    level 2: B                    (directed copy of H, cost 0)
    level 3: B' (copy of B)       (matching v->pi(v), cost 1)
    level 4: terminals K          (pi(v)->t for each color t at v, cost 0)

Costs are fixed by the edge class (the level of the head), as above: an
instance keeps int edge columns and one cost per class.

Vertex ids are dense integers assigned level by level in the canonical
label order of the objects; edges are sorted by (level, tail, head), so a
given GapObjects value always builds the identical instance.  build_instance
is the only builder: a file loads as the instance of its objects less the
edges it leaves out, and a file edge that is not a built edge, or that
costs other than its class cost, is rejected.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .rationals import parse_rational, render_rational

ROOT_LABEL = "r"

# edge classes, by level of the head vertex
E1, E2, E3, E4 = 1, 2, 3, 4


class SizeCapError(Exception):
    """A configured resource cap would be exceeded."""


class InfeasibleError(Exception):
    """The instance has no Steiner tree: some terminal cannot be reached
    from the root, as when a file leaves out every edge into it."""


@dataclass(frozen=True)
class GapObjects:
    """The abstract objects behind a gap instance.

    edges are (a_index, b_index, color_index) triples; labels are canonical
    strings (subset labels rendered as sorted element lists).  family /
    family_params record provenance so that the per-vertex J-sets of the
    known families can be rebuilt later.
    """

    a_labels: tuple
    b_labels: tuple
    color_labels: tuple
    edges: tuple
    d: int
    d_prime: int
    s: int
    k: int
    family: str = "generic"
    family_params: tuple = ()

    @property
    def params(self) -> dict:
        return dict(self.family_params)

    @property
    def num_a(self) -> int:
        return len(self.a_labels)

    @property
    def num_b(self) -> int:
        return len(self.b_labels)

    @functools.cached_property
    def color_sets_by_b(self) -> tuple:
        """K_v for every B-vertex: the set of color indices incident to v.
        Computed once per objects value: validate_objects, build_instance
        and certify_gap all read it."""
        kv = [set() for _ in self.b_labels]
        for _, b, c in self.edges:
            kv[b].add(c)
        return tuple(map(frozenset, kv))


def parse_set_label(label: str):
    """Inverse of set_label: "{1,2,5}" -> frozenset({1, 2, 5})."""
    body = label.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a set label: {label!r}")
    body = body[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(int(x) for x in body.split(","))


def set_label(elements) -> str:
    return "{" + ",".join(str(x) for x in sorted(elements)) + "}"


def label_set(label) -> frozenset:
    """The set a label names: a set label "{1,2}" is read as its set, and a
    bare integer, "3" or 3 (an element-colored family's color), as {3}.
    Any other label is a ValueError that quotes it."""
    if type(label) is int:
        return frozenset((label,))
    if type(label) is str:
        with contextlib.suppress(ValueError):
            return parse_set_label(label)
        with contextlib.suppress(ValueError):
            return frozenset((int(label),))
    raise ValueError(f"label {label!r} names no set")


def validate_objects(objects: GapObjects) -> None:
    """None if every GapObjects invariant holds; else one ValueError whose
    one-line message names each failing invariant with its witness.

    Int d, d', s and k, in-range edge indices and distinct labels are
    checked first, and raise at once.  Then regularity, the matching
    partition, the counting identity, |K_v| = d', and the parameters of a
    known family: zk params are {"k": k}; subset params are ints a, m,
    thresh with 0 <= thresh < a <= m, C(m, a) = k and C(m-a, a) = d.
    """
    na, nb, nc = objects.num_a, objects.num_b, len(objects.color_labels)
    d, dp, s, k = objects.d, objects.d_prime, objects.s, objects.k
    if not all(type(x) is int for x in (d, dp, s, k)):
        raise ValueError("d, d_prime, s and k must be integers")
    for a, b, c in objects.edges:
        if not (0 <= a < na and 0 <= b < nb and 0 <= c < nc):
            raise ValueError(f"edge ({a},{b},{c}) has an out-of-range index")
    for name, labels in (
        ("A", objects.a_labels),
        ("B", objects.b_labels),
        ("color", objects.color_labels),
    ):
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate {name} labels")
    failures = []

    def check(name, passed, detail):
        if not passed:
            failures.append(f"{name} ({detail})")

    check("color-count", k == nc, f"k={k} but {nc} color labels")

    seen = set()
    dupes = [(a, b) for a, b, _ in objects.edges
             if (a, b) in seen or seen.add((a, b))]
    check("no-parallel-edges", not dupes,
          f"duplicate (A,B) pairs: {sorted(set(dupes))[:5]}")

    deg_a, deg_b = [0] * na, [0] * nb
    by_color = [[] for _ in objects.color_labels]
    for a, b, c in objects.edges:
        deg_a[a] += 1
        deg_b[b] += 1
        by_color[c].append((a, b))
    bad_a = [objects.a_labels[i] for i, x in enumerate(deg_a) if x != d]
    check("a-regular", not bad_a,
          f"A-vertices with degree != d={d}: {bad_a[:5]}")
    bad_b = [objects.b_labels[i] for i, x in enumerate(deg_b) if x != dp]
    check("b-regular", not bad_b,
          f"B-vertices with degree != d'={dp}: {bad_b[:5]}")

    bad_matchings = [objects.color_labels[c] for c, es in enumerate(by_color)
                     if len(es) != s or len({a for a, _ in es}) != s
                     or len({b for _, b in es}) != s]
    check("color-classes-are-matchings-of-size-s", not bad_matchings,
          f"colors failing: {bad_matchings[:5]}")

    check("counting-identity",
          s * k == d * na == dp * nb == len(objects.edges),
          f"sk={s * k}, d|A|={d * na}, d'|B|={dp * nb}, "
          f"|E|={len(objects.edges)}")

    bad_kv = [objects.b_labels[i]
              for i, kv in enumerate(objects.color_sets_by_b) if len(kv) != dp]
    check("kv-size", not bad_kv,
          f"B-vertices with |K_v| != d'={dp}: {bad_kv[:5]}")

    check("s-positive", s >= 1, f"s={s}: a terminal needs an in-edge")
    check("s-at-most-A", s <= na, f"s={s} > |A|={na}")
    check("k-at-least-d", k >= d, f"k={k} < d={d}")

    params = objects.params
    if objects.family == "zk":
        check("zk-params", params == {"k": k} and type(params["k"]) is int,
              f"params {params} do not match k={k}")
    elif objects.family == "subset":
        a, m, thresh = (params.get(key) for key in ("a", "m", "thresh"))
        check("subset-params",
              all(type(x) is int for x in (a, m, thresh))
              and 0 <= thresh < a <= m
              and math.comb(m, a) == k and math.comb(m - a, a) == d,
              f"params {params} do not match k={k}, d={d}")

    if failures:
        raise ValueError("objects fail validation: " + "; ".join(failures))


@dataclass(frozen=True)
class DstInstance:
    """The built 5-level DST graph.  Vertex ids index into `labels`; edge i
    runs tails[i] -> heads[i] and costs class_costs[classes[i]]."""

    labels: tuple          # all vertex labels, id order
    level_sizes: tuple     # (1, |A|, |B|, |B|, k)
    tails: tuple           # int vertex ids
    heads: tuple           # int vertex ids
    classes: tuple         # E1..E4: the level of the head
    colors: tuple          # color index on E2 edges, None elsewhere
    provenance: GapObjects

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def root(self) -> int:
        return 0

    def level_offset(self, level: int) -> int:
        return sum(self.level_sizes[:level])

    def level_ids(self, level: int):
        off = self.level_offset(level)
        return range(off, off + self.level_sizes[level])

    @property
    def terminals(self):
        return self.level_ids(4)

    def pi(self, b_id: int) -> int:
        """The copy in level 3 of a level-2 vertex."""
        off2 = self.level_offset(2)
        if not off2 <= b_id < self.level_offset(3):
            raise ValueError(f"vertex {b_id} is not in level 2")
        return b_id + self.level_sizes[2]

    @functools.cached_property
    def class_costs(self) -> dict:
        """Edge cost by class, the only place edge costs are set: root
        edges |B|/|A|, copy edges v -> pi(v) 1, all other edges 0."""
        na, nb = self.level_sizes[1], self.level_sizes[2]
        return {E1: Fraction(nb, na), E2: Fraction(0), E3: Fraction(1),
                E4: Fraction(0)}

    @functools.cached_property
    def edge_index(self) -> dict:
        """Edge code tail * n + head -> edge position; built once per
        instance.  An int code costs no tuple per edge."""
        n = self.n
        return {t * n + h: i
                for i, (t, h) in enumerate(zip(self.tails, self.heads))}


def build_instance(objects: GapObjects) -> DstInstance:
    """Build the 5-level instance; deterministic for a given GapObjects.
    Raises ValueError if the objects fail validate_objects."""
    validate_objects(objects)

    na, nb, k = objects.num_a, objects.num_b, objects.k
    labels = (
        (ROOT_LABEL,)
        + tuple(objects.a_labels)
        + tuple(objects.b_labels)
        + tuple(lbl + "'" for lbl in objects.b_labels)
        + tuple(objects.color_labels)
    )
    a_off, b_off = 1, 1 + na
    bp_off, t_off = 1 + na + nb, 1 + na + 2 * nb

    kv = objects.color_sets_by_b
    rows = [(0, a_off + i, E1, None) for i in range(na)]
    rows += [(a_off + a, b_off + b, E2, c) for a, b, c in sorted(objects.edges)]
    rows += [(b_off + i, bp_off + i, E3, None) for i in range(nb)]
    rows += [(bp_off + i, t_off + c, E4, None)
             for i in range(nb) for c in sorted(kv[i])]
    tails, heads, classes, colors = zip(*rows)  # there is an E1 edge: s >= 1
    inst = DstInstance(labels, (1, na, nb, nb, k), tails, heads, classes,
                       colors, provenance=objects)

    # DstInstance invariants; cheap, and they guard generator bugs
    if inst.n != 1 + na + 2 * nb + k:
        raise RuntimeError(f"built instance has {inst.n} vertices, "
                           f"expected {1 + na + 2 * nb + k}")
    counts = edge_class_counts(inst)
    expected = {E1: na, E2: len(objects.edges), E3: nb,
                E4: nb * objects.d_prime}
    if counts != expected:
        raise RuntimeError(f"built instance has edge classes {counts}, "
                           f"expected {expected}")
    indeg = Counter(inst.heads)
    bad = [inst.labels[t] for t in inst.terminals if indeg[t] != objects.s]
    if bad:
        raise RuntimeError(
            f"terminals with in-degree != s={objects.s}: {bad[:5]}")
    return inst


def edge_class_counts(inst: DstInstance) -> dict:
    return {c: inst.classes.count(c) for c in (E1, E2, E3, E4)}


@dataclass(frozen=True)
class Stats:
    n: int
    level_sizes: tuple
    edge_class_counts: dict
    d: int
    d_prime: int
    s: int
    k: int
    total_cost: Fraction
    canonical_cost: Fraction  # 2|B|/s, the cost of x = 1/s


def instance_stats(inst: DstInstance) -> Stats:
    obj = inst.provenance
    counts = edge_class_counts(inst)
    total = sum((inst.class_costs[c] * n for c, n in counts.items()),
                Fraction(0))
    return Stats(
        n=inst.n,
        level_sizes=inst.level_sizes,
        edge_class_counts=counts,
        d=obj.d,
        d_prime=obj.d_prime,
        s=obj.s,
        k=obj.k,
        total_cost=total,
        canonical_cost=Fraction(2 * obj.num_b, obj.s),
    )


# ---------------------------------------------------------------------------
# serialization

def _document(inst: DstInstance, edges: list) -> dict:
    """The file's top-level object around the given edge entries."""
    obj = inst.provenance
    labels = inst.labels
    return {
        "meta": {
            "family": obj.family,
            "params": obj.params,
            "d": obj.d,
            "d_prime": obj.d_prime,
            "s": obj.s,
            "k": obj.k,
        },
        "levels": [[labels[i] for i in inst.level_ids(lvl)]
                   for lvl in range(5)],
        "edges": edges,
        "pi": {labels[i]: labels[inst.pi(i)] for i in inst.level_ids(2)},
    }


def instance_to_dict(inst: DstInstance) -> dict:
    """The file as a dict tree, one dict per edge: the reference encoding,
    whose json.dumps(indent=1) instance_to_json writes."""
    labels = inst.labels
    color_labels = inst.provenance.color_labels
    cost_text = {c: render_rational(q) for c, q in inst.class_costs.items()}
    edges = []
    for tail, head, klass, color in zip(inst.tails, inst.heads, inst.classes,
                                        inst.colors):
        entry = {
            "tail": labels[tail],
            "head": labels[head],
            "cost": cost_text[klass],
        }
        if color is not None:
            entry["color"] = color_labels[color]
        edges.append(entry)
    return _document(inst, edges)


def _nested(value, depth: int) -> str:
    """value as json.dumps(indent=1) writes it `depth` levels deep: a
    newline in that text is always layout (strings escape theirs), so
    `depth` more spaces after each nest it."""
    return json.dumps(value, indent=1).replace("\n", "\n" + " " * depth)


def _quote(label) -> str:
    """A label as an edge entry's value in the file; the labels of a loaded
    file need not be strings."""
    if type(label) is str:
        return encode_basestring_ascii(label)
    return _nested(label, 3)


def instance_to_json(inst: DstInstance) -> str:
    """The file text: json.dumps(instance_to_dict(inst), indent=1) + "\\n",
    byte for byte.  The edges, the bulk of it, are written from one
    template per shape with each label and cost quoted once, in place of
    the per-edge dicts and the pure-Python indent encoder."""
    d = _document(inst, [])
    label = list(map(_quote, inst.labels))
    color = list(map(_quote, inst.provenance.color_labels))
    cost = {c: encode_basestring_ascii(render_rational(q))
            for c, q in inst.class_costs.items()}
    edges = [
        f',\n  {{\n   "tail": {label[t]},\n   "head": {label[h]},'
        f'\n   "cost": {cost[k]}\n  }}' if c is None else
        f',\n  {{\n   "tail": {label[t]},\n   "head": {label[h]},'
        f'\n   "cost": {cost[k]},\n   "color": {color[c]}\n  }}'
        for t, h, k, c in zip(inst.tails, inst.heads, inst.classes,
                              inst.colors)]
    if edges:
        edges[0] = edges[0][1:]  # no comma before the first edge
        edges.append("\n ")
    # one join, so the text is copied once
    return "".join([
        '{\n "meta": ', _nested(d["meta"], 1),
        ',\n "levels": ', _nested(d["levels"], 1),
        ',\n "edges": [', *edges,
        '],\n "pi": ', _nested(d["pi"], 1), "\n}\n"])


def instance_sha256(inst: DstInstance) -> str:
    return hashlib.sha256(instance_to_json(inst).encode()).hexdigest()


def instance_from_dict(data: dict) -> DstInstance:
    """Load an instance file: the instance that build_instance makes from
    the file's objects (its levels, meta and level-2 edges, the entries
    with a color), less the built edges that the file leaves out.

    So a corrupted file, e.g. with a level-3 edge deleted, loads into an
    instance whose feasibility check then fails with a named terminal.  A
    file that contradicts itself raises ValueError: its objects must pass
    validate_objects, and every edge must be a built edge, listed once,
    costing its class cost.
    """
    meta = data["meta"]
    levels = data["levels"]
    if len(levels) != 5 or levels[0] != [ROOT_LABEL]:
        raise ValueError("instance must have 5 levels with root 'r'")
    if levels[3] != [lbl + "'" for lbl in levels[2]]:
        raise ValueError("level 3 is not the primed copy of level 2")
    for v, vp in data.get("pi", {}).items():
        if vp != v + "'":
            raise ValueError(f"pi maps {v!r} to {vp!r}, expected {v + chr(39)!r}")

    a_idx, b_idx, color_idx = (
        {lbl: i for i, lbl in enumerate(levels[lvl])} for lvl in (1, 2, 4))
    objects = GapObjects(
        a_labels=tuple(levels[1]),
        b_labels=tuple(levels[2]),
        color_labels=tuple(levels[4]),
        edges=tuple(sorted((a_idx[e["tail"]], b_idx[e["head"]],
                            color_idx[e["color"]])
                           for e in data["edges"] if "color" in e)),
        d=meta["d"],
        d_prime=meta["d_prime"],
        s=meta["s"],
        k=meta["k"],
        family=meta.get("family", "generic"),
        family_params=tuple(sorted(meta.get("params", {}).items())),
    )
    inst = build_instance(objects)

    label = inst.labels.__getitem__
    built = dict(zip(zip(map(label, inst.tails), map(label, inst.heads)),
                     range(len(inst.tails))))
    if len(built) != len(inst.tails):
        raise ValueError("two edges of the instance have the same "
                         "(tail, head) labels")
    listed = {}  # built edge position -> the file's cost text
    for entry in data["edges"]:
        i = built.get((entry["tail"], entry["head"]))
        if i is None:
            raise ValueError(f"edge {entry['tail']!r} -> {entry['head']!r} is not "
                             "an edge of the objects' instance")
        if i in listed:
            raise ValueError(f"edge {entry['tail']!r} -> {entry['head']!r} appears "
                             "more than once")
        listed[i] = entry["cost"]
    costs = inst.class_costs
    for klass, text in dict.fromkeys(zip(map(inst.classes.__getitem__, listed),
                                         listed.values())):
        if parse_rational(text) != costs[klass]:
            raise ValueError(f"an E{klass} edge costs {text!r}, but every E{klass} "
                             f"edge costs {render_rational(costs[klass])}")
    keep = sorted(listed)
    tails, heads, classes, colors = (
        tuple(map(column.__getitem__, keep))
        for column in (inst.tails, inst.heads, inst.classes, inst.colors))
    return replace(inst, tails=tails, heads=heads, classes=classes,
                   colors=colors)


def instance_from_json(text: str | bytes) -> DstInstance:
    return instance_from_dict(json.loads(text))


def instance_to_dot(inst: DstInstance, max_vertices: int = 500) -> str:
    """DOT export of small instances, one rank per level."""
    if inst.n > max_vertices:
        raise SizeCapError(
            f"instance has {inst.n} vertices, DOT export capped at {max_vertices}")
    lines = ["digraph dst {", "  rankdir=TB;"]
    for lvl in range(5):
        names = " ".join(f'"{inst.labels[i]}"' for i in inst.level_ids(lvl))
        lines.append(f"  {{ rank=same; {names} }}")
    cost_label = {c: f'label="{render_rational(q)}"'
                  for c, q in inst.class_costs.items() if q}
    for tail, head, klass, color in zip(inst.tails, inst.heads, inst.classes,
                                        inst.colors):
        attrs = [cost_label[klass]] if klass in cost_label else []
        if color is not None:
            attrs.append(f'tooltip="{inst.provenance.color_labels[color]}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(
            f'  "{inst.labels[tail]}" -> "{inst.labels[head]}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
