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

Vertex ids are dense integers assigned level by level in the canonical
label order of the objects; edges are sorted by (level, tail, head), so a
given GapObjects value always builds the identical instance.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .rationals import parse_rational, render_rational

ROOT_LABEL = "r"

# edge classes, by level of the head vertex
E1, E2, E3, E4 = 1, 2, 3, 4


class SizeCapError(Exception):
    """A configured resource cap would be exceeded."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""
    required: bool = True


@dataclass(frozen=True)
class ValidationReport:
    """Per-invariant pass/fail results, with witnesses for every failure."""

    checks: tuple

    @property
    def ok(self) -> bool:
        """All required structural invariants hold."""
        return all(c.passed for c in self.checks if c.required)

    @property
    def strict_ok(self) -> bool:
        """All invariants hold, including the asymptotic shape inequalities."""
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


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

    def color_sets_by_b(self):
        """K_v for every B-vertex: the set of color indices incident to v."""
        kv = [set() for _ in self.b_labels]
        for _, b, c in self.edges:
            kv[b].add(c)
        return [frozenset(x) for x in kv]


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


def _check_indices(objects: GapObjects) -> None:
    na, nb, nc = objects.num_a, objects.num_b, len(objects.color_labels)
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


def validate_objects(objects: GapObjects) -> ValidationReport:
    """Check every GapObjects invariant; enumerate all failures.

    Structural requirements (regularity, matching partition, the counting
    identity, |K_v| = d') are hard: build_instance refuses objects that
    fail them.  The shape inequalities |A| <= |B| and d >= d' hold for the
    families at asymptotic scale but not at desk scale (e.g. the k=4
    element-colored family has |A|=6 > |B|=4), so they are reported as
    advisory checks and do not block building.
    """
    _check_indices(objects)
    checks = []

    def add(name, passed, detail="", required=True):
        checks.append(Check(name, passed, detail, required))

    na, nb = objects.num_a, objects.num_b
    d, dp, s, k = objects.d, objects.d_prime, objects.s, objects.k

    add("color-count", k == len(objects.color_labels),
        f"k={k} but {len(objects.color_labels)} color labels")

    seen = set()
    dupes = [(a, b) for a, b, _ in objects.edges
             if (a, b) in seen or seen.add((a, b))]
    add("no-parallel-edges", not dupes,
        f"duplicate (A,B) pairs: {sorted(set(dupes))[:5]}" if dupes else "")

    deg_a = [0] * na
    deg_b = [0] * nb
    for a, b, _ in objects.edges:
        deg_a[a] += 1
        deg_b[b] += 1
    bad_a = [objects.a_labels[i] for i, x in enumerate(deg_a) if x != d]
    add("a-regular", not bad_a,
        f"A-vertices with degree != d={d}: {bad_a[:5]}" if bad_a else "")
    bad_b = [objects.b_labels[i] for i, x in enumerate(deg_b) if x != dp]
    add("b-regular", not bad_b,
        f"B-vertices with degree != d'={dp}: {bad_b[:5]}" if bad_b else "")

    by_color = [[] for _ in range(len(objects.color_labels))]
    for a, b, c in objects.edges:
        by_color[c].append((a, b))
    bad_matchings = []
    for c, es in enumerate(by_color):
        a_side = {a for a, _ in es}
        b_side = {b for _, b in es}
        if len(es) != s or len(a_side) != len(es) or len(b_side) != len(es):
            bad_matchings.append(objects.color_labels[c])
    add("color-classes-are-matchings-of-size-s", not bad_matchings,
        f"colors failing: {bad_matchings[:5]}" if bad_matchings else "")

    add("counting-identity",
        s * k == d * na == dp * nb == len(objects.edges),
        f"sk={s * k}, d|A|={d * na}, d'|B|={dp * nb}, |E|={len(objects.edges)}")

    kv_sizes = [len(x) for x in objects.color_sets_by_b()]
    bad_kv = [objects.b_labels[i] for i, x in enumerate(kv_sizes) if x != dp]
    add("kv-size", not bad_kv,
        f"B-vertices with |K_v| != d'={dp}: {bad_kv[:5]}" if bad_kv else "")

    add("s-at-most-A", s <= na, f"s={s} > |A|={na}")
    add("k-at-least-d", k >= d, f"k={k} < d={d}")

    add("A-at-most-B", na <= nb, f"|A|={na} > |B|={nb}", required=False)
    add("d-at-least-d-prime", d >= dp, f"d={d} < d'={dp}", required=False)

    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    cost: Fraction
    klass: int
    color: int | None = None  # color index, E2 edges only


@dataclass(frozen=True)
class DstInstance:
    """The built 5-level DST graph.  Vertex ids index into `labels`."""

    labels: tuple          # all vertex labels, id order
    level_sizes: tuple     # (1, |A|, |B|, |B|, k)
    edges: tuple           # Edge tuples sorted by (klass, tail, head)
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
    def edge_index(self) -> dict:
        """(tail, head) -> edge position; built once per instance."""
        return {(e.tail, e.head): i for i, e in enumerate(self.edges)}

    def out_adjacency(self):
        adj = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            adj[e.tail].append((e.head, i))
        return adj

    def in_adjacency(self):
        adj = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            adj[e.head].append((e.tail, i))
        return adj


def build_instance(objects: GapObjects) -> DstInstance:
    """Build the 5-level instance; deterministic for a given GapObjects."""
    report = validate_objects(objects)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures() if c.required)
        raise ValueError(f"objects fail validation: {names}")

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

    cost1 = Fraction(nb, na)
    edges = []
    for i in range(na):
        edges.append(Edge(0, a_off + i, cost1, E1))
    for a, b, c in sorted(objects.edges):
        edges.append(Edge(a_off + a, b_off + b, Fraction(0), E2, c))
    for i in range(nb):
        edges.append(Edge(b_off + i, bp_off + i, Fraction(1), E3))
    kv = objects.color_sets_by_b()
    for i in range(nb):
        for c in sorted(kv[i]):
            edges.append(Edge(bp_off + i, t_off + c, Fraction(0), E4))

    inst = DstInstance(
        labels=labels,
        level_sizes=(1, na, nb, nb, k),
        edges=tuple(edges),
        provenance=objects,
    )

    # DstInstance invariants; cheap, and they guard generator bugs
    assert inst.n == 1 + na + 2 * nb + k
    counts = edge_class_counts(inst)
    assert counts == {E1: na, E2: len(objects.edges), E3: nb,
                      E4: nb * objects.d_prime}
    indeg = [0] * inst.n
    for e in inst.edges:
        indeg[e.head] += 1
    assert all(indeg[t] == objects.s for t in inst.terminals)
    return inst


def edge_class_counts(inst: DstInstance) -> dict:
    counts = {E1: 0, E2: 0, E3: 0, E4: 0}
    for e in inst.edges:
        counts[e.klass] += 1
    return counts


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
    canonical_lp_cost: Fraction  # 2|B|/s


def instance_stats(inst: DstInstance) -> Stats:
    obj = inst.provenance
    total = sum((e.cost for e in inst.edges), Fraction(0))
    return Stats(
        n=inst.n,
        level_sizes=inst.level_sizes,
        edge_class_counts=edge_class_counts(inst),
        d=obj.d,
        d_prime=obj.d_prime,
        s=obj.s,
        k=obj.k,
        total_cost=total,
        canonical_lp_cost=Fraction(2 * obj.num_b, obj.s),
    )


# ---------------------------------------------------------------------------
# serialization

def instance_to_dict(inst: DstInstance) -> dict:
    obj = inst.provenance
    levels = []
    for lvl in range(5):
        levels.append([inst.labels[i] for i in inst.level_ids(lvl)])
    edges = []
    for e in inst.edges:
        entry = {
            "tail": inst.labels[e.tail],
            "head": inst.labels[e.head],
            "cost": render_rational(e.cost),
        }
        if e.color is not None:
            entry["color"] = obj.color_labels[e.color]
        edges.append(entry)
    pi = {}
    for i in inst.level_ids(2):
        pi[inst.labels[i]] = inst.labels[inst.pi(i)]
    return {
        "meta": {
            "family": obj.family,
            "params": obj.params,
            "d": obj.d,
            "d_prime": obj.d_prime,
            "s": obj.s,
            "k": obj.k,
        },
        "levels": levels,
        "edges": edges,
        "pi": pi,
    }


def instance_to_json(inst: DstInstance) -> str:
    return json.dumps(instance_to_dict(inst), indent=1) + "\n"


def instance_sha256(inst: DstInstance) -> str:
    return hashlib.sha256(instance_to_json(inst).encode()).hexdigest()


def instance_from_dict(data: dict) -> DstInstance:
    """Load an instance file.

    The instance is reconstructed verbatim (not re-built from its objects),
    so a corrupted file, e.g. with a level-3 edge deleted, loads into an
    instance whose feasibility check then fails with a named terminal.
    """
    meta = data["meta"]
    levels = data["levels"]
    if len(levels) != 5 or levels[0] != [ROOT_LABEL]:
        raise ValueError("instance must have 5 levels with root 'r'")
    a_labels, b_labels = list(levels[1]), list(levels[2])
    color_labels = list(levels[4])
    expected_bp = [lbl + "'" for lbl in b_labels]
    if levels[3] != expected_bp:
        raise ValueError("level 3 is not the primed copy of level 2")
    for v, vp in data.get("pi", {}).items():
        if vp != v + "'":
            raise ValueError(f"pi maps {v!r} to {vp!r}, expected {v + chr(39)!r}")

    labels = [ROOT_LABEL]
    for lvl_labels in (a_labels, b_labels, expected_bp, color_labels):
        labels.extend(lvl_labels)
    na, nb, k = len(a_labels), len(b_labels), len(color_labels)
    offsets = [0, 1, 1 + na, 1 + na + nb, 1 + na + 2 * nb]
    # per-level maps: the same label may appear on two levels (the subset
    # family uses identical labels for A-vertices and terminals)
    level_ids = [
        {lbl: offsets[lvl] + i for i, lbl in enumerate(lvl_labels)}
        for lvl, lvl_labels in enumerate(
            ([ROOT_LABEL], a_labels, b_labels, expected_bp, color_labels))
    ]
    color_idx = {lbl: i for i, lbl in enumerate(color_labels)}

    h_edges = []
    edges = []
    for entry in data["edges"]:
        hits = [
            klass for klass in (E1, E2, E3, E4)
            if entry["tail"] in level_ids[klass - 1]
            and entry["head"] in level_ids[klass]
        ]
        if len(hits) != 1:
            raise ValueError(f"edge {entry} does not go down one level")
        klass = hits[0]
        tail = level_ids[klass - 1][entry["tail"]]
        head = level_ids[klass][entry["head"]]
        color = None
        if klass == E2:
            color = color_idx[entry["color"]]
            h_edges.append((tail - 1, head - 1 - na, color))
        edges.append(Edge(tail, head, parse_rational(entry["cost"]),
                          klass, color))

    objects = GapObjects(
        a_labels=tuple(a_labels),
        b_labels=tuple(b_labels),
        color_labels=tuple(color_labels),
        edges=tuple(sorted(h_edges)),
        d=meta["d"],
        d_prime=meta["d_prime"],
        s=meta["s"],
        k=meta["k"],
        family=meta.get("family", "generic"),
        family_params=tuple(sorted(meta.get("params", {}).items())),
    )
    return DstInstance(
        labels=tuple(labels),
        level_sizes=(1, na, nb, nb, k),
        edges=tuple(edges),
        provenance=objects,
    )


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
    for e in inst.edges:
        attrs = [f'label="{render_rational(e.cost)}"'] if e.cost else []
        if e.color is not None:
            attrs.append(f'tooltip="{inst.provenance.color_labels[e.color]}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(
            f'  "{inst.labels[e.tail]}" -> "{inst.labels[e.head]}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
