"""Core gap-instance objects.

`GapObjects` is the abstract structure: a bipartite graph H on A and B with
every A-vertex of degree d, every B-vertex of degree d', and the edge set
partitioned into k color classes that are matchings of size s each (one
color per terminal), all four read from its edges.  `DstInstance` is the
concrete 5-level layered DST graph built from it:

    level 0: root r
    level 1: A                    (edges r->u, cost |B|/|A|)
    level 2: B                    (directed copy of H, cost 0)
    level 3: B' (copy of B)       (matching v->pi(v), cost 1)
    level 4: terminals K          (pi(v)->t for each color t at v, cost 0)

Costs are fixed by the edge class, the level of the head, as above: an
instance keeps int tail, head and color columns and one cost per class.

Vertex ids are dense integers assigned level by level in the canonical
label order of the objects; edges are sorted by (level, tail, head), so a
given GapObjects value always builds the identical instance, whose edge
codes tail * n + head ascend with the edge position.  build_instance
is the only builder: a file loads as the instance of its objects less the
edges it leaves out, and a file edge that is not a built edge, or that
costs other than its class cost, is rejected.  The file text is rendered
from the objects alone, so a family file as `gen` writes it is checked
against its bytes before, or without, any instance is built.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import re
import reprlib
from array import array
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import add, getitem, itemgetter, mul, or_
from typing import NamedTuple

from .rationals import parse_rational, render_rational

ROOT_LABEL = "r"

# edge classes, by level of the head vertex
E1, E2, E3, E4 = 1, 2, 3, 4


class SizeCapError(Exception):
    """A configured resource cap would be exceeded."""


class InfeasibleError(Exception):
    """The instance has no Steiner tree: some terminal cannot be reached
    from the root, as when a file leaves out every edge into it."""


class _GapFields(NamedTuple):
    a_labels: tuple
    b_labels: tuple
    color_labels: tuple
    edges: tuple
    family: str = "generic"
    family_params: tuple = ()


class GapObjects(_GapFields):
    """The abstract objects behind a gap instance.

    edges are (a_index, b_index, color_index) triples; labels are canonical
    strings (subset labels rendered as sorted element lists).  family /
    family_params record provenance so that the per-vertex J-sets of the
    known families can be rebuilt later.  k is the number of colors, and
    d, d' and s are read from the edges.

    The fields are a NamedTuple, compared by value; this subclass adds the
    derived values, cached per object.  _replace makes a new object whose
    cache is empty.
    """

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
    def _edge_counts(self) -> tuple:
        """The edges at each A-vertex, at each B-vertex and of each color."""
        return tuple(
            list(map(Counter(map(itemgetter(i), self.edges)).__getitem__,
                     range(n)))
            for i, n in enumerate((self.num_a, self.num_b, self.k)))

    @functools.cached_property
    def _most_common(self) -> tuple:
        """(d, d', s): the most common of each kind of edge count, which
        for valid objects is the only one; the smaller on a tie, 0 if none."""
        return tuple(min(tally, key=lambda n: (-tally[n], n), default=0)
                     for tally in map(Counter, self._edge_counts))

    k = property(lambda self: len(self.color_labels))
    d = property(lambda self: self._most_common[0])
    d_prime = property(lambda self: self._most_common[1])
    s = property(lambda self: self._most_common[2])

    @functools.cached_property
    def color_masks_by_b(self) -> tuple:
        """K_v for every B-vertex: the int mask of the color indices
        incident to v, bit c for color c.  Computed once per objects value:
        validate_objects, _columns and certify_gap all read it."""
        kv = [0] * self.num_b
        for _, b, c in self.edges:
            kv[b] |= 1 << c
        return tuple(kv)

    @functools.cached_property
    def color_and_a_masks(self) -> list:
        """The color labels' and the A-labels' sets as label_masks reads
        them, read once per objects value: default_j_sets reads them for
        every thresh, and no B-label is read."""
        return label_masks(self.color_labels, self.a_labels)[1]

    @functools.cached_property
    def _failure(self):
        """validate_objects' message, None if valid; found once."""
        return _validation_failure(self)

    @functools.cached_property
    def _columns(self) -> tuple:
        """The tails, heads and colors of the instance valid objects build,
        in the one built order: E1 in A order, E2 from the sorted triples,
        E3 once per B-vertex and E4 from each K_v mask's bits, lowest
        first.  Made once, for the loader's render and build_instance."""
        na, nb, k = self.num_a, self.num_b, self.k
        edges = sorted(self.edges)
        kv = list(map(bit_indices, self.color_masks_by_b))
        # one int object per vertex id, shared by every edge at the vertex
        ids = list(range(1 + na + 2 * nb + k))
        a_id, b_id = ids[1:1 + na], ids[1 + na:1 + na + nb]
        bp_id, t_id = ids[1 + na + nb:1 + na + 2 * nb], ids[1 + na + 2 * nb:]
        tails = [0] * na
        tails += map(a_id.__getitem__, map(itemgetter(0), edges))
        tails += b_id
        tails += [v for v, cs in zip(bp_id, kv) for _ in cs]
        heads = list(a_id)
        heads += map(b_id.__getitem__, map(itemgetter(1), edges))
        heads += bp_id
        heads += [t_id[c] for cs in kv for c in cs]
        colors = ((None,) * na + tuple(map(itemgetter(2), edges))
                  + (None,) * (nb + sum(map(len, kv))))
        return tuple(tails), tuple(heads), colors


def bit_indices(mask: int) -> list:
    """The indices of the set bits of mask, lowest first: the one reader of
    a mask's bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _element_texts(label):
    """The elements a label names, each as the text (or int) that int()
    reads, or None if the label has no such form: a set label "{1,2}" has
    its elements, and a bare integer, "3" or 3 (an element-colored
    family's color), is one element."""
    if type(label) is str:
        body = label.strip()
        if body[:1] == "{" and body[-1:] == "}":
            body = body[1:-1].strip()
            return body.split(",") if body else ()
        return (label,)
    return (label,) if type(label) is int else None


def label_masks(*levels) -> tuple:
    """(ground, masks): the sorted ground set of the sets that the labels of
    the given levels name, and for each level the list of its labels' sets
    as int masks, bit i standing for ground[i].  The one label reader: a set
    label "{1,2}" names its set, and a bare integer, "3" or 3 (an
    element-colored family's color), names {3}.  Each label is read once,
    and each distinct element text by int() once.  A label that names no
    set is a ValueError that quotes the first such label, in level order."""
    texts = [list(map(_element_texts, level)) for level in levels]
    # element text -> its int, None if it reads as none
    value = dict.fromkeys(itertools.chain.from_iterable(
        filter(None, itertools.chain(*texts))))
    for text in value:
        with contextlib.suppress(ValueError):
            value[text] = int(text)
    if None in value.values() or any(None in level for level in texts):
        bad = {text for text, x in value.items() if x is None}
        for label, elements in zip(itertools.chain(*levels),
                                   itertools.chain(*texts)):
            if elements is None or not bad.isdisjoint(elements):
                raise ValueError(f"label {label!r} names no set")
    ground = sorted(set(value.values()))
    rank = {x: 1 << i for i, x in enumerate(ground)}
    bit = {text: rank[x] for text, x in value.items()}
    masks = []
    for level in texts:
        masks.append([functools.reduce(or_, map(bit.__getitem__, elements), 0)
                      for elements in level])
    return tuple(ground), masks


def validate_objects(objects: GapObjects) -> None:
    """None if every GapObjects invariant holds; else one ValueError whose
    one-line message names each failing invariant with its witness.

    In-range edge indices and distinct labels are checked first, and each
    is reported alone.  Then no parallel edges, regularity, the matching
    partition, s >= 1, and for a family that families.containment_params
    knows, that |A|, |B|, k, d, d' and s are families.containment_counts,
    computed no further than the largest.  A color twice at a B-vertex shows
    as fewer K_v mask bits than edges.  These imply sk = d|A| = d'|B|,
    |K_v| = d', s <= |A| and d <= k.  The outcome is found once per objects
    value: the loader validates before it renders, and build_instance again.
    """
    failure = objects._failure
    if failure is not None:
        raise ValueError(failure)


def _cut_digits(message: str) -> str:
    """The message with each run of more than 30 digits cut to its ends and
    its length: a count a file claims can have thousands of digits."""
    return re.sub(r"\d{31,}", lambda run: f"{run[0][:5]}...{run[0][-5:]}"
                  f" ({len(run[0])} digits)", message)


def _validation_failure(objects: GapObjects):
    """validate_objects' message for the objects; None if they are valid."""
    from . import families  # families imports this module

    na, nb, k, edges = objects.num_a, objects.num_b, objects.k, objects.edges
    for a, b, c in edges:
        if not (0 <= a < na and 0 <= b < nb and 0 <= c < k):
            return f"edge ({a},{b},{c}) has an out-of-range index"
    for name, labels in (("A", objects.a_labels), ("B", objects.b_labels),
                         ("color", objects.color_labels)):
        if len(set(labels)) != len(labels):
            return f"duplicate {name} labels"
    failures = []

    def check(name, passed, detail):
        if not passed:
            failures.append(f"{name} ({detail})")

    def repeated(i, n, j):
        """(e[i], e[j]) shared by two or more edges e, by int e[i]*n + e[j].
        A set finds whether there is any; only then are they counted."""
        codes = list(map(add, map(mul, map(itemgetter(i), edges),
                                  itertools.repeat(n)),
                         map(itemgetter(j), edges)))
        return [] if len(set(codes)) == len(codes) else sorted(
            divmod(x, n) for x, m in Counter(codes).items() if m > 1)

    dupes = repeated(0, nb, 1)
    check("no-parallel-edges", not dupes,
          f"duplicate (A,B) pairs: {dupes[:5]}")

    d, dp, s = objects.d, objects.d_prime, objects.s
    deg_a, deg_b, sizes = objects._edge_counts
    bad_a = [objects.a_labels[i] for i, x in enumerate(deg_a) if x != d]
    check("a-regular", not bad_a,
          f"A-vertices with degree != d={d}: {bad_a[:5]}")
    bad_b = [objects.b_labels[i] for i, x in enumerate(deg_b) if x != dp]
    check("b-regular", not bad_b,
          f"B-vertices with degree != d'={dp}: {bad_b[:5]}")

    # a matching of size s: s edges, none two at a vertex (so |K_v| = deg v)
    bad = [c for c, x in enumerate(sizes) if x != s]
    bad += map(itemgetter(0), repeated(2, na, 0))
    if sum(map(int.bit_count, objects.color_masks_by_b)) != len(edges):
        bad += map(itemgetter(0), repeated(2, nb, 1))
    failing = bit_indices(functools.reduce(or_, map((1).__lshift__, bad), 0))
    check("color-classes-are-matchings-of-size-s", not failing,
          f"colors failing: {[objects.color_labels[c] for c in failing][:5]}")
    check("s-positive", s >= 1, f"s={s}: a terminal needs an in-edge")

    family, params = objects.family, objects.params
    try:
        shape = families.containment_params(family, params)
    except ValueError as exc:
        check("family-params", False, f"params {params}: {exc}")
    else:
        if shape is not None:
            m, a, c, _ = shape
            found = (na, nb, k, d, dp, s)
            counts = families.containment_counts(*shape, cap=max(found))
            check("family-params", counts[:6] == found,
                  f"{family} params {params} give |A|=C({m},{a}), "
                  f"|B|=C({m},{a + c}), k=C({m},{c}), d=C({m - a},{c}), "
                  f"d'=C({a + c},{a}), s=C({m - c},{a}), not |A|={na}, "
                  f"|B|={nb}, k={k}, d={d}, d'={dp}, s={s}")

    if failures:  # params can have thousands of digits
        return _cut_digits("objects fail validation: " + "; ".join(failures))
    return None


class _InstanceFields(NamedTuple):
    tails: tuple           # int vertex ids
    heads: tuple           # int vertex ids
    colors: tuple          # color index on E2 edges, None elsewhere
    provenance: GapObjects


class DstInstance(_InstanceFields):
    """The built 5-level DST graph: int tail, head and color columns and the
    objects.  Vertex ids index into `labels`; edge i runs tails[i] -> heads[i],
    is of class levels[heads[i]] and costs class_costs[classes[i]].  Like
    GapObjects, a NamedTuple of the fields with cached values read from the
    objects, so an instance cannot disagree with them about |A|, |B|, k or an
    edge's class.  Built and loaded columns are in code order: an edge's
    int code tail * n + head ascends with its position, so edge_codes, an
    array('q') (codes are below n**2), is the one edge index, and
    edge_positions bisects it."""

    @functools.cached_property
    def labels(self) -> tuple:
        """All vertex labels, in id order: r, A, B, B' (each B-label
        primed) and the colors."""
        p = self.provenance
        return ((ROOT_LABEL,) + tuple(p.a_labels) + tuple(p.b_labels)
                + tuple(lbl + "'" for lbl in p.b_labels)
                + tuple(p.color_labels))

    @functools.cached_property
    def level_sizes(self) -> tuple:
        p = self.provenance
        return (1, p.num_a, p.num_b, p.num_b, p.k)

    @property
    def n(self) -> int:
        return sum(self.level_sizes)

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

    @functools.cached_property
    def levels(self) -> bytes:
        """The level of each vertex, by id."""
        return b"".join(bytes([i]) * n for i, n in enumerate(self.level_sizes))

    # each edge's class E1..E4: the level of its head
    classes = functools.cached_property(
        lambda self: bytes(map(self.levels.__getitem__, self.heads)))

    def pi(self, b_id: int) -> int:
        """The copy in level 3 of a level-2 vertex."""
        if not 0 <= b_id < self.n or self.levels[b_id] != 2:
            raise ValueError(f"vertex {b_id} is not in level 2")
        return b_id + self.level_sizes[2]

    @functools.cached_property
    def class_costs(self) -> dict:
        """Edge cost by class: _class_costs of the level sizes."""
        return _class_costs(self.level_sizes[1], self.level_sizes[2])

    @functools.cached_property
    def edge_codes(self) -> array:
        """Edge i's int code tails[i] * n + heads[i], which names the edge:
        no two edges share a tail and a head.  The codes ascend, as the
        columns are in code order."""
        n = self.n
        scaled = list(range(0, n * n, n))  # vertex id -> id * n
        # image_codes of the identity map, without its lookup per head
        return array("q", list(map(add, map(scaled.__getitem__, self.tails),
                                   self.heads)))

    def image_codes(self, vmap: list) -> list:
        """The codes of the edges' images under the vertex map vmap (vertex
        id -> vertex id), in edge order."""
        n = self.n
        scaled = [w * n for w in vmap]
        return list(map(add, map(scaled.__getitem__, self.tails),
                        map(vmap.__getitem__, self.heads)))

    def edge_positions(self, tails, heads) -> list:
        """The positions of the edges tails[j] -> heads[j], found by
        bisecting the edge codes; KeyError if a pair is no edge."""
        n, codes = self.n, self.edge_codes
        want = [u * n + v for u, v in zip(tails, heads)]
        at = list(map(bisect_left, itertools.repeat(codes), want))
        if at and max(at) == len(codes) \
                or list(map(codes.__getitem__, at)) != want:
            raise KeyError("a (tail, head) pair names no edge of the instance")
        return at

    @functools.cached_property
    def automorphisms(self) -> tuple:
        """flows.label_automorphisms of the instance, found once for every
        reader: solve's structured search and its LP's max-flow check."""
        from . import flows  # flows imports this module
        return flows.label_automorphisms(self)


def _class_costs(num_a: int, num_b: int) -> dict:
    """Edge cost by class, the only place edge costs are set: root edges
    |B|/|A|, copy edges v -> pi(v) 1, all other edges 0."""
    return {E1: Fraction(num_b, num_a), E2: Fraction(0), E3: Fraction(1),
            E4: Fraction(0)}


def build_instance(objects: GapObjects) -> DstInstance:
    """Build the 5-level instance; deterministic for a given GapObjects.
    ValueError if the objects fail validate_objects; RuntimeError if a built
    vertex's in-degree is not its level's, which fixes each class's size."""
    validate_objects(objects)

    inst = DstInstance(*objects._columns, provenance=objects)

    # cheap, and it guards generator bugs
    indeg = Counter(inst.heads)
    want = (0, 1, objects.d_prime, 1, objects.s)
    bad = [(inst.labels[v], indeg[v]) for v, level in enumerate(inst.levels)
           if indeg[v] != want[level]]
    if bad:
        raise RuntimeError(f"built (vertex, in-degree) pairs off the (root, "
                           f"A, B, B', terminal) in-degrees {want}: {bad[:5]}")
    return inst


def edge_class_counts(inst: DstInstance) -> dict:
    return {c: inst.classes.count(c) for c in (E1, E2, E3, E4)}


# ---------------------------------------------------------------------------
# serialization

# the counts a file's meta claims, each read from the objects' edges
_CLAIMS = ("d", "d_prime", "s", "k")


def _meta(objects: GapObjects) -> dict:
    return {"family": objects.family, "params": objects.params,
            **{key: getattr(objects, key) for key in _CLAIMS}}


def _levels(labels, level_sizes: tuple) -> list:
    """The labels of each level, in id order: slices of `labels`."""
    ends = itertools.accumulate(level_sizes)
    return [labels[end - size:end] for end, size in zip(ends, level_sizes)]


def _document(inst: DstInstance, edges: list) -> dict:
    """The file's top-level object around the given edge entries."""
    levels = _levels(inst.labels, inst.level_sizes)
    return {
        "meta": _meta(inst.provenance),
        "levels": list(map(list, levels)),
        "edges": edges,
        "pi": dict(zip(levels[2], levels[3])),  # pi(v) = v + |B|
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


def json_nested(value, depth: int, writers=None) -> str:
    """value as json.dumps(indent=1) writes it `depth` levels deep.  The
    value of a key in writers, in an object at any depth, is written by
    writers[key](value, its depth) instead.  A scalar is written by the C
    encoder, as the indent encoder would write it; the indent encoder's
    closures would make reference cycles.  The labels of a loaded file need
    not be strings, so a label is written by this too."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        members = []
        for key, item in value.items():
            write = writers.get(key) if writers else None
            text = (write(item, depth + 1) if write
                    else json_nested(item, depth + 1, writers))
            members.append(f"{encode_basestring_ascii(key)}: {text}")
        return json_block("{}", members, depth)
    if isinstance(value, (list, tuple)):
        return json_block("[]", [json_nested(item, depth + 1, writers)
                                 for item in value], depth)
    return json.dumps(value)


_HEAD = '{\n "meta": '


def json_block(brackets: str, items: list, depth: int) -> str:
    """A list or an object as json.dumps(indent=1) writes it `depth` levels
    deep, from its items written already: values, or "key: value" texts."""
    if not items:
        return brackets
    return (brackets[0] + "\n " + " " * depth
            + (",\n " + " " * depth).join(items)
            + "\n" + " " * depth + brackets[1])


def _edge_start(tail: str) -> str:
    """An edge entry, after a comma, up to its quoted head."""
    return f',\n  {{\n   "tail": {tail},\n   "head": '


def _edge_end(cost: str, color: str | None) -> str:
    """The rest of an edge entry, after its quoted head."""
    if color is None:
        return f',\n   "cost": {cost}\n  }}'
    return f',\n   "cost": {cost},\n   "color": {color}\n  }}'


# the edge entries rendered per piece of the file text
_EDGE_CHUNK = 4096


def _json_pieces(inst: DstInstance):
    """The file text of the instance, piece by piece: the header, one piece
    per _EDGE_CHUNK edges, then the tail.  No check is made, so the loader
    renders a family file from an instance of its objects' columns that it
    does not build.  Each label and entry end is quoted once, and a chunk
    is joined once from them, laid out by slice assignment from map."""
    # labels and colors are values of an edge entry, three levels deep
    quoted = [json_nested(label, 3) for label in inst.labels]
    color = [json_nested(label, 3) for label in inst.provenance.color_labels]
    start = list(map(_edge_start, quoted))
    close = {}  # class -> color index or None -> the entry's end
    for klass, q in inst.class_costs.items():
        text = encode_basestring_ascii(render_rational(q))
        close[klass] = dict(enumerate(_edge_end(text, c) for c in color))
        close[klass][None] = _edge_end(text, None)
    end = list(map(close.get, inst.levels))  # head id -> its class's ends
    levels = _levels(quoted, inst.level_sizes)
    yield (_HEAD + json_nested(_meta(inst.provenance), 1)
           + ',\n "levels": '
           + json_block("[]", [json_block("[]", level, 2)
                               for level in levels], 1)
           + ',\n "edges": [')
    for lo in range(0, len(inst.tails), _EDGE_CHUNK):
        chunk = slice(lo, lo + _EDGE_CHUNK)
        heads = inst.heads[chunk]
        parts = [""] * (3 * len(heads))
        parts[0::3] = map(start.__getitem__, inst.tails[chunk])
        parts[1::3] = map(quoted.__getitem__, heads)
        parts[2::3] = map(getitem, map(end.__getitem__, heads),
                          inst.colors[chunk])
        text = "".join(parts)
        yield text if lo else text[1:]  # no comma before the first edge
    pi = [f"{v}: {vp}" for v, vp in zip(levels[2], levels[3])]
    yield ("\n " if inst.tails else "") + '],\n "pi": ' \
        + json_block("{}", pi, 1) + "\n}\n"


def instance_to_json(inst: DstInstance) -> str:
    """The file text: json.dumps(instance_to_dict(inst), indent=1) + "\\n",
    byte for byte, joined once from _json_pieces of the instance's own
    fields."""
    return "".join(_json_pieces(inst))


def instance_sha256(inst: DstInstance) -> str:
    import hashlib  # here, so that importing the model loads no OpenSSL

    return hashlib.sha256(instance_to_json(inst).encode()).hexdigest()


def _json_node(value, kind, name: str):
    """value, if it is a JSON node of type kind (dict or list); else a
    ValueError that names it."""
    if type(value) is not kind:
        raise ValueError(f"{name} is {reprlib.repr(value)}, not "
                         f"{'an object' if kind is dict else 'a list'}")
    return value


def _member(obj: dict, key: str, name: str):
    """obj[key]; a ValueError that names obj and key if key is missing."""
    if key not in obj:
        raise ValueError(f"{name} has no {key!r}")
    return obj[key]


def _edge_entry_error(entry: dict, exc: Exception) -> ValueError:
    """The fault behind a KeyError or TypeError that reading the labels and
    cost of an edge entry raised."""
    fault = (f"no {exc}" if isinstance(exc, KeyError)
             else "a list or an object as a label")
    return ValueError(f"edge entry {reprlib.repr(entry)} has {fault}")


def instance_from_dict(data: dict) -> DstInstance:
    """Load an instance file: the instance that build_instance makes from
    the file's objects (its levels, meta and level-2 edges, the entries
    with a color), less the built edges that the file leaves out.

    So a corrupted file, e.g. with a level-3 edge deleted, loads into an
    instance whose feasibility check then fails with a named terminal.  A
    file that contradicts itself raises ValueError: its objects must pass
    validate_objects, its meta's d, d_prime, s and k must be the ints that
    the objects' edges give, and every edge must be a built edge, listed
    once, costing its class cost.
    """
    _json_node(data, dict, "the file")
    meta = _json_node(_member(data, "meta", "the file"), dict, "meta")
    levels = _member(data, "levels", "the file")
    if type(levels) is not list or len(levels) != 5 \
            or levels[0] != [ROOT_LABEL]:
        raise ValueError("instance must have 5 levels with root 'r'")
    for lvl in (1, 4):
        for lbl in _json_node(levels[lvl], list, f"levels[{lvl}]"):
            if type(lbl) in (list, dict):  # labels are dict keys below
                raise ValueError(f"level-{lvl} label {reprlib.repr(lbl)} "
                                 "is a list or an object")
    for lbl in _json_node(levels[2], list, "levels[2]"):
        if type(lbl) is not str:
            raise ValueError(f"level-2 label {lbl!r} is not a string")
    if levels[3] != [lbl + "'" for lbl in levels[2]]:
        raise ValueError("level 3 is not the primed copy of level 2")
    for v, vp in _json_node(data.get("pi", {}), dict, "pi").items():
        if vp != v + "'":
            raise ValueError(f"pi maps {v!r} to {vp!r}, expected {v + chr(39)!r}")

    params = _json_node(meta.get("params", {}), dict, "meta.params")
    family = meta.get("family", "generic")
    if type(family) is not str:
        raise ValueError(f"meta.family is {reprlib.repr(family)}, "
                         "not a string")
    a_idx, b_idx, color_idx = (
        {lbl: i for i, lbl in enumerate(levels[lvl])} for lvl in (1, 2, 4))
    edges = _json_node(_member(data, "edges", "the file"), list, "edges")
    h_edges = []  # the level-2 edges: the entries with a color
    for e in edges:
        if type(e) is not dict:
            raise ValueError(f"edge entry {reprlib.repr(e)} is not an object")
        if "color" in e:
            try:
                tail, head, color = e["tail"], e["head"], e["color"]
                abc = (a_idx.get(tail), b_idx.get(head), color_idx.get(color))
            except (KeyError, TypeError) as exc:
                raise _edge_entry_error(e, exc) from None
            if None in abc:
                raise ValueError(
                    f"edge {tail!r} -> {head!r} has color {color!r}, but a "
                    "color belongs only on a level-1 -> level-2 edge and "
                    "names a level-4 vertex")
            h_edges.append(abc)
    objects = GapObjects(
        a_labels=tuple(levels[1]),
        b_labels=tuple(levels[2]),
        color_labels=tuple(levels[4]),
        edges=tuple(sorted(h_edges)),
        family=family,
        family_params=tuple(sorted(params.items())),
    )
    validate_objects(objects)
    for key in _CLAIMS:
        claim, value = _member(meta, key, "meta"), getattr(objects, key)
        if type(claim) is not int or claim != value:
            shown = str(claim) if type(claim) is int else reprlib.repr(claim)
            raise ValueError(_cut_digits(f"meta.{key} is {shown}, but the "
                                         f"edges give {key}={value}"))
    inst = build_instance(objects)

    label = inst.labels.__getitem__
    built = dict(zip(zip(map(label, inst.tails), map(label, inst.heads)),
                     range(len(inst.tails))))
    if len(built) != len(inst.tails):
        raise ValueError("two edges of the instance have the same "
                         "(tail, head) labels")
    listed = {}  # built edge position -> the file's cost text
    for entry in edges:
        try:
            i = built.get((entry["tail"], entry["head"]))
            cost = entry["cost"]
        except (KeyError, TypeError) as exc:
            raise _edge_entry_error(entry, exc) from None
        if i is None:
            raise ValueError(f"edge {entry['tail']!r} -> {entry['head']!r} is not "
                             "an edge of the objects' instance")
        if i in listed:
            raise ValueError(f"edge {entry['tail']!r} -> {entry['head']!r} appears "
                             "more than once")
        listed[i] = cost
        if type(cost) is not str:
            raise ValueError(f"edge {entry['tail']!r} -> {entry['head']!r} "
                             f"has cost {cost!r}, not a \"num/den\" string")
    costs, level = inst.class_costs, inst.levels.__getitem__
    for klass, text in dict.fromkeys(zip(
            map(level, map(inst.heads.__getitem__, listed)), listed.values())):
        if parse_rational(text) != costs[klass]:
            raise ValueError(f"an E{klass} edge costs {text!r}, but every E{klass} "
                             f"edge costs {render_rational(costs[klass])}")
    keep = sorted(listed)
    tails, heads, colors = (tuple(map(column.__getitem__, keep)) for column
                            in (inst.tails, inst.heads, inst.colors))
    return inst._replace(tails=tails, heads=heads, colors=colors)


# the fewest characters an E2 edge entry takes in the text instance_to_json
# writes, which has one such entry per edge of the objects
_E2_ENTRY_CHARS = len(_edge_start('""') + '""' + _edge_end('""', '""'))


def _same_text(pieces, data: bytes) -> bool:
    """Whether the iterable of ASCII pieces, joined, is data.  It is
    compared a piece at a time, so the joined text is never held."""
    pos = 0
    for piece in map(str.encode, pieces):
        if not data.startswith(piece, pos):
            return False
        pos += len(piece)
    return pos == len(data)


def _family_file_objects(data: bytes):
    """The objects of a family file as `gen` writes it; None for any other
    file.  Only the meta is parsed: the family is generated, validated,
    rendered from its columns and compared with the bytes, so no dict tree
    and no instance is made.  The edge cap that the file's length sets
    keeps a small file whose meta claims a large family from generating
    anything."""
    from . import families  # families imports this module

    if not data.startswith(_HEAD.encode()):
        return None
    start = data[len(_HEAD):len(_HEAD) + 4096].decode("utf-8", "replace")
    try:
        meta = json.JSONDecoder().raw_decode(start)[0]
        objects = families.family_objects(
            meta["family"], meta["params"],
            max_edges=len(data) // _E2_ENTRY_CHARS)
        validate_objects(objects)
    except (ValueError, KeyError, TypeError, SizeCapError):
        return None
    pieces = _json_pieces(DstInstance(*objects._columns, provenance=objects))
    return objects if _same_text(pieces, data) else None


def objects_from_json(data: bytes) -> GapObjects:
    """The objects of an instance file's bytes, with every check that
    instance_from_json makes.  A family file as `gen` writes it builds no
    instance; any other file, a family file with one byte changed among
    them, is the provenance of instance_from_dict(json.loads(data))."""
    objects = _family_file_objects(data)
    if objects is None:
        objects = instance_from_dict(json.loads(data)).provenance
    return objects


def instance_from_json(data: bytes) -> DstInstance:
    """Load an instance file's bytes.  A family file as `gen` writes it is
    the built instance of its meta's family, built once its text has been
    compared with the bytes, on the columns the compare rendered.  Any
    other file, a family file with one byte changed among them, loads
    through instance_from_dict(json.loads(data)) and is built once,
    there."""
    objects = _family_file_objects(data)
    if objects is None:
        return instance_from_dict(json.loads(data))
    return build_instance(objects)


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
