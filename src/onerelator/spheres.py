"""Combinatorial cell subdivisions of the 2-sphere with oriented edges and
group-labelled corners, plus the validity and irreducibility checks used by
the crash simulation.

Faces list their boundary as (edge, direction) steps in anticlockwise order;
corner ``i`` of a face sits at the start vertex of boundary step ``i``.
Exactly one corner of a fully labelled complex is unlabelled: the corner of
the outer face at the distinguished vertex.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

from .words import (
    BASE_LETTERS,
    STABLE,
    Word,
    assemble,
    cyclic_reduce,
    free_reduce,
    least_rotation,
    parse_word,
)

LABEL_ALPHABET = frozenset(BASE_LETTERS)

FACE_TYPES = ("I", "I'", "II", "II'", "infinity")


class ComplexFormatError(ValueError):
    """Malformed complex description (unknown ids, bad fields, bad JSON)."""


@dataclass(frozen=True)
class Face:
    id: str
    boundary: tuple[tuple[str, int], ...]  # (edge id, +1 with / -1 against)
    corners: tuple[tuple[str, Optional[Word]], ...]  # (vertex id, label)
    type: Optional[str] = None


class Incidences(NamedTuple):
    """Which cars share an edge or a vertex.

    ``sides[e]`` lists the (face id, boundary index) steps along edge e and
    ``slots[v]`` the (face id, corner index) corners at vertex v.
    """

    sides: dict[str, tuple[tuple[str, int], ...]]
    slots: dict[str, tuple[tuple[str, int], ...]]


@dataclass(frozen=True)
class SphereComplex:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (id, tail, head)
    faces: tuple[Face, ...]
    e_infinity: Optional[str] = None
    v0: Optional[str] = None

    @cached_property
    def edge_map(self) -> dict[str, tuple[str, str]]:
        return {e: (t, h) for e, t, h in self.edges}

    @cached_property
    def face_map(self) -> dict[str, Face]:
        return {f.id: f for f in self.faces}

    def step_start(self, step: tuple[str, int]) -> str:
        tail, head = self.edge_map[step[0]]
        return tail if step[1] > 0 else head

    def step_end(self, step: tuple[str, int]) -> str:
        tail, head = self.edge_map[step[0]]
        return head if step[1] > 0 else tail

    @cached_property
    def incidences(self) -> Incidences:
        """Sides per edge and slots per vertex, each in face order."""
        sides: dict[str, list[tuple[str, int]]] = {e: [] for e, _, _ in self.edges}
        slots: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for f in self.faces:
            # side i and slot i of a face share one (face id, i) tuple
            keys = [(f.id, i) for i in range(max(len(f.boundary), len(f.corners)))]
            for key, (e, _) in zip(keys, f.boundary):
                sides.setdefault(e, []).append(key)
            for key, (v, _) in zip(keys, f.corners):
                slots.setdefault(v, []).append(key)
        return Incidences(
            {e: tuple(s) for e, s in sides.items()},
            {v: tuple(s) for v, s in slots.items()},
        )

    def edge_incidences(self, edge_id: str) -> list[tuple[str, int]]:
        """(face id, boundary index) pairs using the edge, in either direction."""
        return list(self.incidences.sides.get(edge_id, ()))


@dataclass(frozen=True)
class RelatorSet:
    """The relator family {w0} together with the H-relator 2-gon words."""

    w0: Word
    h_pairs: tuple[tuple[Word, Word], ...] = ()  # (h, image of h under phi)

    def words(self) -> tuple[Word, ...]:
        # t^-1 h t (h^phi)^-1 for each H-relator
        return (self.w0,) + tuple(
            assemble((Word(), h, h_phi.inverse()), (-1, 1))
            for h, h_phi in self.h_pairs
        )


@dataclass(frozen=True)
class ValidationReport:
    euler: bool
    connected: bool
    edge_pairing: bool
    links: bool
    problems: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.euler and self.connected and self.edge_pairing and self.links


def _check_references(k: SphereComplex) -> None:
    vset = set(k.vertices)
    if len(vset) != len(k.vertices):
        raise ComplexFormatError("duplicate vertex ids")
    eids = [e for e, _, _ in k.edges]
    if len(set(eids)) != len(eids):
        raise ComplexFormatError("duplicate edge ids")
    for e, t, h in k.edges:
        if t not in vset or h not in vset:
            raise ComplexFormatError(f"edge {e} references unknown vertex")
    fids = [f.id for f in k.faces]
    if len(set(fids)) != len(fids):
        raise ComplexFormatError("duplicate face ids")
    for f in k.faces:
        if len(f.boundary) != len(f.corners):
            raise ComplexFormatError(f"face {f.id}: corner/boundary length mismatch")
        if not f.boundary:
            raise ComplexFormatError(f"face {f.id}: empty boundary")
        for e, d in f.boundary:
            if e not in k.edge_map:
                raise ComplexFormatError(f"face {f.id} references unknown edge {e}")
            if d not in (1, -1):
                raise ComplexFormatError(f"face {f.id}: bad direction {d}")
        for v, _ in f.corners:
            if v not in vset:
                raise ComplexFormatError(f"face {f.id} references unknown vertex {v}")
    if k.e_infinity is not None and k.e_infinity not in k.face_map:
        raise ComplexFormatError("unknown distinguished face")
    if k.v0 is not None and k.v0 not in vset:
        raise ComplexFormatError("unknown distinguished vertex")


def _corner_ends(
    k: SphereComplex, f: Face, i: int
) -> tuple[tuple[str, int], tuple[str, int]]:
    """Edge-end slots flanking corner i: (incoming end, outgoing end).

    An end is (edge id, 0 for the tail end, 1 for the head end).
    """
    prev = f.boundary[i - 1]
    nxt = f.boundary[i]
    in_end = (prev[0], 1 if prev[1] > 0 else 0)
    out_end = (nxt[0], 0 if nxt[1] > 0 else 1)
    return in_end, out_end


def validate_sphere(k: SphereComplex) -> ValidationReport:
    """Check Euler characteristic, connectivity, edge pairing and vertex links."""
    _check_references(k)
    problems: list[str] = []

    v, e, f = len(k.vertices), len(k.edges), len(k.faces)
    euler = v - e + f == 2
    if not euler:
        problems.append(f"Euler characteristic {v - e + f} != 2")

    adjacency: dict[str, set[str]] = {vid: set() for vid in k.vertices}
    for _, t, h in k.edges:
        adjacency[t].add(h)
        adjacency[h].add(t)
    seen: set[str] = set()
    if k.vertices:
        stack = [k.vertices[0]]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(adjacency[cur] - seen)
    connected = seen == set(k.vertices)
    if not connected:
        problems.append("1-skeleton is not connected")

    usage = {
        eid: [k.face_map[fid].boundary[i][1] for fid, i in sides]
        for eid, sides in k.incidences.sides.items()
    }
    edge_pairing = all(sorted(ds) == [-1, 1] for ds in usage.values())
    if not edge_pairing:
        bad = [eid for eid, ds in usage.items() if sorted(ds) != [-1, 1]]
        problems.append(f"edges not used once per direction: {bad}")

    corner_ok = True
    for face in k.faces:
        for i, (vid, _) in enumerate(face.corners):
            if k.step_start(face.boundary[i]) != vid or k.step_end(
                face.boundary[i - 1]
            ) != vid:
                corner_ok = False
                problems.append(f"face {face.id}: corner {i} off its boundary vertex")
    # links are walked only over well-formed corners and edges; a link that
    # was not walked is not reported as passing
    links = corner_ok and edge_pairing
    if links:
        for vid in k.vertices:
            try:
                _vertex_cycle(k, vid)
            except ValueError as exc:
                links = False
                problems.append(str(exc))

    return ValidationReport(
        euler=euler,
        connected=connected,
        edge_pairing=edge_pairing,
        links=links,
        problems=tuple(problems),
    )


# -- reading words ----------------------------------------------------------


def read_face_word(k: SphereComplex, face_id: str, start: int = 0) -> Word:
    """Anticlockwise boundary word of a face, starting at the given corner.

    A t (resp. t^-1) is inserted for each boundary edge traversed with
    (resp. against) its orientation; the edge *entering* the start corner is
    read first, matching the triangle convention t a t^-1 b t^-1 c.
    """
    face = k.face_map[face_id]
    if k.e_infinity is not None and face_id == k.e_infinity:
        raise ValueError("the outer face has no boundary word")
    n = len(face.corners)
    raw: list[tuple[str, int]] = []
    for off in range(n):
        i = (start + off) % n
        _, d = face.boundary[i - 1]
        raw.append((STABLE, d))
        label = face.corners[i][1]
        if label is None:
            raise ValueError(f"face {face_id}: unlabelled corner {i}")
        raw.extend(label.letters)
    return free_reduce(raw)


def _vertex_cycle(k: SphereComplex, vertex_id: str) -> list[tuple[str, int]]:
    """Corners (face id, corner index) at a vertex, in link-cycle order.

    Raises ValueError unless the edge-end slots of the corners form one
    cycle through every corner.
    """
    slots: dict[tuple[str, int], tuple[str, int]] = {}
    corners: dict[tuple[str, int], tuple[str, int]] = {}
    ins = []
    for fid, i in k.incidences.slots.get(vertex_id, ()):
        in_end, out_end = _corner_ends(k, k.face_map[fid], i)
        ins.append(in_end)
        slots[out_end] = in_end  # traverse against the face orientation
        corners[out_end] = (fid, i)
    if not ins:
        raise ValueError(f"vertex {vertex_id}: no incident corners")
    if len(slots) != len(ins) or sorted(ins) != sorted(slots):
        raise ValueError(f"vertex {vertex_id}: edge-end slots do not match up")
    # the slots are a permutation, so the walk comes back to its start
    start = min(slots)
    order = [corners[start]]
    cur = slots[start]
    while cur != start:
        order.append(corners[cur])
        cur = slots[cur]
    if len(order) != len(ins):
        raise ValueError(f"vertex {vertex_id}: link is not a single cycle")
    return order


def _vertex_labels(k: SphereComplex, vertex_id: str) -> list[Word]:
    """Corner labels around a vertex, in link-cycle order."""
    labels: list[Word] = []
    for face_id, i in _vertex_cycle(k, vertex_id):
        label = k.face_map[face_id].corners[i][1]
        if label is None:
            raise ValueError(f"unlabelled corner at vertex {vertex_id}")
        labels.append(label)
    return labels


def read_vertex_word(k: SphereComplex, vertex_id: str) -> Word:
    """Clockwise product of the corner labels around a vertex."""
    if k.v0 is not None and vertex_id == k.v0:
        raise ValueError("the corner product at the distinguished vertex is undefined")
    return free_reduce(
        [l for label in _vertex_labels(k, vertex_id) for l in label.letters]
    )


# -- irreducibility ---------------------------------------------------------


def detect_type1(k: SphereComplex) -> Optional[tuple[str, str, str]]:
    """A pair of distinct faces reading inverse words across a shared edge.

    Returns (face, face, edge) or None.  The shared edge must represent the
    same t-occurrence in both words, which the alignment at the edge enforces.
    """
    skip = {k.e_infinity} if k.e_infinity is not None else set()
    for eid, _, _ in k.edges:
        inc = k.incidences.sides[eid]
        if len(inc) != 2:
            continue
        (f1, i1), (f2, i2) = inc
        if f1 == f2 or f1 in skip or f2 in skip:
            continue
        # each word starts with the t-letter of the shared boundary step
        n1, n2 = len(k.face_map[f1].boundary), len(k.face_map[f2].boundary)
        try:
            w1 = read_face_word(k, f1, start=(i1 + 1) % n1).letters
            w2 = read_face_word(k, f2, start=(i2 + 1) % n2).letters
        except ValueError:
            continue  # unlabelled corners: no word to compare
        inv = tuple((s, -e) for s, e in reversed(w1))
        aligned = inv[-1:] + inv[:-1]  # move the shared-edge letter to the front
        if w2 == aligned:
            return (f1, f2, eid)
    return None


def detect_type2(k: SphereComplex) -> Optional[tuple[tuple[str, ...], str, str]]:
    """A chain of 2-gons between common vertices whose label product is 1.

    Returns (face chain, vertex a, vertex b) or None.  The product is checked
    at both vertices; a witness is returned if it is trivial at either one.

    Each 2-gon may have at most two 2-gon neighbours with its vertices (true
    when each edge has two sides), else ValueError.  The witness is the first
    trivial prefix of a walk over sorted vertex pairs, then sorted start faces,
    each walked to its lower neighbour first; n 2-gons push O(n^2) labels.
    """
    skip = {k.e_infinity} if k.e_infinity is not None else set()
    bigons = [
        f
        for f in k.faces
        if len(f.boundary) == 2
        and f.id not in skip
        and all(lbl is not None for _, lbl in f.corners)
        and f.corners[0][0] != f.corners[1][0]
    ]
    # label[face id][vertex]: bigon corners are labelled and sit at distinct vertices
    label = {f.id: dict(f.corners) for f in bigons}
    by_pair: dict[frozenset[str], set[str]] = {}
    for f in bigons:
        by_pair.setdefault(frozenset(label[f.id]), set()).add(f.id)
    for key, ids in sorted(by_pair.items(), key=lambda kv: sorted(kv[0])):
        a, b = sorted(key)
        adjacency: dict[str, list[str]] = {}
        for fid in sorted(ids):
            steps = k.face_map[fid].boundary
            near = {g for e, _ in steps for g, _ in k.incidences.sides[e]}
            near = (near & ids) - {fid}
            if len(near) > 2:
                raise ValueError(f"2-gon {fid} has {len(near)} 2-gon neighbours")
            adjacency[fid] = sorted(near)
        for start in sorted(ids):
            for first in adjacency[start] or [None]:
                chain: dict[str, None] = {}  # the walk so far, as an ordered set
                stacks: dict[str, list[tuple[str, int]]] = {a: [], b: []}
                cur: Optional[str] = start
                while cur is not None:
                    chain[cur] = None
                    for v, stack in stacks.items():
                        for sym, sign in label[cur][v].letters:
                            if stack and stack[-1] == (sym, -sign):
                                stack.pop()
                            else:
                                stack.append((sym, sign))
                    if not stacks[a] or not stacks[b]:
                        return (tuple(chain), a, b)
                    # past the start, at most one neighbour is off the chain
                    onward = [g for g in adjacency[cur] if g not in chain]
                    cur = first if len(chain) == 1 else next(iter(onward), None)
    return None


# -- cell subdivision lemma report ------------------------------------------


@dataclass(frozen=True)
class CSLReport:
    items: dict[str, tuple[bool, str]]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.items.values())


def check_csl(
    k: SphereComplex,
    relators: RelatorSet,
    validation: ValidationReport,
    type1: Optional[tuple[str, str, str]],
    type2: Optional[tuple[tuple[str, ...], str, str]],
) -> CSLReport:
    """Per-property report for the cell subdivision lemma conditions (a)-(g).

    ``validation``, ``type1`` and ``type2`` are what ``validate_sphere(k)``,
    ``detect_type1(k)`` and ``detect_type2(k)`` returned; (f) is judged from
    the two witnesses, and none of the three runs here.  Raises ValueError
    unless ``validation`` passed.
    """
    report: dict[str, tuple[bool, str]] = {}
    if not validation.passed:
        raise ValueError(f"not a valid sphere subdivision: {validation.problems}")

    report["a"] = (True, "all edges carry an orientation by construction")

    unlabelled = [
        (f.id, i)
        for f in k.faces
        for i, (_, lbl) in enumerate(f.corners)
        if lbl is None
    ]
    b_ok = (
        len(unlabelled) == 1
        and k.e_infinity is not None
        and k.v0 is not None
        and unlabelled[0][0] == k.e_infinity
        and k.face_map[k.e_infinity].corners[unlabelled[0][1]][0] == k.v0
    )
    report["b"] = (b_ok, f"unlabelled corners: {unlabelled}")

    c_ok, c_detail = True, "all vertex words trivial"
    for vid in k.vertices:
        if vid == k.v0:
            continue
        try:
            wv = read_vertex_word(k, vid)
        except ValueError as exc:
            c_ok, c_detail = False, str(exc)
            break
        if not wv.is_identity():
            c_ok, c_detail = False, f"vertex {vid} reads {wv}"
            break
    report["c"] = (c_ok, c_detail)

    if k.e_infinity is None:
        report["d"] = (False, "no distinguished outer face")
    else:
        fo = k.face_map[k.e_infinity]
        d_ok = (
            len(fo.boundary) == 1
            and k.v0 is not None
            and {k.step_start(fo.boundary[0]), k.step_end(fo.boundary[0])} == {k.v0}
        )
        report["d"] = (d_ok, f"outer boundary {fo.boundary}")

    targets = set()
    for w in relators.words():
        r = cyclic_reduce(w)[0]  # the relator's conjugacy class, as in the paper
        targets.add(least_rotation(r.letters))
        targets.add(least_rotation(r.inverse().letters))
    e_ok, e_detail = True, "all face words lie in the relator family"
    for f in k.faces:
        if k.e_infinity is not None and f.id == k.e_infinity:
            continue
        try:
            fw = read_face_word(k, f.id)
        except ValueError as exc:
            e_ok, e_detail = False, str(exc)
            break
        if least_rotation(fw.letters) not in targets:
            e_ok, e_detail = False, f"face {f.id} reads {fw}"
            break
    report["e"] = (e_ok, e_detail)

    f_detail = f"type-1 witness {type1}, type-2 witness {type2}"
    report["f"] = (type1 is None and type2 is None, f_detail)

    g_ok = len(k.vertices) >= 2 and len(k.faces) >= 3
    g_detail = f"{len(k.vertices)} vertices, {len(k.faces)} faces"
    if g_ok and k.e_infinity is not None:
        outer_edges = {e for e, _ in k.face_map[k.e_infinity].boundary}
        g_ok = any(
            f.id != k.e_infinity
            and outer_edges <= {e for e, _ in f.boundary}
            and len(f.boundary) > len(outer_edges)
            for f in k.faces
        )
        g_detail += "; outer boundary properly contained" if g_ok else (
            "; no face properly contains the outer boundary"
        )
    elif k.e_infinity is None:
        g_ok = False
        g_detail += "; no distinguished outer face"
    report["g"] = (g_ok, g_detail)

    return CSLReport(items=report)


# -- construction and random generation -------------------------------------

IDENTITY = Word()


def dipole() -> SphereComplex:
    """One vertex, one loop edge, two faces; the first face is the outer one."""
    f_inf = Face(
        id="f_inf", boundary=(("e_inf", 1),), corners=(("v0", None),), type="infinity"
    )
    f_out = Face(id="f0", boundary=(("e_inf", -1),), corners=(("v0", IDENTITY),))
    return SphereComplex(
        vertices=("v0",),
        edges=(("e_inf", "v0", "v0"),),
        faces=(f_inf, f_out),
        e_infinity="f_inf",
        v0="v0",
    )


def split_edge(k: SphereComplex, edge_id: str, fresh: Iterator[int]) -> SphereComplex:
    """Subdivide an edge with a new midpoint vertex."""
    tail, head = k.edge_map[edge_id]
    n = next(fresh)
    mid, e1, e2 = f"v{n}", f"e{n}a", f"e{n}b"
    edges = tuple(
        e for e in k.edges if e[0] != edge_id
    ) + ((e1, tail, mid), (e2, mid, head))
    faces = []
    for f in k.faces:
        boundary: list[tuple[str, int]] = []
        corners: list[tuple[str, Optional[Word]]] = []
        for i, (eid, d) in enumerate(f.boundary):
            corners.append(f.corners[i])
            if eid != edge_id:
                boundary.append((eid, d))
                continue
            if d > 0:
                boundary.extend([(e1, 1), (e2, 1)])
            else:
                boundary.extend([(e2, -1), (e1, -1)])
            corners.append((mid, IDENTITY))
        faces.append(replace(f, boundary=tuple(boundary), corners=tuple(corners)))
    return replace(k, vertices=k.vertices + (mid,), edges=edges, faces=tuple(faces))


def split_face(
    k: SphereComplex, face_id: str, i: int, j: int, fresh: Iterator[int]
) -> SphereComplex:
    """Split a face along a new edge between corners i < j."""
    f = k.face_map[face_id]
    if not 0 <= i < j < len(f.corners):
        raise ValueError("need corner indices i < j")
    n = next(fresh)
    d_id, f2_id = f"e{n}", f"f{n}"
    u, v = f.corners[i][0], f.corners[j][0]
    f1 = replace(
        f,
        boundary=f.boundary[i:j] + ((d_id, -1),),
        corners=f.corners[i:j] + ((v, IDENTITY),),
    )
    f2 = Face(
        id=f2_id,
        boundary=f.boundary[j:] + f.boundary[:i] + ((d_id, 1),),
        corners=f.corners[j:] + f.corners[:i] + ((u, IDENTITY),),
        type=f.type if f.type != "infinity" else None,
    )
    faces = tuple(f1 if g.id == face_id else g for g in k.faces) + (f2,)
    return replace(k, edges=k.edges + ((d_id, u, v),), faces=faces)


def add_loop(
    k: SphereComplex, face_id: str, corner: int, fresh: Iterator[int]
) -> SphereComplex:
    """Attach a small loop at a corner, cutting off a new one-edge face."""
    f = k.face_map[face_id]
    u = f.corners[corner][0]
    n = next(fresh)
    d_id, new_face = f"e{n}", f"f{n}"
    inner = Face(id=new_face, boundary=((d_id, 1),), corners=((u, IDENTITY),))
    modified = replace(
        f,
        boundary=f.boundary[:corner] + ((d_id, -1),) + f.boundary[corner:],
        corners=f.corners[:corner] + ((u, IDENTITY),) + f.corners[corner:],
    )
    faces = tuple(modified if g.id == face_id else g for g in k.faces) + (inner,)
    return replace(k, edges=k.edges + ((d_id, u, u),), faces=faces)


def generate_random(seed: int, size: int) -> SphereComplex:
    """A pseudo-random valid sphere subdivision, deterministic in ``seed``.

    The outer face keeps a single loop edge at the distinguished vertex, so
    every generated complex also exercises the outer-face machinery.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = random.Random(seed)
    counter = itertools.count(1)
    k = dipole()
    k = add_loop(k, "f0", 0, counter)  # outer neighbour gets a second edge
    for _ in range(size):
        choices = []
        for eid, _, _ in k.edges:
            if eid != "e_inf":
                choices.append(("edge", eid))
        for f in k.faces:
            if f.id == k.e_infinity:
                continue
            choices.append(("loop", f.id))
            if len(f.corners) >= 2:
                choices.append(("face", f.id))
        kind, target = rng.choice(sorted(choices))
        if kind == "edge":
            k = split_edge(k, target, counter)
        elif kind == "loop":
            f = k.face_map[target]
            k = add_loop(k, target, rng.randrange(len(f.corners)), counter)
        else:
            f = k.face_map[target]
            i = rng.randrange(len(f.corners) - 1)
            j = rng.randrange(i + 1, len(f.corners))
            k = split_face(k, target, i, j, counter)
    return k


# -- file format ------------------------------------------------------------

_DIRS = {"+": 1, "-": -1}
_DIRS_BACK = {1: "+", -1: "-"}


def _require_fields(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ComplexFormatError(f"{context}: unknown fields {sorted(unknown)}")


def _corner_label(text: Optional[str]) -> Optional[Word]:
    if text is None:
        return None
    try:
        label = parse_word(text, LABEL_ALPHABET)
    except ValueError as exc:
        raise ComplexFormatError(f"bad corner label {text!r}: {exc}") from exc
    if not label.in_base_group():
        raise ComplexFormatError(f"corner label {text!r} is not a base-group word")
    return label


def complex_from_dict(data: dict) -> SphereComplex:
    if not isinstance(data, dict):
        raise ComplexFormatError("complex document must be a JSON object")
    _require_fields(data, {"vertices", "edges", "faces", "distinguished"}, "complex")
    try:
        vertices = tuple(str(v) for v in data["vertices"])
        edges = []
        for e in data["edges"]:
            _require_fields(e, {"id", "tail", "head"}, "edge")
            edges.append((str(e["id"]), str(e["tail"]), str(e["head"])))
        faces = []
        for f in data["faces"]:
            _require_fields(f, {"id", "type", "boundary", "corners"}, "face")
            boundary = []
            for step in f["boundary"]:
                _require_fields(step, {"edge", "dir"}, "boundary step")
                if step["dir"] not in _DIRS:
                    raise ComplexFormatError(f"bad dir {step['dir']!r}")
                boundary.append((str(step["edge"]), _DIRS[step["dir"]]))
            corners = []
            for c in f["corners"]:
                _require_fields(c, {"vertex", "label"}, "corner")
                corners.append((str(c["vertex"]), _corner_label(c["label"])))
            ftype = f.get("type")
            if ftype is not None and ftype not in FACE_TYPES:
                raise ComplexFormatError(f"bad face type {ftype!r}")
            faces.append(
                Face(
                    id=str(f["id"]),
                    boundary=tuple(boundary),
                    corners=tuple(corners),
                    type=ftype,
                )
            )
        dist = data.get("distinguished") or {}
        if dist:
            _require_fields(dist, {"e_infinity", "v0"}, "distinguished")
        e_infinity, v0 = dist.get("e_infinity"), dist.get("v0")
        if not all(x is None or isinstance(x, str) for x in (e_infinity, v0)):
            raise ComplexFormatError("distinguished ids must be strings or null")
        k = SphereComplex(
            vertices=vertices,
            edges=tuple(edges),
            faces=tuple(faces),
            e_infinity=e_infinity,
            v0=v0,
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ComplexFormatError(f"malformed complex document: {exc}") from exc
    _check_references(k)
    return k


def complex_to_dict(k: SphereComplex) -> dict:
    return {
        "vertices": list(k.vertices),
        "edges": [{"id": e, "tail": t, "head": h} for e, t, h in k.edges],
        "faces": [
            {
                "id": f.id,
                "type": f.type,
                "boundary": [
                    {"edge": e, "dir": _DIRS_BACK[d]} for e, d in f.boundary
                ],
                "corners": [
                    {"vertex": v, "label": None if lbl is None else str(lbl)}
                    for v, lbl in f.corners
                ],
            }
            for f in k.faces
        ],
        "distinguished": {"e_infinity": k.e_infinity, "v0": k.v0},
    }


def load_complex(path: str) -> SphereComplex:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ComplexFormatError(f"bad JSON: {exc}") from exc
    return complex_from_dict(data)


def save_complex(k: SphereComplex, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(complex_to_dict(k), fh, indent=2, sort_keys=True)
        fh.write("\n")
