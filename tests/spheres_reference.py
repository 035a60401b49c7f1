"""The 2-gon chain search and the crash-vertex reading as they stood before
the one-walk chain search and the identity-corner reading.

Kept verbatim as the references that tests compare
``onerelator.detect_type2`` and ``onerelator.crash_vertex_reading`` against:
a depth-first search that copies and re-reduces the whole chain at every
step, recursing once per face, and a reading that re-reduces every window of
every span at every start corner.
"""
from __future__ import annotations

from typing import Optional

from onerelator.spheres import Face, SphereComplex, _vertex_labels
from onerelator.traffic import CrashEvent, VertexReading
from onerelator.words import free_reduce


def detect_type2(k: SphereComplex) -> Optional[tuple[tuple[str, ...], str, str]]:
    """A chain of 2-gons between common vertices whose label product is 1.

    Returns (face chain, vertex a, vertex b) or None.  The product is checked
    at both vertices; a witness is returned if it is trivial at either one.
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
    by_pair: dict[frozenset[str], list[Face]] = {}
    for f in bigons:
        key = frozenset(v for v, _ in f.corners)
        by_pair.setdefault(key, []).append(f)
    for key, group in sorted(by_pair.items(), key=lambda kv: sorted(kv[0])):
        a, b = sorted(key)
        adjacency: dict[str, set[str]] = {f.id: set() for f in group}
        ids = {f.id for f in group}
        for f in group:
            for eid, _ in f.boundary:
                for other, _ in k.incidences.sides[eid]:
                    if other != f.id and other in ids:
                        adjacency[f.id].add(other)

        def extend(chain: list[str]) -> Optional[tuple[tuple[str, ...], str, str]]:
            prod_a = free_reduce([l for fid in chain for l in label[fid][a].letters])
            prod_b = free_reduce([l for fid in chain for l in label[fid][b].letters])
            if prod_a.is_identity() or prod_b.is_identity():
                return (tuple(chain), a, b)
            for nxt in sorted(adjacency[chain[-1]]):
                if nxt not in chain:
                    hit = extend(chain + [nxt])
                    if hit is not None:
                        return hit
            return None

        for f in sorted(ids):
            hit = extend([f])
            if hit is not None:
                return hit
    return None


def crash_vertex_reading(k: SphereComplex, event: CrashEvent) -> VertexReading:
    """Read the corner word at a complete vertex crash and classify it."""
    if not event.complete or event.site[0] != "vertex":
        raise ValueError("reading requires a complete vertex crash")
    labels = _vertex_labels(k, event.site[1])
    word = free_reduce([l for lbl in labels for l in lbl.letters])

    n = len(labels)
    for i in range(n):
        cur, nxt = labels[i], labels[(i + 1) % n]
        if cur.letters and nxt.letters and cur.letters[-1] == (
            nxt.letters[0][0],
            -nxt.letters[0][1],
        ):
            return VertexReading(
                word, "Type1Witness", f"cancellation between corners {i} and {(i + 1) % n}"
            )
    for span in range(1, n):
        for i in range(n):
            prod = free_reduce(
                [l for j in range(span) for l in labels[(i + j) % n].letters]
            )
            if prod.is_identity():
                return VertexReading(
                    word,
                    "Type2Witness",
                    f"trivial product of corners {i}..{(i + span - 1) % n}",
                )
    return VertexReading(
        word, "FreenessViolation", "nontrivial relation read at a full crash"
    )
