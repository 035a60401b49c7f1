"""Shared hand-built complexes and word helpers for the test suite."""
from __future__ import annotations

import os
from pathlib import Path

import onerelator
from onerelator import Face, SphereComplex, Word, free_alphabet, parse_word

ABC = free_alphabet(3)
AB = free_alphabet(2)
IDENT = Word()


def subprocess_env() -> dict[str, str]:
    """The environment for a Python subprocess that imports the package under
    test: ``PYTHONPATH`` leads with the directory that holds ``onerelator``,
    which may be on ``sys.path`` only."""
    src = str(Path(onerelator.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def w(text: str, alphabet=ABC) -> Word:
    return parse_word(text, alphabet)


def triangle_pair(
    front=("a", "b", "c"), back=(None, None, None)
) -> SphereComplex:
    """Two triangles glued along three edges; the front face reads t a t' b t' c.

    Back-face corner labels default to the identity; pass strings to override.
    """
    back_labels = tuple(IDENT if lbl is None else w(lbl) for lbl in back)
    f = Face(
        "F",
        (("e1", -1), ("e2", -1), ("e3", 1)),
        (("P", w(front[0])), ("Q", w(front[1])), ("R", w(front[2]))),
    )
    g = Face(
        "G",
        (("e1", 1), ("e3", -1), ("e2", 1)),
        (("Q", back_labels[0]), ("P", back_labels[1]), ("R", back_labels[2])),
    )
    return SphereComplex(
        vertices=("P", "Q", "R"),
        edges=(("e1", "Q", "P"), ("e2", "R", "Q"), ("e3", "R", "P")),
        faces=(f, g),
    )


def mirrored_pair() -> SphereComplex:
    """Two faces reading mutually inverse words across their shared edges."""
    return triangle_pair(front=("a", "b", "c"), back=("B", "A", "C"))


def tetrahedron(labelled: bool = False) -> SphereComplex:
    """Boundary complex of the tetrahedron with coherent face orientations."""
    lbl = IDENT if labelled else None
    edges = (
        ("e12", "1", "2"),
        ("e23", "2", "3"),
        ("e13", "1", "3"),
        ("e34", "3", "4"),
        ("e14", "1", "4"),
        ("e24", "2", "4"),
    )

    def face(fid, steps, verts):
        return Face(fid, steps, tuple((v, lbl) for v in verts))

    faces = (
        face("f1", (("e12", 1), ("e23", 1), ("e13", -1)), ("1", "2", "3")),
        face("f2", (("e13", 1), ("e34", 1), ("e14", -1)), ("1", "3", "4")),
        face("f3", (("e14", 1), ("e24", -1), ("e12", -1)), ("1", "4", "2")),
        face("f4", (("e24", 1), ("e34", -1), ("e23", -1)), ("2", "4", "3")),
    )
    return SphereComplex(vertices=("1", "2", "3", "4"), edges=edges, faces=faces)


def bigon_pencil(labels_u, labels_v=None) -> SphereComplex:
    """A pencil of 2-gons between two vertices u and v, one face per edge gap."""
    if labels_v is None:
        labels_v = labels_u
    n = len(labels_u)
    edges = tuple((f"e{i}", "u", "v") for i in range(n))
    faces = tuple(
        Face(
            f"f{i}",
            ((f"e{i}", 1), (f"e{(i + 1) % n}", -1)),
            (("u", w(labels_u[i])), ("v", w(labels_v[i]))),
        )
        for i in range(n)
    )
    return SphereComplex(vertices=("u", "v"), edges=edges, faces=faces)


def bigon_sphere() -> SphereComplex:
    """Two bigons glued along both edges: 2 vertices, 2 edges, 2 faces."""
    f1 = Face("f1", (("e1", 1), ("e2", -1)), (("u", IDENT), ("v", IDENT)))
    f2 = Face("f2", (("e2", 1), ("e1", -1)), (("u", IDENT), ("v", IDENT)))
    return SphereComplex(
        vertices=("u", "v"),
        edges=(("e1", "u", "v"), ("e2", "u", "v")),
        faces=(f1, f2),
    )


def uphill_two_edge() -> SphereComplex:
    """Outer face with two coherently oriented edges, plus two inner bigons."""
    outer = Face(
        "A", (("E0", 1), ("E1", 1)), (("v0", None), ("x", IDENT)), type="infinity"
    )
    f1 = Face("F1", (("E0", -1), ("e2", 1)), (("x", IDENT), ("v0", IDENT)))
    f2 = Face("F2", (("E1", -1), ("e2", -1)), (("v0", IDENT), ("x", IDENT)))
    return SphereComplex(
        vertices=("v0", "x"),
        edges=(("E0", "v0", "x"), ("E1", "x", "v0"), ("e2", "v0", "x")),
        faces=(outer, f1, f2),
        e_infinity="A",
        v0="v0",
    )
