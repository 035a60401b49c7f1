"""Sphere subdivisions: validation, word reading, detectors, generation, I/O."""
from __future__ import annotations

import copy
import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from onerelator import (
    ComplexFormatError,
    Face,
    RelatorSet,
    SphereComplex,
    check_csl,
    complex_from_dict,
    complex_to_dict,
    detect_type1,
    detect_type2,
    dipole,
    exponent_sum,
    generate_random,
    load_complex,
    parse_word,
    read_face_word,
    read_vertex_word,
    save_complex,
    split_face,
    validate_sphere,
)
from conftest import (
    ABC,
    IDENT,
    bigon_pencil,
    bigon_sphere,
    mirrored_pair,
    tetrahedron,
    triangle_pair,
    uphill_two_edge,
    w,
)
from spheres_reference import detect_type2 as reference_detect_type2


# -- validation --------------------------------------------------------------


def test_tetrahedron_valid():
    rep = validate_sphere(tetrahedron())
    assert rep.passed and rep.problems == ()


def test_tetrahedron_missing_face_fails():
    k = tetrahedron()
    broken = SphereComplex(k.vertices, k.edges, k.faces[:-1])
    rep = validate_sphere(broken)
    assert not rep.euler and not rep.passed


def test_unknown_ids_rejected():
    loop = (("e", "v", "v"),)

    def one_face(boundary, corners):
        return SphereComplex(("v",), loop, (Face("f", boundary, corners),))

    f = Face("f", (("e", 1),), (("v", None),))
    cases = [
        (SphereComplex(("v",), (("e", "v", "missing"),), ()), "edge e references unknown vertex"),
        (one_face((("nope", 1),), (("v", None),)), "face f references unknown edge nope"),
        (SphereComplex(("v", "v"), (), ()), "duplicate vertex ids"),
        (SphereComplex(("v",), loop * 2, ()), "duplicate edge ids"),
        (SphereComplex(("v",), loop, (f, f)), "duplicate face ids"),
        (one_face((), ()), "face f: empty boundary"),
        (one_face((("e", 2),), (("v", None),)), "face f: bad direction 2"),
        (one_face((("e", 1),), (("w", None),)), "face f references unknown vertex w"),
        (replace(bigon_sphere(), v0="w"), "unknown distinguished vertex"),
    ]
    for k, message in cases:
        with pytest.raises(ComplexFormatError, match=message):
            validate_sphere(k)


def test_edge_pairing_violation_detected():
    """Both faces run e1 forwards at u, so the link at u cannot be walked."""
    f1 = Face("f1", (("e1", 1),), (("u", None),))
    f2 = Face("f2", (("e1", 1),), (("u", None),))
    k = SphereComplex(("u",), (("e1", "u", "u"),), (f1, f2))
    rep = validate_sphere(k)
    assert not rep.edge_pairing
    assert not rep.links and not rep.passed
    with pytest.raises(ValueError, match="edge-end slots do not match up"):
        read_vertex_word(k, "u")


def test_corner_off_its_vertex_detected():
    """f1's corners are swapped, so each sits at the wrong end of its edges."""
    k = bigon_sphere()
    f1 = replace(k.faces[0], corners=tuple(reversed(k.faces[0].corners)))
    rep = validate_sphere(replace(k, faces=(f1, k.faces[1])))
    assert rep.edge_pairing and not rep.links and not rep.passed
    assert "face f1: corner 0 off its boundary vertex" in rep.problems


def test_random_complexes_valid():
    for seed in range(50):
        k = generate_random(seed, 5)
        rep = validate_sphere(k)
        assert rep.passed, (seed, rep.problems)
        assert len(k.vertices) - len(k.edges) + len(k.faces) == 2


def test_generate_random_deterministic():
    assert complex_to_dict(generate_random(7, 4)) == complex_to_dict(
        generate_random(7, 4)
    )
    with pytest.raises(ValueError):
        generate_random(0, 0)


# -- reading -----------------------------------------------------------------


def test_face_word_triangle():
    k = triangle_pair()
    assert str(read_face_word(k, "F")) == "taTbTc"


def test_face_word_rotation():
    k = triangle_pair()
    base = read_face_word(k, "F").letters
    rotated = read_face_word(k, "F", 1).letters
    n = len(base)
    assert any(rotated == base[i:] + base[:i] for i in range(n))


def test_face_word_two_gon():
    # a 2-gon reading the conjugation relator pattern t^-1 h t (h')^-1
    left = Face("L", (("d1", 1), ("d2", -1)), (("p", w("b")), ("q", w("B"))))
    right = Face("R", (("d2", 1), ("d1", -1)), (("p", IDENT), ("q", IDENT)))
    k = SphereComplex(
        ("p", "q"), (("d1", "p", "q"), ("d2", "p", "q")), (left, right)
    )
    assert validate_sphere(k).passed
    word = read_face_word(k, "L")
    rel = RelatorSet(w0=w("at"), h_pairs=((w("b"), w("b")),)).words()[1]
    letters = word.letters
    assert any(
        letters[i:] + letters[:i] in (rel.letters, rel.inverse().letters)
        for i in range(len(letters))
    )


def test_vertex_word_cancelling_labels():
    k = triangle_pair(front=("a", "b", "c"), back=("B", "a", "c"))
    # at Q the two corner labels are b and B
    assert read_vertex_word(k, "Q").is_identity()


def test_vertex_word_refuses_link_of_two_cycles():
    """A wedge of two dipoles: the link at v is two cycles, a A and b b."""
    faces = (
        Face("f1", (("e1", 1),), (("v", w("a")),)),
        Face("f2", (("e1", -1),), (("v", w("A")),)),
        Face("f3", (("e2", 1),), (("v", w("b")),)),
        Face("f4", (("e2", -1),), (("v", w("b")),)),
    )
    k = SphereComplex(("v",), (("e1", "v", "v"), ("e2", "v", "v")), faces)
    message = "vertex v: link is not a single cycle"
    assert message in validate_sphere(k).problems
    with pytest.raises(ValueError, match=message):
        read_vertex_word(k, "v")


def face_scan(k):
    """Sides per edge and slots per vertex, by scanning every face for each."""

    def scan(target, part):
        return tuple(
            (f.id, i)
            for f in k.faces
            for i, (x, _) in enumerate(getattr(f, part))
            if x == target
        )

    return (
        {e: scan(e, "boundary") for e, _, _ in k.edges},
        {v: scan(v, "corners") for v in k.vertices},
    )


def test_incidences_match_face_scan():
    hand_built = [
        triangle_pair(),
        mirrored_pair(),
        tetrahedron(),
        bigon_pencil(("a", "b", "")),
        bigon_sphere(),
        uphill_two_edge(),
    ]
    randoms = [generate_random(s, size) for s in range(20) for size in range(1, 9)]
    for k in hand_built + randoms:
        sides, slots = face_scan(k)
        assert k.incidences == (sides, slots)
        assert list(k.incidences.sides) == list(sides)
        assert list(k.incidences.slots) == list(slots)
        for e, _, _ in k.edges:
            assert k.edge_incidences(e) == list(sides[e])
    # a vertex without corners keeps an empty entry and fails its link
    k = tetrahedron()
    lonely = SphereComplex(k.vertices + ("5",), k.edges, k.faces)
    assert lonely.incidences.slots["5"] == ()
    assert "vertex 5: no incident corners" in validate_sphere(lonely).problems
    with pytest.raises(ValueError, match="vertex 5: no incident corners"):
        read_vertex_word(lonely, "5")


def test_vertex_word_v0_undefined():
    k = generate_random(0, 2)
    with pytest.raises(ValueError):
        read_vertex_word(k, k.v0)


def test_unlabelled_face_word_errors():
    k = tetrahedron(labelled=False)
    with pytest.raises(ValueError):
        read_face_word(k, "f1")
    with pytest.raises(ValueError, match="the outer face has no boundary word"):
        read_face_word(uphill_two_edge(), "A")


# -- detectors ---------------------------------------------------------------


def test_type1_witness_on_mirrored_pair():
    k = mirrored_pair()
    assert detect_type1(k) == ("F", "G", "e1")


def test_type1_none_without_mirror():
    k = triangle_pair(front=("a", "b", "c"), back=("a", "a", "a"))
    assert detect_type1(k) is None


def test_type2_witness_on_trivial_chain():
    k = bigon_pencil(("a", "b", "BA"))
    assert detect_type2(k) == (("f0", "f1", "f2"), "u", "v")
    # the walk towards f1 finds nothing; the walk towards f2 hits at once
    assert detect_type2(bigon_pencil(("a", "b", "A"))) == (("f0", "f2"), "u", "v")


def test_type2_none_on_free_products():
    k = bigon_pencil(("a", "b"))
    assert detect_type2(k) is None


def test_type2_none_without_two_gons():
    assert detect_type2(triangle_pair()) is None


def test_type2_refuses_a_2gon_with_three_neighbours():
    """A copy of f0 makes three 2-gons on e0 and on e1, so edge pairing fails
    and f0 has three 2-gon neighbours: no path or cycle to walk."""
    k = bigon_pencil(("a", "b", "c"))
    k = replace(k, faces=k.faces + (replace(k.faces[0], id="g"),))
    assert not validate_sphere(k).edge_pairing
    with pytest.raises(ValueError, match="2-gon f0 has 3 2-gon neighbours"):
        detect_type2(k)


# -- the 2-gon walk against the recursive search ------------------------------

LETTERS = ("a", "A", "b", "B")


def assert_type2_matches_reference(complexes) -> int:
    """Equal witnesses on every complex; returns how many have one."""
    hits = 0
    for k in complexes:
        hit = detect_type2(k)
        assert hit == reference_detect_type2(k)
        hits += hit is not None
    return hits


def test_type2_matches_reference_on_every_small_pencil():
    """Every pencil of 1-3 faces with one-letter labels at both vertices."""
    pencils = [
        bigon_pencil(*zip(*pairs))
        for n in (1, 2, 3)
        for pairs in itertools.product(itertools.product(LETTERS, repeat=2), repeat=n)
    ]
    assert len(pencils) == 4368
    assert 0 < assert_type2_matches_reference(pencils) < len(pencils)


def test_type2_matches_reference_on_random_pencils():
    rng = random.Random(7)

    def label():
        return "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 3)))

    pencils = []
    for _ in range(2000):
        n = rng.randint(4, 9)
        labels_u, labels_v = [label() for _ in range(n)], [label() for _ in range(n)]
        pencils.append(bigon_pencil(labels_u, labels_v))
    assert 0 < assert_type2_matches_reference(pencils) < len(pencils)


def test_type2_matches_reference_on_random_complexes():
    """Generated spheres whose corners get seeded random labels."""
    rng = random.Random(11)
    pool = ("", "a", "A", "b", "B", "ab", "BA")
    complexes = []
    for seed in range(800):
        k = generate_random(seed, rng.randint(2, 14))
        faces = []
        for f in k.faces:
            corners = tuple(
                (v, None if lbl is None else w(rng.choice(pool))) for v, lbl in f.corners
            )
            faces.append(replace(f, corners=corners))
        complexes.append(replace(k, faces=tuple(faces)))
    assert 0 < assert_type2_matches_reference(complexes) < len(complexes)


# -- the subdivision-property report ----------------------------------------


def relators_for(word_text):
    return RelatorSet(w0=parse_word(word_text, ABC))


def csl(k, word_text):
    """The CSL report from the validation and witnesses that ``k`` gives."""
    validation, type1, type2 = validate_sphere(k), detect_type1(k), detect_type2(k)
    return check_csl(k, relators_for(word_text), validation, type1, type2)


def test_csl_unlabelled_tetrahedron_fails_b():
    rep = csl(tetrahedron(labelled=False), "at")
    assert not rep.items["b"][0]
    assert not rep.passed


def test_csl_type1_flagged_under_f():
    k = mirrored_pair()
    rep = csl(k, "taTbTc")
    assert not rep.items["f"][0]
    assert "type-1" in rep.items["f"][1]


def test_csl_face_words_checked_under_e():
    k = triangle_pair(front=("a", "b", "c"), back=("a", "b", "c"))
    rep = csl(k, "taTbTc")
    # the back face reads a different word, so (e) must fail
    assert rep.items["e"] == (False, "face G reads tatbTc")


def test_csl_e_reads_the_relators_conjugacy_class():
    """(e) asks only for the relator up to conjugacy, as in the paper: a
    conjugate of w0 gives the same verdict, and the faces are read as they
    are."""
    k = triangle_pair()
    for word in ("taTbTc", "ataTbTcA"):
        assert csl(k, word).items["e"] == (False, "face G reads t")
    # F reads taTbTc and G its inverse, so every conjugate of w0 or of its
    # inverse passes
    for word in ("taTbTc", "ataTbTcA", "aCtBtATA"):
        assert csl(mirrored_pair(), word).items["e"] == (
            True,
            "all face words lie in the relator family",
        )


def test_csl_requires_valid_sphere():
    k = tetrahedron(labelled=True)
    broken = SphereComplex(k.vertices, k.edges, k.faces[:-1])
    with pytest.raises(ValueError, match="not a valid sphere subdivision"):
        check_csl(broken, relators_for("at"), validate_sphere(broken), None, None)


def test_csl_g_needs_a_face_around_the_outer_boundary():
    # neither inner bigon holds both outer edges
    rep = csl(uphill_two_edge(), "at")
    assert rep.items["g"] == (
        False,
        "2 vertices, 3 faces; no face properly contains the outer boundary",
    )


def test_csl_edge_exponent_balance():
    """Each edge contributes one +1 and one -1 across all face words."""
    k = triangle_pair()
    total = 0
    for fid in ("F", "G"):
        total += exponent_sum(read_face_word(k, fid))
    assert total == 0


# -- generation grammar ------------------------------------------------------


def test_dipole_shape():
    k = dipole()
    rep = validate_sphere(k)
    assert rep.passed
    assert k.e_infinity == "f_inf" and k.v0 == "v0"
    assert len(k.face_map["f_inf"].boundary) == 1


def test_split_face_needs_increasing_corners():
    k = triangle_pair()
    for i, j in ((1, 1), (2, 0), (0, 3)):
        with pytest.raises(ValueError, match="need corner indices i < j"):
            split_face(k, "F", i, j, itertools.count())


def test_generated_outer_face_untouched():
    for seed in (0, 3, 9):
        k = generate_random(seed, 6)
        outer = k.face_map[k.e_infinity]
        assert len(outer.boundary) == 1
        assert outer.boundary[0][0] == "e_inf"
        assert outer.corners[0] == (k.v0, None)


# -- file format -------------------------------------------------------------


def test_round_trip(tmp_path):
    k = generate_random(2, 4)
    path = tmp_path / "k.json"
    save_complex(k, str(path))
    assert load_complex(str(path)) == k


def test_unknown_fields_rejected():
    d = complex_to_dict(generate_random(0, 2))
    for mutate in (
        lambda x: x.update(extra=1),
        lambda x: x["edges"][0].update(color="red"),
        lambda x: x["faces"][0].update(area=2),
        lambda x: x["faces"][0]["boundary"][0].update(weight=1),
        lambda x: x["faces"][0]["corners"][0].update(angle=90),
        lambda x: x["distinguished"].update(other="y"),
    ):
        bad = copy.deepcopy(d)
        mutate(bad)
        with pytest.raises(ComplexFormatError):
            complex_from_dict(bad)


def test_bad_values_rejected():
    d = complex_to_dict(generate_random(0, 2))
    bad = copy.deepcopy(d)
    bad["faces"][0]["boundary"][0]["dir"] = "x"
    with pytest.raises(ComplexFormatError):
        complex_from_dict(bad)
    bad = copy.deepcopy(d)
    bad["faces"][0]["type"] = "VII"
    with pytest.raises(ComplexFormatError):
        complex_from_dict(bad)
    # a document that is not a JSON object
    for doc in ([{}], None, 5):
        with pytest.raises(ComplexFormatError):
            complex_from_dict(doc)
    bad = copy.deepcopy(d)
    bad["distinguished"] = ["v0"]
    with pytest.raises(ComplexFormatError):
        complex_from_dict(bad)
    # a distinguished id is a string or null
    for field in ("e_infinity", "v0"):
        for value in ([], ["v0"], {}, {"id": "v0"}, 7, True):
            bad = copy.deepcopy(d)
            bad["distinguished"][field] = value
            with pytest.raises(ComplexFormatError):
                complex_from_dict(bad)
    bad = copy.deepcopy(d)
    face = bad["faces"][0]
    face["corners"].append(dict(face["corners"][0]))
    with pytest.raises(ComplexFormatError, match="corner/boundary length mismatch"):
        complex_from_dict(bad)
    # corner labels must parse, and as words of the base group
    for label in ("s", "a^99999", "t", "aT"):
        bad = copy.deepcopy(d)
        corner = next(
            c for f in bad["faces"] for c in f["corners"] if c["label"] is not None
        )
        corner["label"] = label
        with pytest.raises(ComplexFormatError, match="label"):
            complex_from_dict(bad)


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    for content in (
        b"{not json",
        b'{"vertices": ["\xff"]}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
    ):
        path.write_bytes(content)
        with pytest.raises(ComplexFormatError):
            load_complex(str(path))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def one_field_replaced(draw):
    """A valid document with one field, at a drawn path, set to a drawn value."""
    doc = complex_to_dict(generate_random(0, 3))
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            break
        node = child
    node[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=100, deadline=None)
@given(one_field_replaced())
def test_one_bad_field_is_a_format_error(doc):
    try:
        complex_from_dict(doc)
    except ComplexFormatError:
        pass


def test_golden_file_matches_generator():
    with open("tests/data/random_seed0_size3.json") as fh:
        frozen = json.load(fh)
    assert complex_to_dict(generate_random(0, 3)) == frozen
    with open("tests/data/mirrored_pair.json") as fh:
        frozen = json.load(fh)
    assert complex_to_dict(mirrored_pair()) == frozen
