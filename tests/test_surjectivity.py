"""Verdicts, collapse witnesses, closure search and finite quotients."""
from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from onerelator import (
    Presentation,
    QuotientCertificate,
    STABLE,
    Word,
    amenable_shape,
    analyze,
    collapse_isomorphism,
    cyclic_reduce,
    exponent_sum,
    free_alphabet,
    free_reduce,
    is_conjugate_to_gt,
    normal_closure_search,
    one_relator_presentation,
    parse_word,
    quotient_certificate,
    t_shape,
    verify_certificate,
)
from onerelator import surjectivity
from onerelator.surjectivity import (
    MAX_DEGREE,
    _class_representatives,
    _quotients,
    _reduced_words,
    _word_image,
)
from onerelator.words import substitute, word_key
from conftest import AB, w
import surjectivity_reference as reference


def wab(text):
    return w(text, AB)


# -- presentations and the gt collapse ---------------------------------------


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(generators=("a", "t"), relators=())
    with pytest.raises(ValueError):
        Presentation(generators=("a",), relators=(Word(),))
    with pytest.raises(ValueError):
        Presentation(generators=("a",), relators=(wab("Tat"),))
    with pytest.raises(ValueError, match=r"letters \['b'\] that are not generators"):
        Presentation(generators=("a",), relators=(wab("bTbtt"),))
    pres = one_relator_presentation(wab("AatbA"), 2)
    assert pres.relators[0] == wab("bAt")  # cyclically reduced on entry


def test_collapse_examples():
    c = collapse_isomorphism(wab("at"))
    assert (c.g, c.epsilon, c.t_image) == (wab("a"), 1, wab("A"))
    assert substitute(wab("at"), STABLE, c.t_image).is_identity()
    c2 = collapse_isomorphism(wab("abTA"))
    assert (c2.g, c2.epsilon, c2.t_image) == (wab("b"), -1, wab("b"))
    with pytest.raises(ValueError):
        collapse_isomorphism(wab("atbT"))


def test_collapse_random_conjugates():
    rng = random.Random(5)
    pool = [(s, e) for s in ("a", "b", STABLE) for e in (1, -1)]
    for _ in range(50):
        g_raw = [rng.choice([("a", 1), ("a", -1), ("b", 1), ("b", -1)]) for _ in range(rng.randint(0, 3))]
        g = free_reduce(g_raw)
        u = free_reduce([rng.choice(pool) for _ in range(rng.randint(0, 4))])
        eps = rng.choice([1, -1])
        word = u * g * Word(((STABLE, eps),)) * u.inverse()
        c = collapse_isomorphism(word)
        assert c.epsilon == eps
        assert substitute(word, STABLE, c.t_image).is_identity()


# -- verdicts ----------------------------------------------------------------


def test_analyze_exponent_sum():
    v = analyze(wab("att"), 2)
    assert (v.status, v.reason) == ("NotSurjective", "ExponentSum")
    assert v.evidence["exponent_sum"] == 2
    assert analyze(wab("ab"), 2).reason == "ExponentSum"


def test_analyze_gt_collapse():
    v = analyze(wab("bat B"), 2)
    assert (v.status, v.reason) == ("Surjective", "GtCollapse")
    assert v.evidence["t_image"] == "A"


def test_analyze_main_theorem():
    v = analyze(w("bTatct"), 3)
    assert (v.status, v.reason) == ("NotSurjective", "MainTheorem")
    assert v.evidence["t_shape"] == [-1, 1, 1]
    assert v.evidence["authority"] == "theorem"


def test_analyze_rejects_identity():
    with pytest.raises(ValueError):
        analyze(Word(), 2)


def test_amenable_shapes():
    assert amenable_shape((1,)) is amenable_shape((-1,)) is True
    assert amenable_shape((-1, 1, 1)) is True
    assert amenable_shape((-1, 1, -1, 1, 1)) is True
    assert amenable_shape((1, 1)) is False


# -- bounded normal-closure search -------------------------------------------


def product_of(hit, base):
    """Recompute the element from the recorded factors."""
    out = Word()
    for u, sign in hit.factors:
        out = out * (u * (base if sign > 0 else base.inverse()) * u.inverse())
    return out


def test_search_finds_base_word():
    base = wab("at")
    hit = normal_closure_search(base, (1,), 2, 2)
    assert hit is not None
    assert t_shape(hit.element) == (1,)
    assert product_of(hit, base) == hit.element
    assert hit.factors == ((Word(), 1),)


def test_search_inverse_target():
    base = wab("at")
    hit = normal_closure_search(base, (-1,), 2, 2)
    assert hit is not None and t_shape(hit.element) == (-1,)
    assert product_of(hit, base) == hit.element


def test_search_deterministic():
    base = wab("bta")
    h1 = normal_closure_search(base, (1,), 2, 2)
    h2 = normal_closure_search(base, (1,), 2, 2)
    assert h1 == h2 and h1 is not h2


def test_search_exhausts_to_none():
    """No bounded conjugate product of a t t a t a t^-1 has shape (+1)."""
    base = wab("atataT")
    assert normal_closure_search(base, (1,), 3, 3) is None


def test_search_trivial_relator():
    """Conjugates of the identity are trivial, so only the empty shape is hit."""
    hit = normal_closure_search(Word(), (), 1, 1, alphabet=AB)
    assert hit is not None and hit.element == Word()
    assert normal_closure_search(Word(), (1,), 1, 2, alphabet=AB) is None


def test_conjugators_by_length_then_word_key():
    """The closure search's conjugators are every reduced word, sorted by
    length, then ``word_key``."""
    symbols = ["a", "b", STABLE]
    pool = [(s, e) for s in symbols for e in (1, -1)]
    every = [
        combo
        for n in range(6)
        for combo in itertools.product(pool, repeat=n)
        if len(free_reduce(combo)) == n
    ]
    expected = sorted(every, key=lambda u: (len(u), word_key(u)))
    assert [u.letters for u in _reduced_words(symbols, 5)] == expected


def test_search_bound_validation():
    with pytest.raises(ValueError):
        normal_closure_search(wab("at"), (1,), 0, 2)
    with pytest.raises(ValueError):
        normal_closure_search(wab("at"), (1,), 2, 0)


@pytest.mark.parametrize(
    "text,target",
    [
        ("at", (1,)),
        ("at", (2,)),
        ("at", (1, 1)),
        ("bAt", (1,)),
        ("bAt", (-1,)),
        ("tBB", (2,)),
        ("bAAT", (2,)),
        ("abtAB", (1, -1, 1)),
        ("t", (2,)),
        ("T", (2,)),
    ],
)
def test_search_matches_naive_oracle(text, target):
    base = wab(text)
    got = normal_closure_search(base, target, 2, 2)
    assert got == reference.normal_closure_search(base, target, 2, 2)
    if got is not None:
        assert t_shape(got.element) == tuple(target)
        assert product_of(got, base) == got.element


def all_cyclically_reduced_with_t(max_len):
    """Every cyclically reduced word over a, b, t of length <= max_len with a t."""
    pool = [(s, e) for s in ("a", "b", STABLE) for e in (1, -1)]
    out = []
    for n in range(1, max_len + 1):
        for combo in itertools.product(pool, repeat=n):
            reduced = len(free_reduce(combo)) == n
            cyclic = n == 1 or combo[0] != (combo[-1][0], -combo[-1][1])
            if reduced and cyclic and any(sym == STABLE for sym, _ in combo):
                out.append(Word(combo))
    return out


def test_search_matches_reference_exhaustive():
    """Hits are the brute force's first hit, element and factors, or both None."""
    words = all_cyclically_reduced_with_t(4)
    assert len(words) == 664
    hits = 0
    for word in words:
        for target in ((1,), (-1,), (1, 1), (2,), (1, -1, 1)):
            got = normal_closure_search(word, target, 1, 2)
            expect = reference.normal_closure_search(word, target, 1, 2)
            assert got == expect, (word, target)
            hits += got is not None
    assert hits == 1680


def test_search_matches_reference_sampled():
    rng = random.Random(6)
    words = all_cyclically_reduced_with_t(4)
    targets = ((1,), (-1,), (1, 1), (2,), (1, -1, 1), (-1, 1, 1))
    for conj_len, products, count in ((2, 2, 8), (1, 3, 12)):
        for word in rng.sample(words, count):
            for target in targets:
                case = (word, target, conj_len, products)
                got = normal_closure_search(*case)
                assert got == reference.normal_closure_search(*case), case


# -- finite permutation quotients --------------------------------------------


def test_certificate_for_nonsurjective_relator():
    """a t^-1 a t t kills no quotient shortcut: t escapes <a> in degree 3."""
    pres = one_relator_presentation(parse_word("aTatt", free_alphabet(1)), 1)
    cert = quotient_certificate(pres, 4)
    assert cert is not None and cert.degree == 3
    assert verify_certificate(pres, cert)
    # the base image subgroup misses t's image by construction
    assert sorted(cert.images) == ["a", STABLE]


def test_no_certificate_for_gt_relator():
    pres = one_relator_presentation(parse_word("at", free_alphabet(1)), 1)
    assert quotient_certificate(pres, 4) is None


def test_verify_rejects_tampering():
    pres = one_relator_presentation(parse_word("aTatt", free_alphabet(1)), 1)
    cert = quotient_certificate(pres, 4)
    n = cert.degree
    ident = tuple(range(n))
    in_subgroup = QuotientCertificate(
        degree=n,
        images={**cert.images, STABLE: cert.images["a"]},
        witness=cert.witness,
    )
    assert not verify_certificate(pres, in_subgroup)
    not_a_perm = QuotientCertificate(
        degree=n, images={**cert.images, "a": (0,) * n}, witness=cert.witness
    )
    assert not verify_certificate(pres, not_a_perm)
    relator_broken = QuotientCertificate(
        degree=4,
        images={"a": (1, 0, 2, 3), STABLE: (0, 1, 3, 2)},
        witness="",
    )
    assert not verify_certificate(pres, relator_broken)
    # every generator and t need an image, and nothing else may have one
    rank2 = one_relator_presentation(wab("aTatt"), 2)
    cert2 = quotient_certificate(rank2, 4)
    assert verify_certificate(rank2, cert2)
    assert cert2.images["b"] == tuple(range(cert2.degree))
    no_b = {g: p for g, p in cert2.images.items() if g != "b"}
    assert not verify_certificate(rank2, QuotientCertificate(cert2.degree, no_b, ""))
    extra = {**cert2.images, "z": tuple(range(cert2.degree))}
    assert not verify_certificate(rank2, QuotientCertificate(cert2.degree, extra, ""))


def test_degree_cap():
    pres = one_relator_presentation(parse_word("at", free_alphabet(1)), 1)
    with pytest.raises(ValueError):
        quotient_certificate(pres, 9)


def test_degree_floor():
    pres = one_relator_presentation(parse_word("aTatt", free_alphabet(1)), 1)
    assert quotient_certificate(pres, 3) is not None
    for degree in (0, -2):
        with pytest.raises(ValueError):
            quotient_certificate(pres, degree)


def test_single_t_relator_has_no_certificate_without_a_search(monkeypatch):
    def refuse(*_):
        raise AssertionError("a presentation with a single-t relator was searched")

    monkeypatch.setattr(surjectivity, "_in_subgroup", refuse)
    gt_words = [
        word
        for word in cyclically_reduced_words(["a", "b", STABLE], 5)
        if is_conjugate_to_gt(word) is not None
    ]
    assert gt_words
    for word in gt_words:
        assert analyze(word, 2).reason == "GtCollapse"
        assert quotient_certificate(one_relator_presentation(word, 2), 5) is None
    # the gt relator need not come first
    second = Presentation(generators=("a", "b"), relators=(wab("aa"), wab("abbT")))
    assert quotient_certificate(second, 5) is None
    with pytest.raises(ValueError):
        quotient_certificate(one_relator_presentation(wab("abAt"), 2), 9)


# -- the quotient search against its reference ---------------------------------


def cyclically_reduced_words(symbols, max_len):
    """The nonempty words of length <= max_len that ``cyclic_reduce`` leaves
    unchanged, sorted: the cyclically reduced words in the paper's sense,
    which ``Presentation`` accepts.

    Over ``a, b, t`` up to length 5 that is 1,422 words.  The other 2,496
    words of the 3,918 that are cyclically reduced in the free group are
    rotations with g_n != 1, or with g_0 = 1 and n > 1, which the paper's
    definition rules out and ``Presentation`` refuses.
    """
    pool = [(s, e) for s in symbols for e in (1, -1)]
    found = set()
    for n in range(1, max_len + 1):
        for combo in itertools.product(pool, repeat=n):
            word = free_reduce(combo)
            if len(word) == n and cyclic_reduce(word)[0] == word:
                found.add(word.letters)
    return [Word(letters) for letters in sorted(found)]


def assert_quotients_match_reference(pres, degree):
    """Same quotients, each once, and the same certificate as the brute force
    over the generators the relators use, each other generator added at the
    identity; none with a gt relator."""
    symbols = {sym for r in pres.relators for sym, _ in r.letters}
    gens = tuple(g for g in pres.generators if g in symbols)
    used = Presentation(gens, pres.relators)

    def with_unused(n, images):
        return {**dict.fromkeys(pres.generators, tuple(range(n))), **images}

    distinct = {}
    for n, images in reference._quotients(used, degree):
        distinct.setdefault((n, tuple(sorted(images.items()))), (n, images))
    expected = [(n, with_unused(n, images)) for n, images in distinct.values()]
    assert list(_quotients(pres, degree)) == expected
    cert = quotient_certificate(pres, degree)
    ref = reference.quotient_certificate(used, degree)
    if ref is not None:
        images = with_unused(ref.degree, ref.images)
        ref = QuotientCertificate(ref.degree, images, ref.witness)
    assert cert == ref
    if any(is_conjugate_to_gt(r) is not None for r in pres.relators):
        assert cert is None


def test_class_representatives_match_reference():
    """The library's representatives equal the oracle's, order included: one
    per partition of n, p(n) of them."""
    partitions = [1, 2, 3, 5, 7, 11, 15, 22]  # p(n) for n = 1, 2, ...
    for n in range(1, MAX_DEGREE + 1):
        reps = reference._class_representatives(n)
        assert len(reps) == partitions[n - 1]
        assert _class_representatives(n) == reps


def test_quotients_match_reference_exhaustive():
    words = cyclically_reduced_words(["a", "b", STABLE], 5)
    assert len(words) == 1422
    for word in words:
        assert_quotients_match_reference(one_relator_presentation(word, 2), 3)


def test_quotients_match_reference_sampled():
    rng = random.Random(11)
    words = cyclically_reduced_words(["a", "b", STABLE], 5)
    for word in rng.sample(words, 12):
        assert_quotients_match_reference(one_relator_presentation(word, 2), 4)
    for text in ("abT", "cTab", "atbtcT", "ct"):
        assert_quotients_match_reference(one_relator_presentation(w(text), 3), 3)


def test_certificate_degrees_match_the_full_brute_force():
    """Fixing unused generators at the identity finds a certificate at
    exactly the degrees where the brute force over every generator does."""
    words = [
        word
        for word in cyclically_reduced_words(["a", "b", STABLE], 6)
        if exponent_sum(word) == 1
        and is_conjugate_to_gt(word) is None
        and len({sym for sym, _ in word.letters} - {STABLE}) == 1
    ]
    assert len(words) == 96
    # up to degree 4, the 16 relators that need degree 5 have none
    runs = ((5, {3: 64, 4: 16, 5: 16}), (4, {3: 64, 4: 16, None: 16}))
    for max_degree, degrees in runs:
        found = Counter()
        for word in words:
            pres = one_relator_presentation(word, 2)
            cert = quotient_certificate(pres, max_degree)
            expect = reference.quotient_certificate(pres, max_degree)
            degree = cert and cert.degree
            assert degree == (expect and expect.degree), word
            assert cert is None or verify_certificate(pres, cert)
            found[degree] += 1
        assert found == degrees


def assert_every_quotient_sends_t_to(pres, t_word, degree):
    """Every quotient sends t to the image of ``t_word``."""
    quotients = list(_quotients(pres, degree))
    assert quotients, "some quotient must be checked"
    for n, images in quotients:
        assert images[STABLE] == _word_image(t_word, images, n)


def test_every_quotient_sends_t_to_the_gt_solution_of_a_later_relator():
    pres = Presentation(generators=("a", "b"), relators=(wab("atbt"), wab("abT")))
    # abT = g t^-1 with g = ab, so t -> ab
    assert is_conjugate_to_gt(wab("atbt")) is None
    assert is_conjugate_to_gt(wab("abT")) == (wab("ab"), -1)
    assert_every_quotient_sends_t_to(pres, wab("ab"), 3)
    assert_quotients_match_reference(pres, 4)
    no_t_first = Presentation(generators=("a", "b"), relators=(wab("aa"), wab("abbT")))
    assert is_conjugate_to_gt(wab("abbT")) == (wab("abb"), -1)
    assert_every_quotient_sends_t_to(no_t_first, wab("abb"), 3)
    assert_quotients_match_reference(no_t_first, 4)


def test_every_quotient_sends_t_to_the_gt_solution_of_t_inverse_and_bare_t():
    # cyclic reduction rotates aTbAB to bABaT = g t^-1 with g = bABa
    once_inverse = one_relator_presentation(wab("aTbAB"), 2)
    assert once_inverse.relators == (wab("bABaT"),)
    assert is_conjugate_to_gt(wab("bABaT")) == (wab("bABa"), -1)
    assert_every_quotient_sends_t_to(once_inverse, wab("bABa"), 3)
    assert_quotients_match_reference(once_inverse, 4)
    bare = one_relator_presentation(w("t", free_alphabet(1)), 1)
    assert is_conjugate_to_gt(bare.relators[0]) == (Word(), 1)
    assert_quotients_match_reference(bare, 5)
    # t is solved to the identity and no relator contains a, so every
    # quotient is trivial
    assert_every_quotient_sends_t_to(bare, Word(), 4)
    no_generators = Presentation(generators=(), relators=(wab("t"),))
    assert_quotients_match_reference(no_generators, 3)
    # without base generators each degree has the one quotient t -> identity
    assert [n for n, _ in _quotients(no_generators, 4)] == [1, 2, 3, 4]


def test_t_enumerated_without_a_relator_with_one_t():
    pres = one_relator_presentation(wab("atbt"), 2)
    assert is_conjugate_to_gt(pres.relators[0]) is None
    assert_quotients_match_reference(pres, 4)


def test_verify_certificate_does_not_use_the_membership_test(monkeypatch):
    pres = one_relator_presentation(parse_word("aTatt", free_alphabet(1)), 1)
    cert = quotient_certificate(pres, 4)

    def refuse(*_):
        raise AssertionError("verify_certificate called the search's membership test")

    monkeypatch.setattr(surjectivity, "_in_subgroup", refuse)
    assert verify_certificate(pres, cert)
