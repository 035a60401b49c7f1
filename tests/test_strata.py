"""Kernel canonical forms, strata and the b a^t ... c t decomposition."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from onerelator import (
    KernelForm,
    NonzeroExponentSum,
    STABLE,
    Word,
    build_two_variable_word,
    decompositions,
    exponent_sum,
    expand,
    free_alphabet,
    free_reduce,
    is_conjugate_to_gt,
    kernel_canonical_form,
    lemma2_decompose,
    level_bounds,
    parse_word,
    phi,
    strata,
    stratum_membership,
    substitute_aux,
)

from strata_reference import decompositions as reference_decompositions

AB = free_alphabet(2)
ABC = free_alphabet(3)
SYMS = sorted(AB) + [STABLE]


def w(text):
    return parse_word(text, AB)


# -- kernel canonical form ---------------------------------------------------


def test_kernel_form_examples():
    k = kernel_canonical_form(w("TatA"))
    assert [(str(g), l) for g, l in k.factors] == [("a", 1), ("A", 0)]
    assert level_bounds(k) == (0, 1)
    assert kernel_canonical_form(Word()).is_identity()
    with pytest.raises(NonzeroExponentSum):
        kernel_canonical_form(w("at"))
    with pytest.raises(ValueError):
        level_bounds(KernelForm())


def test_kernel_form_invariants():
    with pytest.raises(ValueError):
        KernelForm(((Word(), 0),))
    with pytest.raises(ValueError):
        KernelForm(((w("a"), 0), (w("b"), 0)))
    with pytest.raises(ValueError):
        KernelForm(((w("t"), 0),))


def test_expansion_round_trip_exhaustive():
    """expand . kernel_canonical_form is the identity on short kernel words."""
    pool = [(s, e) for s in ("a", STABLE) for e in (1, -1)]
    count = 0
    for n in range(7):
        for combo in itertools.product(pool, repeat=n):
            word = free_reduce(combo)
            if exponent_sum(word) != 0:
                continue
            assert expand(kernel_canonical_form(word)) == word
            count += 1
    assert count > 100


def test_shift_and_product():
    k = kernel_canonical_form(w("TatA"))
    assert expand(k.shifted(2)) == free_reduce(
        [(STABLE, -1)] * 2 + list(w("TatA").letters) + [(STABLE, 1)] * 2
    )
    k2 = kernel_canonical_form(w("b"))
    assert expand(k * k2) == expand(k) * expand(k2)


# -- strata ------------------------------------------------------------------


def test_stratum_membership_identity():
    flags = stratum_membership(KernelForm(), 3)
    assert (flags.h, flags.h_prime, flags.j) == (True, True, True)
    assert (flags.x, flags.y, flags.z) == (False, False, False)


def test_stratum_membership_levels():
    k = kernel_canonical_form(w("TatA"))  # levels {0, 1}
    f2 = stratum_membership(k, 2)
    assert (f2.h, f2.h_prime, f2.j) == (False, False, True)
    assert (f2.x, f2.y, f2.z) == (True, True, False)
    f3 = stratum_membership(k, 3)
    assert (f3.h, f3.j, f3.x, f3.y, f3.z) == (True, True, True, False, False)
    with pytest.raises(ValueError):
        stratum_membership(k, 0)


def test_phi_shifts_levels():
    k = kernel_canonical_form(w("a"))
    shifted = phi(k, 3)
    assert level_bounds(shifted) == (1, 1)
    assert stratum_membership(shifted, 3).h_prime
    with pytest.raises(ValueError):
        phi(shifted, 2)


# -- decomposition -----------------------------------------------------------


def check_decomposition(word, d):
    assert d.source() == word
    for b, a in d.pairs:
        assert stratum_membership(b, d.m).x
        assert stratum_membership(a.shifted(1), d.m).z
    assert stratum_membership(d.c, d.m).j
    assert (len(d.pairs) == 0) == (is_conjugate_to_gt(word) is not None)


def test_decompose_gt_form():
    """w ~ g t has exactly one decomposition: no pairs, c = g, parameter 1."""
    cases = (("ct", "(c)@0", ""), ("t", "1", ""), ("Tatt", "(a)@0", "t"))
    for text, c, conjugator in cases:
        word = parse_word(text, free_alphabet(3))
        (d,) = decompositions(word)
        assert d.m == 1 and d.pairs == () and d.source() == word
        assert str(d.c) == c and str(d.conjugator) == conjugator
        assert lemma2_decompose(word) == d


def test_reassembly_failure_raises(monkeypatch):
    """A decomposition that does not reassemble its rotation is an internal
    fault, not a missing decomposition or invalid input."""
    monkeypatch.setattr(strata, "_pair_word", lambda d, sym: Word())
    with pytest.raises(RuntimeError, match="does not reassemble"):
        list(decompositions(w("bTatt")))


def test_decompose_three_coefficient_word():
    word = parse_word("bTatct", free_alphabet(3))
    d = lemma2_decompose(word)
    assert d.m == 1
    assert [(str(b), str(a)) for b, a in d.pairs] == [("(b)@0", "(a)@0")]
    assert str(d.c) == "(c)@0"
    check_decomposition(word, d)


def test_decompose_requires_exponent_one():
    with pytest.raises(NonzeroExponentSum):
        lemma2_decompose(w("atat"))


def test_decompositions_canonical_order():
    word = w("atataT")
    ds = list(itertools.islice(decompositions(word), 5))
    assert ds, "at least one decomposition expected"
    assert ds[0].m == min(d.m for d in ds)
    for d in ds:
        check_decomposition(word, d)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9))
def test_decompose_random_round_trip(seed):
    rng = random.Random(seed)
    syms = sorted(ABC) + [STABLE]
    while True:
        raw = [
            (rng.choice(syms), rng.choice([1, -1]))
            for _ in range(rng.randint(1, 40))
        ]
        word = free_reduce(raw)
        if exponent_sum(word) == 1:
            break
    check_decomposition(word, lemma2_decompose(word))


@pytest.mark.parametrize(
    "text",
    [
        "aBABBaBtAbATTaatAtABtABabaBBAAbABAAATAtbtBBBTAAT",
        "aabTTaattaBTbAtAAAtBAbbABaBA",
    ],
)
def test_decompose_long_words(text):
    """Words on which the exponential cut search took seconds to minutes."""
    word = w(text)
    ds = list(decompositions(word))
    assert ds and lemma2_decompose(word) == ds[0]
    for d in ds:
        check_decomposition(word, d)


def assert_matches_reference(word):
    expected = list(reference_decompositions(word))
    assert list(decompositions(word)) == expected
    if expected:
        assert lemma2_decompose(word) == expected[0]
    else:
        with pytest.raises(ValueError):
            lemma2_decompose(word)


def test_decompositions_match_reference_exhaustive():
    """Every exponent-sum-one reduced word of length <= 7 over a, b, t."""
    pool = [(s, e) for s in SYMS for e in (1, -1)]
    count = 0
    for n in range(8):
        for combo in itertools.product(pool, repeat=n):
            word = free_reduce(combo)
            if len(word) == n and exponent_sum(word) == 1:
                assert_matches_reference(word)
                count += 1
    assert count == 21921


def test_decompositions_match_reference_random():
    """Seeded random words of 10 to 20 letters over a, b, c, t."""
    rng = random.Random(20)
    syms = sorted(ABC) + [STABLE]
    count = 0
    while count < 200:
        raw = [
            (rng.choice(syms), rng.choice([1, -1]))
            for _ in range(rng.randint(10, 20))
        ]
        word = free_reduce(raw)
        if exponent_sum(word) == 1:
            assert_matches_reference(word)
            count += 1


# -- two-variable words ------------------------------------------------------


def test_two_variable_word_round_trip():
    word = parse_word("bTatct", free_alphabet(3))
    d = lemma2_decompose(word)
    two = build_two_variable_word(d)
    assert str(two) == "bSascs"
    assert substitute_aux(two, w("t")) == d.reassemble()


def test_substitute_aux_inverse_letters():
    two = Word((("a", 1), ("s", -1)))
    assert substitute_aux(two, w("bt")) == w("aTB")
