"""Word algebra against brute-force oracles."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from onerelator import (
    STABLE,
    Word,
    WordSyntaxError,
    assemble,
    blocks,
    coefficients,
    conjugacy_canonical,
    cyclic_reduce,
    exponent_sum,
    free_alphabet,
    free_reduce,
    is_conjugate_to_gt,
    make_alphabet,
    parse_word,
    t_shape,
)
from onerelator.spheres import LABEL_ALPHABET
from onerelator.words import (
    BASE_LETTERS,
    MAX_EXPONENT,
    MAX_LETTERS,
    least_rotation,
    substitute,
)

AB = free_alphabet(2)
SYMS = sorted(AB) + [STABLE]
LETTERS = [(s, e) for s in SYMS for e in (1, -1)]

letters_st = st.lists(st.sampled_from(LETTERS), max_size=10)


def naive_reduce(raw):
    """Cancel adjacent inverse pairs to a fixpoint."""
    out = list(raw)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i][0] == out[i + 1][0] and out[i][1] == -out[i + 1][1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def all_words(max_len, syms=SYMS):
    pool = [(s, e) for s in syms for e in (1, -1)]
    for n in range(max_len + 1):
        for combo in itertools.product(pool, repeat=n):
            yield combo


# -- construction and reduction ---------------------------------------------


def test_alphabet_validation():
    with pytest.raises(ValueError):
        make_alphabet({"t"})
    with pytest.raises(ValueError):
        make_alphabet({"A"})
    with pytest.raises(ValueError):
        make_alphabet({"ab"})
    assert free_alphabet(2) == frozenset({"a", "b"})
    assert "t" not in free_alphabet(5) and "s" not in free_alphabet(5)


def test_free_alphabet_rank_bounds():
    for rank in (0, -1):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            free_alphabet(rank)
    with pytest.raises(ValueError, match="rank too large"):
        free_alphabet(25)
    assert len(free_alphabet(24)) == 24
    # one tuple of base letters backs both ranks and corner labels
    assert BASE_LETTERS == tuple("abcdefghijklmnopqruvwxyz")
    assert free_alphabet(24) == LABEL_ALPHABET == frozenset(BASE_LETTERS)


def test_word_requires_reduced():
    with pytest.raises(ValueError):
        Word((("a", 1), ("a", -1)))


@given(letters_st)
def test_free_reduce_matches_naive(raw):
    assert free_reduce(raw).letters == naive_reduce(raw)


@given(letters_st, letters_st)
def test_product_associative_with_inverse(r1, r2):
    u, v = free_reduce(r1), free_reduce(r2)
    assert (u * v) * (u * v).inverse() == Word()
    assert (u * v).inverse() == v.inverse() * u.inverse()


def test_parse_word_basics():
    assert str(parse_word("bTatct", free_alphabet(3))) == "bTatct"
    assert parse_word("a^3", AB).letters == (("a", 1),) * 3
    assert parse_word("a^-2", AB) == parse_word("AA", AB)
    assert parse_word("a A", AB).is_identity()
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("ax", AB)
    assert exc.value.position == 1
    with pytest.raises(WordSyntaxError):
        parse_word("a^0", AB)
    with pytest.raises(WordSyntaxError):
        parse_word("a!", AB)
    with pytest.raises(WordSyntaxError):
        parse_word("s", AB)
    with pytest.raises(WordSyntaxError, match="expected integer exponent after '\\^'"):
        parse_word("a^", AB)


def test_parse_word_caps_exponents():
    """Powers are expanded letter by letter, so hostile exponents are refused."""
    assert len(parse_word(f"a^{MAX_EXPONENT}", AB).letters) == MAX_EXPONENT
    assert parse_word(f"a^-{MAX_EXPONENT}", AB) == parse_word(f"A^{MAX_EXPONENT}", AB)
    assert parse_word("a^0003", AB) == parse_word("aaa", AB)
    for text in (f"b a^{MAX_EXPONENT + 1}", "b a^-99999999999", "b a^" + "9" * 5000):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(text, AB)
        assert exc.value.position == 3
    # each power is within the cap, but the expanded word is not
    with pytest.raises(WordSyntaxError, match=f"longer than {MAX_LETTERS} letters") as exc:
        parse_word("a^10000b^10000" * 100, AB)
    assert exc.value.position == 70  # the eleventh power


# -- anatomy -----------------------------------------------------------------


def test_blocks_and_coefficients():
    w = parse_word("bTatct", free_alphabet(3))
    head, blks = blocks(w)
    assert str(head) == "b"
    assert [(q, str(g)) for q, g in blks] == [(-1, "a"), (1, "c"), (1, "")]
    assert t_shape(w) == (-1, 1, 1)
    assert [str(g) for g in coefficients(w)] == ["b", "a", "c", ""]
    assert exponent_sum(w) == 1


def test_assemble_round_trip():
    w = parse_word("abT^2aTbt^3", AB)
    assert assemble(coefficients(w), t_shape(w)) == w
    with pytest.raises(ValueError):
        assemble([Word()], (1, 1))


@given(letters_st)
def test_assemble_inverts_blocks(raw):
    w = free_reduce(raw)
    assert assemble(coefficients(w), t_shape(w)) == w


# -- cyclic reduction and conjugacy -----------------------------------------


def oracle_cyclically_reduced(word):
    """A word is cyclically reduced iff no rotation shortens under reduction."""
    n = len(word.letters)
    return all(
        len(naive_reduce(word.letters[i:] + word.letters[:i])) == n
        for i in range(n)
    )


def test_cyclic_reduce_examples():
    w = parse_word("btaT", AB)
    reduced, u = cyclic_reduce(w)
    assert reduced == w and u.is_identity()
    w2 = parse_word("AbtaTa", AB)
    reduced2, u2 = cyclic_reduce(w2)
    assert reduced2 == parse_word("btaT", AB)
    assert u2.inverse() * reduced2 * u2 == w2


@given(letters_st)
def test_cyclic_reduce_contract(raw):
    word = free_reduce(raw)
    reduced, u = cyclic_reduce(word)
    assert u.inverse() * reduced * u == word
    assert oracle_cyclically_reduced(reduced)
    letters = reduced.letters
    if letters and any(s == STABLE for s, _ in letters) and any(
        s != STABLE for s, _ in letters
    ):
        # mixed words end in a t-letter with a nontrivial leading coefficient
        assert letters[-1][0] == STABLE
        assert letters[0][0] != STABLE


def reduced_words(max_len):
    """Every freely reduced letter tuple of length <= max_len over a, b, t."""
    layer = [()]
    for _ in range(max_len):
        yield from layer
        layer = [
            w + (l,) for w in layer for l in LETTERS if not w or w[-1] != (l[0], -l[1])
        ]
    yield from layer


def oracle_cyclic_reduce(letters):
    """Strip cancelling outer pairs one at a time, then rotate the core to
    start with a base letter and end in t, unless it already does so or has
    no base letter or no t-letter.  Returns (rotation, conjugator) letters."""
    core, prefix = list(letters), []
    while len(core) >= 2 and core[0] == (core[-1][0], -core[-1][1]):
        prefix.append(core.pop(0))
        core.pop()
    is_t = [sym == STABLE for sym, _ in core]
    starts = [i for i in range(len(core)) if not is_t[i] and is_t[i - 1]]
    i = 0
    if starts and 0 not in starts:
        i = min(
            starts,
            key=lambda j: [(s == STABLE, s, e < 0) for s, e in core[j:] + core[:j]],
        )
    prefix += core[:i]
    return tuple(core[i:] + core[:i]), tuple((s, -e) for s, e in reversed(prefix))


def oracle_blocks(letters):
    """Split at runs of t-letters, each run summed to one exponent."""
    head, out = (), []
    for is_t, run in itertools.groupby(letters, key=lambda l: l[0] == STABLE):
        run = tuple(run)
        if is_t:
            out.append([sum(e for _, e in run), ()])
        elif out:
            out[-1][1] = run
        else:
            head = run
    return head, [tuple(b) for b in out]


def test_anatomy_exhaustive():
    """cyclic_reduce and blocks on all 23,437 reduced words of length <= 6
    over a, b, t, and powers on the 4,687 of length <= 5, each against an
    independent construction."""
    # the rotation rule keeps a core that starts with base and ends in t,
    # even when another such rotation is less
    btat = parse_word("btat", AB)
    assert cyclic_reduce(btat) == (btat, Word())
    count = 0
    for letters in reduced_words(6):
        count += 1
        w = Word(letters)
        reduced, u = cyclic_reduce(w)
        assert (reduced.letters, u.letters) == oracle_cyclic_reduce(letters)
        head, blks = blocks(w)
        assert (head.letters, [(q, g.letters) for q, g in blks]) == oracle_blocks(
            letters
        )
        if len(letters) <= 5:
            assert w ** 0 == Word()
            product, inverse, w_inv = Word(), Word(), w.inverse()
            for e in range(1, 4):
                product, inverse = product * w, inverse * w_inv
                assert w ** e == product and w ** -e == inverse
    assert count == 23_437


def test_conjugacy_canonical_oracle():
    """Conjugate pairs agree, non-conjugate pairs differ (conjugators len <= 3)."""
    words = [free_reduce(c) for c in all_words(4)]
    conjugators = [free_reduce(c) for c in all_words(3)]
    sample = [w for w in {w.letters: w for w in words}.values()][::7]
    for w in sample[:60]:
        canon = conjugacy_canonical(w)
        for u in conjugators:
            assert conjugacy_canonical(u * w * u.inverse()) == canon


def test_least_rotation():
    assert least_rotation(()) == ()
    assert least_rotation(parse_word("tab", AB).letters) == (
        parse_word("abt", AB).letters
    )
    # rotated as given, without cyclic reduction: t^-1 a t keeps its letters
    t_a_t = parse_word("Tat", AB).letters
    assert least_rotation(t_a_t) == (("a", 1), (STABLE, 1), (STABLE, -1))
    for raw in all_words(4):
        w = free_reduce(raw)
        if not w.is_identity() and cyclic_reduce(w)[0] == w:
            assert Word(least_rotation(w.letters)) == conjugacy_canonical(w)


def test_substitute():
    assert substitute(parse_word("aTbt", AB), STABLE, parse_word("ab", AB)) == (
        parse_word("aBAbab", AB)
    )
    assert substitute(parse_word("ab", AB), STABLE, parse_word("a", AB)) == (
        parse_word("ab", AB)
    )
    assert substitute(parse_word("atA", AB), "a", parse_word("bt", AB)) == (
        parse_word("btB", AB)
    )


def test_gt_detection():
    assert is_conjugate_to_gt(parse_word("at", AB)) == (parse_word("a", AB), 1)
    g, eps = is_conjugate_to_gt(parse_word("abTA", AB))
    assert (g, eps) == (parse_word("b", AB), -1)
    # the b-conjugate of t^-1 collapses to t^-1 itself
    assert is_conjugate_to_gt(parse_word("abTBA", AB)) == (Word(), -1)
    assert is_conjugate_to_gt(parse_word("atbT", AB)) is None
    assert is_conjugate_to_gt(parse_word("ab", AB)) is None
    # t alone is a gt-form with trivial coefficient
    assert is_conjugate_to_gt(parse_word("t", AB)) == (Word(), 1)


@given(letters_st, letters_st)
def test_gt_detection_conjugation_invariant(r1, r2):
    w, u = free_reduce(r1), free_reduce(r2)
    assert is_conjugate_to_gt(w) == is_conjugate_to_gt(u * w * u.inverse())
