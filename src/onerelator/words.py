"""Exact word algebra in a finite-rank free group G and the free product G*<t>.

Words are stored as flat, freely reduced sequences of signed letters.  The
stable letter is always ``t``; ``s`` is reserved as the auxiliary variable of
two-variable words.  Uppercase letters denote inverses in the surface syntax,
so ``"aTbt"`` is a t^-1 b t.
"""
from __future__ import annotations

from dataclasses import dataclass
from string import ascii_lowercase
from typing import Iterable, Iterator, Optional, Sequence

STABLE = "t"
AUX = "s"
RESERVED = frozenset({STABLE, AUX})
#: the base letters a, b, c, ..., z in order, without the reserved t and s
BASE_LETTERS = tuple(c for c in ascii_lowercase if c not in RESERVED)
#: largest exponent magnitude ``parse_word`` accepts; each power is expanded
#: into that many letters
MAX_EXPONENT = 10_000
#: largest number of letters ``parse_word`` expands a word into, before
#: free reduction
MAX_LETTERS = 100_000

#: a signed letter: (generator symbol, +1 or -1)
Letter = tuple[str, int]


class WordSyntaxError(ValueError):
    """Raised by :func:`parse_word` with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def make_alphabet(symbols: Iterable[str]) -> frozenset[str]:
    """Validate and freeze a base alphabet (single lowercase letters, no 't'/'s')."""
    out = frozenset(symbols)
    for sym in out:
        if len(sym) != 1 or not sym.islower():
            raise ValueError(f"generator must be a single lowercase letter: {sym!r}")
        if sym in RESERVED:
            raise ValueError(f"generator symbol {sym!r} is reserved")
    return out


def free_alphabet(rank: int) -> frozenset[str]:
    """The first ``rank`` letters a, b, c, ... (skipping reserved symbols)."""
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    if rank > len(BASE_LETTERS):
        raise ValueError("rank too large for single-letter alphabet")
    return make_alphabet(BASE_LETTERS[:rank])


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for sym, sign in letters:
        if stack and stack[-1][0] == sym and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((sym, sign))
    return tuple(stack)


def letter_key(letter: Letter) -> tuple[int, str, int]:
    """Total letter order: base letters alphabetically (x before x^-1), then t, t^-1."""
    sym, sign = letter
    return (1 if sym == STABLE else 0, sym, 0 if sign > 0 else 1)


def word_key(letters: Sequence[Letter]) -> tuple[tuple[int, str, int], ...]:
    return tuple(letter_key(l) for l in letters)


@dataclass(frozen=True)
class Word:
    """A freely reduced element of G*<t> (or of G when no t-letter occurs)."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.letters != _reduce(self.letters):
            raise ValueError("Word requires freely reduced letters; use free_reduce")

    # -- construction ------------------------------------------------------

    @staticmethod
    def generator(sym: str, sign: int = 1) -> "Word":
        return Word(((sym, sign),))

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple((sym, -sign) for sym, sign in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return free_reduce(base.letters * abs(n))

    # -- predicates --------------------------------------------------------

    def is_identity(self) -> bool:
        return not self.letters

    def in_base_group(self) -> bool:
        return all(sym != STABLE for sym, _ in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return "".join(sym if sign > 0 else sym.upper() for sym, sign in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self) or '1'!r})"


def free_reduce(raw: Iterable[Letter]) -> Word:
    """Freely reduce an arbitrary letter sequence."""
    return Word(_reduce(raw))


def parse_word(text: str, alphabet: Iterable[str]) -> Word:
    """Parse the surface syntax: letters, uppercase inverses, optional ``^k``.

    Raises :class:`WordSyntaxError` with the offending position, also for an
    exponent above ``MAX_EXPONENT`` in magnitude or a power that takes the
    expanded word past ``MAX_LETTERS`` letters, or ``ValueError`` for
    generators outside ``alphabet``.
    """
    alpha = frozenset(alphabet)
    known = alpha | {STABLE}
    raw: list[Letter] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        sym, sign = ch.lower(), (1 if ch.islower() else -1)
        if not ch.isalpha():
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
        if sym not in known:
            raise WordSyntaxError(f"unknown generator {sym!r}", i)
        start = i
        i += 1
        count = 1
        if i < n and text[i] == "^":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            k = j
            while k < n and text[k].isdigit():
                k += 1
            if k == j:
                raise WordSyntaxError("expected integer exponent after '^'", i)
            # compare digit counts first: int() is slow on, and past 4300
            # digits refuses, very long digit strings
            magnitude = text[j:k].lstrip("0") or "0"
            if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude) > MAX_EXPONENT:
                raise WordSyntaxError(f"exponent above {MAX_EXPONENT} in magnitude", i)
            count = int(text[i + 1 : k])
            if count == 0:
                raise WordSyntaxError("zero exponent not allowed", i)
            i = k
        if count < 0:
            sign, count = -sign, -count
        if len(raw) + count > MAX_LETTERS:
            raise WordSyntaxError(f"word longer than {MAX_LETTERS} letters", start)
        raw.extend([(sym, sign)] * count)
    return free_reduce(raw)


def substitute(w: Word, sym: str, replacement: Word) -> Word:
    """Replace every ``sym``-letter of ``w`` by ``replacement`` and freely reduce."""
    raw: list[Letter] = []
    for s, sign in w.letters:
        if s == sym:
            rep = replacement if sign > 0 else replacement.inverse()
            raw.extend(rep.letters)
        else:
            raw.append((s, sign))
    return free_reduce(raw)


# -- reduced-word anatomy (head, blocks, coefficients, shape) ---------------


def blocks(w: Word) -> tuple[Word, tuple[tuple[int, Word], ...]]:
    """Split ``w`` as head g0 followed by (t-exponent, coefficient) blocks."""
    head: list[Letter] = []
    cur = head
    exps: list[int] = []
    coeffs: list[list[Letter]] = []
    for letter in w.letters:
        sym, sign = letter
        if sym != STABLE:
            cur.append(letter)
        elif exps and not cur:
            # adjacent t-letters of a reduced word share a sign
            exps[-1] += sign
        else:
            cur = []
            exps.append(sign)
            coeffs.append(cur)
    return Word(tuple(head)), tuple(
        (q, Word(tuple(g))) for q, g in zip(exps, coeffs)
    )


def exponent_sum(w: Word) -> int:
    """The exponent sum of t in ``w``."""
    return sum(sign for sym, sign in w.letters if sym == STABLE)


def t_shape(w: Word) -> tuple[int, ...]:
    """The sequence of t-exponents (q1, ..., qn); empty for words in G."""
    return tuple(q for q, _ in blocks(w)[1])


def coefficients(w: Word) -> tuple[Word, ...]:
    """The coefficients (g0, g1, ..., gn), including trivial end coefficients."""
    head, blks = blocks(w)
    return (head,) + tuple(g for _, g in blks)


def assemble(coeffs: Sequence[Word], shape: Sequence[int]) -> Word:
    """Rebuild g0 t^q1 g1 ... t^qn gn from coefficients and a t-shape."""
    if len(coeffs) != len(shape) + 1:
        raise ValueError("need one more coefficient than shape entries")
    raw: list[Letter] = list(coeffs[0].letters)
    for q, g in zip(shape, coeffs[1:]):
        raw.extend([(STABLE, 1 if q > 0 else -1)] * abs(q))
        raw.extend(g.letters)
    return free_reduce(raw)


# -- cyclic reduction and conjugacy ----------------------------------------


def _least_start(letters: Sequence[Letter], starts: Iterable[int]) -> int:
    """The start i in ``starts`` whose rotation ``letters[i:] + letters[:i]``
    is least under :func:`word_key`, the first such on ties; 0 if none."""
    keys = word_key(letters)
    return min(starts, key=lambda i: keys[i:] + keys[:i], default=0)


def least_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The rotation of ``letters`` that is least under :func:`word_key`; () if empty."""
    i = _least_start(letters, range(len(letters)))
    return letters[i:] + letters[:i]


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Cyclically reduce ``w`` as the paper defines it.

    A reduced word g_0 t^q_1 g_1 ... t^q_n g_n is cyclically reduced when
    g_n = 1 and, if n > 1, g_0 != 1; without t-letters (n = 0), when it is
    cyclically reduced in G.  Such a word comes back unchanged.

    Returns ``(reduced, u)`` with ``u.inverse() * reduced * u == w``.  With
    ``w = P core P^-1`` and ``core`` cyclically reduced, ``reduced`` is
    ``core`` itself when it starts with a base letter and ends in a t-letter,
    or has no base letter or no t-letter.  Otherwise it is the least rotation
    of ``core`` (under :func:`word_key`) that starts with a base letter and
    ends in a t-letter.
    """
    letters = w.letters
    n = len(letters)
    k = 0  # the length of P: outer letter pairs that cancel
    while 2 * k + 1 < n and letters[k] == (letters[-1 - k][0], -letters[-1 - k][1]):
        k += 1
    core = letters[k : n - k]
    # rotation i starts with core[i] and ends with core[i - 1]
    starts = [
        i
        for i in range(len(core))
        if core[i][0] != STABLE and core[i - 1][0] == STABLE
    ]
    i = _least_start(core, starts) if starts and starts[0] != 0 else 0
    return Word(core[i:] + core[:i]), Word(letters[: k + i]).inverse()


def conjugacy_canonical(w: Word) -> Word:
    """The lexicographically least rotation of the cyclic reduction of ``w``.

    Two elements of G*<t> are conjugate iff their canonical words coincide.
    """
    return Word(least_rotation(cyclic_reduce(w)[0].letters))


def is_conjugate_to_gt(w: Word) -> Optional[tuple[Word, int]]:
    """If ``w`` is conjugate to g t^e with e = +-1, return (g, e); else None."""
    # a cyclic reduction with one t-letter ends in it: g t^e, last coefficient 1
    head, blks = blocks(cyclic_reduce(w)[0])
    if len(blks) != 1 or abs(blks[0][0]) != 1:
        return None
    return head, blks[0][0]
