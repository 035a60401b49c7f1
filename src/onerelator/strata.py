"""Level-canonical forms in the kernel of the t-exponent sum, and the
stratum decomposition b0 a0^t b1 a1^t ... br ar^t c t of exponent-sum-one words.

An element k of the kernel is written as a product of factors g^(t^level)
with nontrivial g and distinct adjacent levels.  The strata H, H', J, X, Y, Z
are cut out by inequalities on the min/max level relative to a positive
parameter m.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .words import (
    STABLE,
    AUX,
    Letter,
    Word,
    exponent_sum,
    free_reduce,
    cyclic_reduce,
    is_conjugate_to_gt,
    substitute,
)


class NonzeroExponentSum(ValueError):
    """The word is not in the kernel of the exponent-sum map."""


@dataclass(frozen=True)
class KernelForm:
    """Canonical form g1^(t^L1) ... gr^(t^Lr) of a kernel element."""

    factors: tuple[tuple[Word, int], ...] = ()

    def __post_init__(self) -> None:
        for g, _ in self.factors:
            if g.is_identity() or not g.in_base_group():
                raise ValueError("factors must be nontrivial base-group elements")
        for (_, l1), (_, l2) in zip(self.factors, self.factors[1:]):
            if l1 == l2:
                raise ValueError("adjacent factor levels must differ")

    def is_identity(self) -> bool:
        return not self.factors

    def shifted(self, offset: int) -> "KernelForm":
        """The canonical form of the conjugate by t^offset (levels + offset)."""
        return KernelForm(tuple((g, l + offset) for g, l in self.factors))

    def __mul__(self, other: "KernelForm") -> "KernelForm":
        return kernel_canonical_form(expand(self) * expand(other))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(f"({g})@{l}" for g, l in self.factors)


def expand(k: KernelForm) -> Word:
    """Multiply out the factors t^-L g t^L and freely reduce."""
    raw: list[Letter] = []
    for g, level in k.factors:
        raw.extend([(STABLE, -1 if level > 0 else 1)] * abs(level))
        raw.extend(g.letters)
        raw.extend([(STABLE, 1 if level > 0 else -1)] * abs(level))
    return free_reduce(raw)


def kernel_canonical_form(w: Word) -> KernelForm:
    """Canonical form of a word with exponent sum zero.

    Raises :class:`NonzeroExponentSum` otherwise.
    """
    if exponent_sum(w) != 0:
        raise NonzeroExponentSum(f"exponent sum is {exponent_sum(w)}, not 0")
    factors: list[tuple[Word, int]] = []
    depth = 0
    run: list[Letter] = []
    for sym, sign in w.letters:
        if sym == STABLE:
            if run:
                factors.append((Word(tuple(run)), -depth))
                run = []
            depth += sign
        else:
            run.append((sym, sign))
    if run:
        factors.append((Word(tuple(run)), -depth))
    return KernelForm(tuple(factors))


def level_bounds(k: KernelForm) -> tuple[int, int]:
    """(min, max) of the factor levels; undefined for the identity."""
    if k.is_identity():
        raise ValueError("level bounds of the identity are undefined")
    levels = [l for _, l in k.factors]
    return min(levels), max(levels)


@dataclass(frozen=True)
class StratumFlags:
    h: bool
    h_prime: bool
    j: bool
    x: bool
    y: bool
    z: bool


def stratum_membership(k: KernelForm, m: int) -> StratumFlags:
    """Membership of ``k`` in the six strata for parameter ``m`` >= 1.

    The identity belongs to the subgroups H, H', J and to none of the
    subsets X, Y, Z.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if k.is_identity():
        return StratumFlags(h=True, h_prime=True, j=True, x=False, y=False, z=False)
    lo, hi = level_bounds(k)
    return StratumFlags(
        h=lo >= 0 and hi <= m - 2,
        h_prime=lo >= 1 and hi <= m - 1,
        j=lo >= 0 and hi <= m - 1,
        x=lo == 0 and hi <= m - 1,
        y=lo >= 0 and hi == m - 1,
        z=lo >= 1 and hi == m,
    )


def phi(h: KernelForm, m: int) -> KernelForm:
    """The isomorphism H -> H' shifting every level up by one."""
    if not stratum_membership(h, m).h:
        raise ValueError("phi is only defined on members of H")
    return h.shifted(1)


@dataclass(frozen=True)
class Lemma2Decomposition:
    """A conjugate of an exponent-sum-one word as b0 a0^t ... br ar^t c t."""

    m: int
    pairs: tuple[tuple[KernelForm, KernelForm], ...]  # (b_i in X, a_i in Y)
    c: KernelForm  # in J
    conjugator: Word  # u with u^-1 * reassemble() * u == source word

    def reassemble(self) -> Word:
        return _pair_word(self, STABLE)

    def source(self) -> Word:
        u = self.conjugator
        return u.inverse() * self.reassemble() * u


def _pair_word(d: Lemma2Decomposition, sym: str) -> Word:
    """b0 a0^x ... br ar^x c x, where x is the letter ``sym``."""
    raw: list[Letter] = []
    for b, a in d.pairs:
        raw.extend(expand(b).letters)
        raw.append((sym, -1))
        raw.extend(expand(a).letters)
        raw.append((sym, 1))
    raw.extend(expand(d.c).letters)
    raw.append((sym, 1))
    return free_reduce(raw)


def _prefix_exponents(letters: Sequence[Letter]) -> list[int]:
    out = [0]
    for sym, sign in letters:
        out.append(out[-1] + (sign if sym == STABLE else 0))
    return out


def decompositions(w: Word) -> Iterator[Lemma2Decomposition]:
    """All stratum decompositions found by the bounded search, in canonical
    order: parameter m ascending, then rotation, then cut positions.

    The search rotates the cyclic reduction of ``w`` to end in a t-letter,
    shifts levels so the kernel part has minimum level zero, then splits the
    kernel word at zero-exponent positions into alternating X- and
    (shifted Y)-segments followed by a J-remainder.
    """
    if exponent_sum(w) != 1:
        raise NonzeroExponentSum("decomposition requires exponent sum 1")
    reduced, u0 = cyclic_reduce(w)
    letters = reduced.letters
    n = len(letters)

    gt = is_conjugate_to_gt(w)
    if gt is not None:
        g, _ = gt
        # degenerate case: w ~ g t with empty pair list and c = g at level 0
        c = KernelForm(((g, 0),) if not g.is_identity() else ())
        # the cyclic reduction is g t itself, so u0 is the conjugator
        yield Lemma2Decomposition(m=1, pairs=(), c=c, conjugator=u0)
        return

    # candidate rotations ending in a positive t-letter, with level shift
    candidates = []
    for i in range(n):
        rot = letters[i:] + letters[:i]
        if rot[-1] != (STABLE, 1):
            continue
        k_letters = rot[:-1]
        pref = _prefix_exponents(k_letters)
        # factor levels are -prefix_exponent at base letters only
        base_levels = [
            -pref[j] for j, (sym, _) in enumerate(k_letters) if sym != STABLE
        ]
        if not base_levels:
            continue  # pure t-power kernel part cannot occur for a non-gt word
        shift = -min(base_levels)
        raw = (
            [(STABLE, -1)] * shift + list(k_letters) + [(STABLE, 1)] * shift
            if shift >= 0
            else [(STABLE, 1)] * (-shift) + list(k_letters) + [(STABLE, -1)] * (-shift)
        )
        k_word = free_reduce(raw)
        # conjugator v with v^-1 * (k_word t) * v == w
        prefix = Word(letters[:i])
        v = free_reduce([(STABLE, -1 if shift > 0 else 1)] * abs(shift)) * (
            prefix.inverse() * u0
        )
        candidates.append((k_word, v, max(base_levels) + shift))

    global_max = max(ml for _, _, ml in candidates)
    for m in range(1, global_max + 1):
        for k_word, v, max_level in candidates:
            if max_level < m:
                continue
            kl = k_word.letters
            pref = _prefix_exponents(kl)
            cut_positions = [j for j in range(1, len(kl)) if pref[j] == 0]
            max_pairs = (len(cut_positions) + 2) // 2
            for npairs in range(1, max_pairs + 1):
                for cuts in combinations(cut_positions + [len(kl)], 2 * npairs):
                    segs = []
                    prev = 0
                    for c_pos in cuts:
                        segs.append(kl[prev:c_pos])
                        prev = c_pos
                    rest = kl[prev:]
                    if any(not seg for seg in segs):
                        continue
                    ok = True
                    pairs = []
                    for idx in range(npairs):
                        b = kernel_canonical_form(Word(segs[2 * idx]))
                        a_shift = kernel_canonical_form(Word(segs[2 * idx + 1]))
                        if (
                            b.is_identity()
                            or a_shift.is_identity()
                            or not stratum_membership(b, m).x
                            or not stratum_membership(a_shift, m).z
                        ):
                            ok = False
                            break
                        pairs.append((b, a_shift.shifted(-1)))
                    if not ok:
                        continue
                    c_form = kernel_canonical_form(Word(rest))
                    if not stratum_membership(c_form, m).j:
                        continue
                    d = Lemma2Decomposition(
                        m=m, pairs=tuple(pairs), c=c_form, conjugator=v
                    )
                    if d.reassemble() != k_word * Word(((STABLE, 1),)):
                        continue
                    yield d


def lemma2_decompose(w: Word) -> Lemma2Decomposition:
    """First decomposition in canonical order (smallest parameter m)."""
    d = next(decompositions(w), None)
    if d is None:
        raise ValueError(f"no decomposition found for {w}")
    return d


def build_two_variable_word(d: Lemma2Decomposition) -> Word:
    """The two-variable word b0(t) a0(t)^s ... c(t) s over G*<s>*<t>."""
    return _pair_word(d, AUX)


def substitute_aux(w: Word, replacement: Word) -> Word:
    """Substitute every s-letter by ``replacement`` and freely reduce."""
    return substitute(w, AUX, replacement)
