"""Level-canonical forms in the kernel of the t-exponent sum, and the
stratum decomposition b0 a0^t b1 a1^t ... br ar^t c t of exponent-sum-one words.

An element k of the kernel is written as a product of factors g^(t^level)
with nontrivial g and distinct adjacent levels.  The strata H, H', J, X, Y, Z
are cut out by inequalities on the min/max level relative to a positive
parameter m.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Optional

from .words import (
    STABLE,
    AUX,
    Letter,
    Word,
    blocks,
    exponent_sum,
    free_reduce,
    cyclic_reduce,
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
    head, blks = blocks(w)
    factors = [] if head.is_identity() else [(head, 0)]
    depth = 0
    for q, g in blks:
        depth += q
        if not g.is_identity():
            factors.append((g, -depth))
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


def _rotation_decomposition(
    kernel: Word, prefix: Word, u0: Word
) -> Optional[Lemma2Decomposition]:
    """The decomposition of the rotation ``kernel * t`` of the cyclic
    reduction, where ``prefix`` is the rotated-away part and ``u0`` the
    conjugator of the cyclic reduction; None when it has none.

    A kernel on one level (the rotation is g t, g possibly trivial) gives
    the pair-free decomposition with c = g and parameter 1.  Raises
    ``RuntimeError`` if the decomposition does not reassemble the rotation.
    """
    k = kernel_canonical_form(kernel)
    lo, hi = (0, 0) if k.is_identity() else level_bounds(k)
    k, m = k.shifted(-lo), hi - lo
    factors = k.factors
    pairs: list[tuple[KernelForm, KernelForm]] = []
    done = 0  # factors already placed in a pair
    pos = 0
    for above, group in groupby(factors, key=lambda f: f[1] >= 1):
        run = tuple(group)
        if above and max(l for _, l in run) == m:
            if pos == done:
                return None  # b would be trivial, hence not in X
            b, a = KernelForm(factors[done:pos]), KernelForm(run).shifted(-1)
            pairs.append((b, a))
            done = pos + len(run)
        pos += len(run)
    # conjugator v with v^-1 * (k t) * v == w
    v = Word.generator(STABLE) ** lo * (prefix.inverse() * u0)
    c = KernelForm(factors[done:])
    d = Lemma2Decomposition(m=max(m, 1), pairs=tuple(pairs), c=c, conjugator=v)
    if d.reassemble() != expand(k) * Word.generator(STABLE):
        raise RuntimeError(f"decomposition of {kernel}t does not reassemble it")
    return d


def decompositions(w: Word) -> Iterator[Lemma2Decomposition]:
    """All stratum decompositions of ``w``, in canonical order: parameter m
    ascending, then rotation of the cyclic reduction.

    Each rotation ending in a t-letter gives at most one decomposition, with
    m the maximum level of its kernel part shifted to minimum level 0: no
    segment rises above m, and each Z-segment a_i^t reaches it.  In a
    reduced word two runs of factors at levels >= 1 could touch only through
    a cancelling t t^-1, so every Z-segment is one whole run, and every run
    that reaches level m fits only Z.  The factors before, between and after
    those runs are b_0, ..., b_r and c.  A kernel on one level, which occurs
    exactly when w ~ g t, gives the pair-free decomposition c = g with
    parameter 1.
    """
    if exponent_sum(w) != 1:
        raise NonzeroExponentSum("decomposition requires exponent sum 1")
    reduced, u0 = cyclic_reduce(w)
    letters = reduced.letters
    found = []
    for i in range(len(letters)):
        rot = letters[i:] + letters[:i]
        if rot[-1] == (STABLE, 1):
            d = _rotation_decomposition(Word(rot[:-1]), Word(letters[:i]), u0)
            if d is not None:
                found.append(d)
    found.sort(key=lambda d: d.m)  # stable, so rotations stay in order
    yield from found


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
