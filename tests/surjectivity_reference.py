"""Brute-force references for the searches in ``onerelator.surjectivity``.

``normal_closure_search`` multiplies out every product of conjugates in the
order the library's docstring promises and returns the first one with the
target t-shape.

``_quotients`` and ``quotient_certificate`` are the permutation-quotient
search by brute force: every assignment of permutations to the base
generators and to t, in the ``product(...)`` order with t innermost, and a
full subgroup closure for every quotient it yields.  The relator check and
the conjugacy-class representatives are computed here, not taken from the
library.
"""
from __future__ import annotations

from itertools import (
    chain,
    combinations_with_replacement,
    groupby,
    pairwise,
    permutations,
    product,
)
from typing import Iterable, Mapping, Optional, Sequence

from onerelator.surjectivity import (
    MAX_DEGREE,
    Perm,
    Presentation,
    QuotientCertificate,
    SearchHit,
)
from onerelator.words import STABLE, Word, _reduce, free_reduce, word_key


def normal_closure_search(
    w: Word,
    target_shape: tuple[int, ...],
    conj_len_bound: int,
    product_bound: int,
    alphabet: Optional[Iterable[str]] = None,
) -> Optional[SearchHit]:
    """First product of conjugates of w with the target t-shape, by brute force.

    Conjugators are the reduced words of length <= conj_len_bound, sorted by
    length, then ``word_key``; each gives u w u^-1, then u w^-1 u^-1, and an
    element equal to an earlier factor is dropped.  Every depth from 1 to
    product_bound multiplies out all factor-index tuples in lexicographic
    order, except those with a factor directly followed by its inverse.
    """
    if alphabet is None:
        alphabet = {sym for sym, _ in w.letters if sym != STABLE}
    letters = [(s, e) for s in [*alphabet, STABLE] for e in (1, -1)]
    conjugators = sorted(
        (
            combo
            for n in range(conj_len_bound + 1)
            for combo in product(letters, repeat=n)
            if len(free_reduce(combo)) == n
        ),
        key=lambda u: (len(u), word_key(u)),
    )
    factors: list[tuple[Word, Word, int]] = []  # (element, conjugator, sign)
    for letters_u in conjugators:
        u = Word(letters_u)
        for sign in (1, -1):
            elem = u * (w if sign > 0 else w.inverse()) * u.inverse()
            if all(elem != f for f, _, _ in factors):
                factors.append((elem, u, sign))
    elements = [f.letters for f, _, _ in factors]
    inverse = [elements.index(f.inverse().letters) for f, _, _ in factors]
    target_shape = tuple(target_shape)
    for depth in range(1, product_bound + 1):
        for trail in product(range(len(factors)), repeat=depth):
            if any(inverse[i] == j for i, j in pairwise(trail)):
                continue
            elem = _reduce(chain.from_iterable(elements[i] for i in trail))
            # the t-shape: exponent sums of the maximal runs of t letters
            runs = groupby(elem, key=lambda letter: letter[0] == STABLE)
            shape = tuple(sum(e for _, e in run) for is_t, run in runs if is_t)
            if shape == target_shape:
                return SearchHit(Word(elem), tuple(factors[i][1:] for i in trail))
    return None


def _class_representatives(n: int) -> list[Perm]:
    """One permutation per cycle type of S_n, the cycle types as partitions
    of n in decreasing lexicographic order; each cycle runs through
    consecutive points, the longest cycles first."""
    parts = sorted(
        (
            combo[::-1]
            for k in range(1, n + 1)
            for combo in combinations_with_replacement(range(1, n + 1), k)
            if sum(combo) == n
        ),
        reverse=True,
    )
    reps = []
    for part in parts:
        points = iter(range(n))
        perm = [0] * n
        for size in part:
            cycle = [next(points) for _ in range(size)]
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                perm[x] = y
        reps.append(tuple(perm))
    return reps


def _kills(w: Word, images: Mapping[str, Perm]) -> bool:
    """Whether the images send w to the identity: each point, pushed through
    the letters of w from left to right, comes back to itself."""
    for start in range(len(images[STABLE])):
        x = start
        for sym, sign in w.letters:
            x = images[sym][x] if sign > 0 else images[sym].index(x)
        if x != start:
            return False
    return True


def _subgroup_closure(gens: Sequence[Perm], degree: int) -> set[Perm]:
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(g[i] for i in cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _quotients(pres: Presentation, max_degree: int):
    """Permutation quotients of degree 1 to ``max_degree`` (at most
    ``MAX_DEGREE``), in deterministic order.

    Yields ``(degree, images)`` for every generator-image assignment that
    sends each relator to the identity.  The first base generator ranges
    over conjugacy-class representatives only: conjugating all images at
    once preserves both the relator check and the membership witness.
    """
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree is capped at {MAX_DEGREE}")
    gens = list(pres.generators)
    rest = gens[1:] if gens else []
    for degree in range(1, max_degree + 1):
        all_perms = sorted(permutations(range(degree)))
        for first in _class_representatives(degree):
            for tail in product(all_perms, repeat=len(rest) + 1):
                images = {gens[0]: first} if gens else {}
                for g, p in zip(rest, tail):
                    images[g] = p
                images[STABLE] = tail[-1]
                if all(_kills(r, images) for r in pres.relators):
                    yield degree, images


def quotient_certificate(
    pres: Presentation, max_degree: int
) -> Optional[QuotientCertificate]:
    """A finite permutation quotient where t's image escapes G's image.

    Such a quotient certifies non-surjectivity independently of the theorem;
    absence of a certificate is not a refutation.
    """
    for n, images in _quotients(pres, max_degree):
        base_images = [images[g] for g in pres.generators]
        closure = _subgroup_closure(base_images, n)
        if images[STABLE] not in closure:
            return QuotientCertificate(
                degree=n,
                images=images,
                witness=(
                    "image of t lies outside the subgroup generated by "
                    "the base generator images"
                ),
            )
    return None
