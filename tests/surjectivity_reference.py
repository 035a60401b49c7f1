"""The permutation-quotient search as it stood before t's image was solved.

Kept verbatim as the reference that tests compare
``onerelator.surjectivity._quotients`` and ``quotient_certificate`` against:
every assignment of permutations to the base generators and to t, in the
``product(...)`` order with t innermost, and a full subgroup closure for
every quotient it yields.
"""
from __future__ import annotations

from itertools import permutations, product
from typing import Optional, Sequence

from onerelator.surjectivity import (
    Perm,
    Presentation,
    QuotientCertificate,
    _class_representatives,
    _compose,
    _word_image,
)
from onerelator.words import STABLE


def _subgroup_closure(gens: Sequence[Perm], degree: int) -> set[Perm]:
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _compose(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _quotients(pres: Presentation, max_degree: int):
    """Permutation quotients of degree 1 to ``max_degree`` (at most 8), in
    deterministic order.

    Yields ``(degree, images)`` for every generator-image assignment that
    sends each relator to the identity.  The first base generator ranges
    over conjugacy-class representatives only: conjugating all images at
    once preserves both the relator check and the membership witness.
    """
    if max_degree > 8:
        raise ValueError("max_degree is capped at 8")
    gens = list(pres.generators)
    rest = gens[1:] if gens else []
    for degree in range(1, max_degree + 1):
        identity = tuple(range(degree))
        all_perms = sorted(permutations(range(degree)))
        for first in _class_representatives(degree):
            for tail in product(all_perms, repeat=len(rest) + 1):
                images = {gens[0]: first} if gens else {}
                for g, p in zip(rest, tail):
                    images[g] = p
                images[STABLE] = tail[-1]
                if all(
                    _word_image(r, images, degree) == identity
                    for r in pres.relators
                ):
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
