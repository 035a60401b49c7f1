"""Surjectivity analysis for the natural map G -> (G*<t>)/<<w>>.

The base group is free, hence torsion-free, so the map is onto exactly when
the relator is conjugate to g t or g t^-1; that case collapses the extension
back onto G by eliminating t.  The other verdicts carry machine-checkable
evidence: the exponent-sum obstruction, bounded normal-closure searches, and
optional finite permutation quotients where the image of t avoids the image
of G.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations, product
from typing import Iterable, Mapping, Optional, Sequence

from .words import (
    STABLE,
    Letter,
    Word,
    cyclic_reduce,
    exponent_sum,
    free_alphabet,
    is_conjugate_to_gt,
    letter_key,
    substitute,
    t_shape,
)


@dataclass(frozen=True)
class Presentation:
    """Generators of the base group plus the stable letter, and the relators,
    each cyclically reduced as the paper defines it (g_n = 1, and g_0 != 1
    when n > 1): exactly the words ``cyclic_reduce`` leaves unchanged."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if STABLE in self.generators:
            raise ValueError("the stable letter is implicit, not a generator")
        for r in self.relators:
            if r.is_identity():
                raise ValueError("relators must be nontrivial")
            if cyclic_reduce(r)[0].letters != r.letters:
                raise ValueError(f"relator {r} is not cyclically reduced")
            unknown = {sym for sym, _ in r.letters} - {*self.generators, STABLE}
            if unknown:
                raise ValueError(
                    f"relator {r} uses letters {sorted(unknown)} "
                    "that are not generators"
                )


def one_relator_presentation(w: Word, rank: int) -> Presentation:
    return Presentation(
        generators=tuple(sorted(free_alphabet(rank))),
        relators=(cyclic_reduce(w)[0],),
    )


@dataclass(frozen=True)
class Collapse:
    """Tietze elimination t -> g^(-epsilon) witnessing the gt collapse."""

    g: Word
    epsilon: int
    t_image: Word


def collapse_isomorphism(w: Word) -> Collapse:
    """The substitution eliminating t when w is conjugate to g t^epsilon."""
    gt = is_conjugate_to_gt(w)
    if gt is None:
        raise ValueError("word is not conjugate to a gt-form")
    g, eps = gt
    t_image = g ** (-eps)
    if not substitute(w, STABLE, t_image).is_identity():
        raise AssertionError("collapse substitution failed to kill the relator")
    return Collapse(g=g, epsilon=eps, t_image=t_image)


@dataclass(frozen=True)
class SurjectivityVerdict:
    status: str  # Surjective | NotSurjective
    reason: str  # GtCollapse | ExponentSum | MainTheorem
    evidence: dict


def amenable_shape(shape: tuple[int, ...]) -> bool:
    """Membership in the known amenable t-shape families.

    The families are the single-letter shapes (+1) and (-1), and the
    alternating family (-1, +1, ..., -1, +1, +1).  Other shapes are not
    known to be amenable.
    """
    shape = tuple(shape)
    return shape in ((1,), (-1,)) or (
        len(shape) >= 3
        and len(shape) % 2 == 1
        and shape[-1] == 1
        and all(q == (-1 if i % 2 == 0 else 1) for i, q in enumerate(shape[:-1]))
    )


def analyze(w: Word, rank: int) -> SurjectivityVerdict:
    """Surjectivity verdict for the one-relator extension of the free group."""
    if w.is_identity():
        raise ValueError("relator must be nontrivial")
    ex = exponent_sum(w)
    if abs(ex) != 1:
        return SurjectivityVerdict(
            status="NotSurjective",
            reason="ExponentSum",
            evidence={"exponent_sum": ex},
        )
    gt = is_conjugate_to_gt(w)
    if gt is not None:
        collapse = collapse_isomorphism(w)
        return SurjectivityVerdict(
            status="Surjective",
            reason="GtCollapse",
            evidence={
                "g": str(collapse.g),
                "epsilon": collapse.epsilon,
                "t_image": str(collapse.t_image),
            },
        )
    shape = t_shape(cyclic_reduce(w)[0])
    return SurjectivityVerdict(
        status="NotSurjective",
        reason="MainTheorem",
        evidence={
            "authority": "theorem",
            "t_shape": list(shape),
            "note": "base group is free, hence torsion-free",
        },
    )


# -- bounded normal-closure search ------------------------------------------


@dataclass(frozen=True)
class SearchHit:
    element: Word
    factors: tuple[tuple[Word, int], ...]  # (conjugator u, sign of w)


def _reduced_words(symbols: Sequence[str], max_len: int) -> list[Word]:
    """All freely reduced words of length <= max_len, by length, then
    ``word_key``: each length extends the sorted words one shorter by
    letters in ``letter_key`` order, so it comes out sorted."""
    letters = sorted(
        [(s, 1) for s in symbols] + [(s, -1) for s in symbols], key=letter_key
    )
    out: list[Word] = [Word()]
    frontier: list[tuple[Letter, ...]] = [()]
    for _ in range(max_len):
        nxt: list[tuple[Letter, ...]] = []
        for wl in frontier:
            for l in letters:
                if wl and wl[-1] == (l[0], -l[1]):
                    continue
                nxt.append(wl + (l,))
        out.extend(Word(wl) for wl in nxt)
        frontier = nxt
    return out


def normal_closure_search(
    w: Word,
    target_shape: tuple[int, ...],
    conj_len_bound: int,
    product_bound: int,
    alphabet: Optional[Iterable[str]] = None,
) -> Optional[SearchHit]:
    """First bounded product of conjugates of w with the target t-shape.

    The factors are the elements u w^(+-1) u^-1 for reduced conjugators u
    over the alphabet and t with |u| <= conj_len_bound, ordered by u (length,
    then ``word_key``) with sign +1 before -1; an element equal to an
    earlier factor is dropped.  Products of 1 to product_bound factors are
    tried by factor count, then by factor-index tuple in lexicographic
    order, skipping every tuple in which a factor is directly followed by
    its own inverse.  Returns the first product whose t-shape is
    target_shape, or None when the bounded space is exhausted.

    With F factors, d factors cost up to F^(d-1) prefixes and one bucket
    lookup per prefix.  Each prefix carries its reduced letters, t-count and
    exponent sum.  When the first k letters of the last factor cancel, the
    product keeps the prefix's t letters plus the factor's, less twice the t
    letters among those k.  So the lookup takes only factors with the
    exponent sum still needed and a t-count that can cancel down to the
    target's; those that must cancel a t start with the inverse of the
    prefix's last letter, the others may start with any letter.
    """
    if conj_len_bound < 1 or product_bound < 1:
        raise ValueError("bounds must be at least 1")
    target_shape = tuple(target_shape)
    if alphabet is None:
        alphabet = {sym for sym, _ in w.letters if sym != STABLE}
    symbols = sorted(set(alphabet)) + [STABLE]

    index: dict[tuple[Letter, ...], int] = {}  # factor letters -> index
    factors: list[tuple[Word, int]] = []  # (conjugator u, sign of w)
    for u in _reduced_words(symbols, conj_len_bound):
        for sign in (1, -1):
            elem = (u * (w if sign > 0 else w.inverse()) * u.inverse()).letters
            if elem not in index:
                index[elem] = len(factors)
                factors.append((u, sign))
    letters_of = list(index)
    n = len(letters_of)
    ex_w = exponent_sum(w)
    ex_of = [sign * ex_w for _, sign in factors]
    # cancel_by[i][j] is the prefix letter that cancels letter j of factor i
    cancel_by = [tuple((s, -e) for s, e in f) for f in letters_of]
    inv_of = [index[c[::-1]] for c in cancel_by]
    # tcs[i][k]: t letters among the first k letters of factor i
    tcs = [list(accumulate((s == STABLE for s, _ in f), initial=0)) for f in letters_of]
    # keyed by (first letter, t-count, exponent sum); first letter None
    # files every factor, for a last factor that need cancel no t
    buckets: dict[tuple[Optional[Letter], int, int], list[int]] = {}
    for i, f in enumerate(letters_of):
        for first in (f[0], None) if f else (None,):
            buckets.setdefault((first, tcs[i][-1], ex_of[i]), []).append(i)
    target_ex = sum(target_shape)
    target_tc = sum(abs(q) for q in target_shape)

    def cancelled(prefix: tuple[Letter, ...], i: int) -> int:
        c, m = cancel_by[i], len(prefix)
        k, lim = 0, min(m, len(c))
        while k < lim and prefix[m - 1 - k] == c[k]:
            k += 1
        return k

    def rec(prefix, ptc, pex, skip, remaining):
        """(factor indices, letters) of the first hit below this prefix."""
        if remaining == 1:
            back = (prefix[-1][0], -prefix[-1][1]) if prefix else None
            chosen: list[int] = []
            for tcc in range(abs(ptc - target_tc), ptc + target_tc + 1, 2):
                first = None if tcc == target_tc - ptc else back
                chosen += buckets.get((first, tcc, target_ex - pex), ())
            for i in sorted(chosen):
                k = cancelled(prefix, i)
                if i != skip and ptc + tcs[i][-1] - 2 * tcs[i][k] == target_tc:
                    elem = prefix[: len(prefix) - k] + letters_of[i][k:]
                    if t_shape(Word(elem)) == target_shape:
                        return (i,), elem
            return None
        slack = (remaining - 1) * abs(ex_w)
        for i in range(n):
            if i == skip or abs(target_ex - pex - ex_of[i]) > slack:
                continue
            k = cancelled(prefix, i)
            found = rec(
                prefix[: len(prefix) - k] + letters_of[i][k:],
                ptc + tcs[i][-1] - 2 * tcs[i][k],
                pex + ex_of[i],
                inv_of[i],
                remaining - 1,
            )
            if found is not None:
                return (i,) + found[0], found[1]
        return None

    for depth in range(1, product_bound + 1):
        found = rec((), 0, 0, None, depth)
        if found is not None:
            trail, elem = found
            return SearchHit(Word(elem), tuple(factors[i] for i in trail))
    return None


# -- finite permutation quotients -------------------------------------------

Perm = tuple[int, ...]

#: the largest permutation degree ``quotient_certificate`` searches
MAX_DEGREE = 8


def _compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def _inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _word_image(w: Word, images: Mapping[str, Perm], degree: int) -> Perm:
    cur: Perm = tuple(range(degree))
    for sym, sign in w.letters:
        p = images[sym]
        cur = _compose(cur, p if sign > 0 else _inverse_perm(p))
    return cur


def _in_subgroup(target: Perm, gens: Sequence[Perm]) -> bool:
    """Whether target lies in the subgroup generated by gens.

    A breadth-first walk from the identity that stops as soon as it reaches
    target; only a non-member costs the whole subgroup.
    """
    identity = tuple(range(len(target)))
    if target == identity:
        return True
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                p = _compose(cur, g)
                if p == target:
                    return True
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return False


def _partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _class_representatives(n: int) -> list[Perm]:
    """One permutation per cycle type, with cycles laid out consecutively."""
    reps = []
    for part in _partitions(n):
        perm = list(range(n))
        start = 0
        for size in part:
            for i in range(size):
                perm[start + i] = start + (i + 1) % size
            start += size
        reps.append(tuple(perm))
    return reps


@dataclass(frozen=True)
class QuotientCertificate:
    degree: int
    images: dict  # generator symbol -> permutation tuple (t included)
    witness: str


def _used_generators(pres: Presentation) -> list[str]:
    """The generators, in order, that some relator contains."""
    symbols = {sym for r in pres.relators for sym, _ in r.letters}
    return [g for g in pres.generators if g in symbols]


def _quotients(pres: Presentation, max_degree: int):
    """Permutation quotients of degree 1 to ``max_degree``, in deterministic
    order.

    Yields ``(degree, images)`` for every generator-image assignment that
    sends each relator to the identity.  Only the generators that some
    relator contains are enumerated; every other generator sits at the
    identity.  The first used generator ranges over conjugacy-class
    representatives only: conjugating all images at once preserves both the
    relator check and the membership witness.  The other used generators
    range over all of ``S_n`` in ``product`` order, with t innermost.
    Without used generators each degree has one base assignment, the empty
    one.  A degree n costs p(n) * (n!)^(u-1) base assignments, u the number
    of used generators and p(n) the number of partitions of n, and each one
    tries all n! images of t.
    """
    used = _used_generators(pres)
    for degree in range(1, max_degree + 1):
        identity = tuple(range(degree))
        all_perms = sorted(permutations(range(degree)))
        choices = (
            [_class_representatives(degree)] + [all_perms] * (len(used) - 1)
            if used else []
        )
        for assignment in product(*choices):
            base = dict.fromkeys(pres.generators, identity)
            base.update(zip(used, assignment))
            for t_image in all_perms:
                images = {**base, STABLE: t_image}
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
    absence of a certificate is not a refutation.  The quotients come from
    ``_quotients`` in its order, and each is tested by a membership walk
    that stops once it reaches t's image: only the certificate itself costs
    a whole subgroup.  A ``max_degree`` outside 1 to ``MAX_DEGREE`` raises
    ``ValueError``.

    A generator that no relator contains is fixed at the identity.  Any
    quotient maps it somewhere; moving it to the identity keeps every
    relator satisfied and only shrinks G's image, so t still escapes.  The
    search therefore finds a certificate at exactly the degrees where one
    exists.

    When a relator has the gt collapse that makes ``analyze`` answer
    Surjective, t lies in G's image in every quotient, so None is returned
    without a search.
    """
    if not 1 <= max_degree <= MAX_DEGREE:
        raise ValueError(
            f"max_degree must be from 1 to {MAX_DEGREE}, got {max_degree}"
        )
    if any(is_conjugate_to_gt(r) is not None for r in pres.relators):
        return None
    used = _used_generators(pres)
    for n, images in _quotients(pres, max_degree):
        if not _in_subgroup(images[STABLE], [images[g] for g in used]):
            return QuotientCertificate(
                degree=n,
                images=images,
                witness=(
                    "image of t lies outside the subgroup generated by "
                    "the base generator images"
                ),
            )
    return None


def verify_certificate(pres: Presentation, cert: QuotientCertificate) -> bool:
    """Independent re-check of a certificate (no shared state with the search)."""
    n = cert.degree
    identity = tuple(range(n))
    if cert.images.keys() != {*pres.generators, STABLE}:
        return False
    for sym, p in cert.images.items():
        if sorted(p) != list(range(n)):
            return False
    for r in pres.relators:
        cur = identity
        for sym, sign in r.letters:
            p = cert.images[sym]
            if sign < 0:
                q = [0] * n
                for i, v in enumerate(p):
                    q[v] = i
                p = tuple(q)
            cur = tuple(p[i] for i in cur)
        if cur != identity:
            return False
    # the whole subgroup generated by the base images, walked here rather
    # than by the search's membership test
    closure = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in pres.generators:
            p = cert.images[g]
            nxt = tuple(p[i] for i in cur)
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return cert.images[STABLE] not in closure
