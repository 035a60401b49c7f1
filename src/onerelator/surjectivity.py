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
from itertools import permutations, product
from typing import Iterable, Mapping, Optional, Sequence

from .words import (
    STABLE,
    Letter,
    Word,
    _reduce,
    cyclic_reduce,
    exponent_sum,
    free_alphabet,
    is_conjugate_to_gt,
    letter_key,
    substitute,
    t_shape,
    word_key,
)


@dataclass(frozen=True)
class Presentation:
    """Generators of the base group plus the stable letter, and the relators."""

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
    verified: bool


def collapse_isomorphism(w: Word) -> Collapse:
    """The substitution eliminating t when w is conjugate to g t^epsilon."""
    gt = is_conjugate_to_gt(w)
    if gt is None:
        raise ValueError("word is not conjugate to a gt-form")
    g, eps = gt
    t_image = g ** (-eps)
    verified = substitute(w, STABLE, t_image).is_identity()
    if not verified:
        raise AssertionError("collapse substitution failed to kill the relator")
    return Collapse(g=g, epsilon=eps, t_image=t_image, verified=True)


@dataclass(frozen=True)
class SurjectivityVerdict:
    status: str  # Surjective | NotSurjective | Undetermined
    reason: str  # GtCollapse | ExponentSum | MainTheorem | QuotientCertificate
    evidence: dict


@dataclass(frozen=True)
class AmenabilityResult:
    amenable: bool
    known: bool


def amenable_shape(
    shape: tuple[int, ...],
    registry: Optional[Mapping[tuple[int, ...], bool]] = None,
) -> AmenabilityResult:
    """Membership in the built-in amenable t-shape families, else the registry.

    Built-ins: the single-letter shapes (+1) and (-1), and the alternating
    family (-1, +1, ..., -1, +1, +1).  Shapes outside the built-ins and the
    registry are reported as not known.
    """
    shape = tuple(shape)
    if shape in ((1,), (-1,)):
        return AmenabilityResult(amenable=True, known=True)
    if (
        len(shape) >= 3
        and len(shape) % 2 == 1
        and shape[-1] == 1
        and all(q == (-1 if i % 2 == 0 else 1) for i, q in enumerate(shape[:-1]))
    ):
        return AmenabilityResult(amenable=True, known=True)
    if registry is not None and shape in registry:
        return AmenabilityResult(amenable=bool(registry[shape]), known=True)
    return AmenabilityResult(amenable=False, known=False)


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
    """All freely reduced words of length <= max_len, in (length, lex) order."""
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
        nxt.sort(key=word_key)
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

    Products of at most product_bound factors u w^(+-1) u^-1 with |u| bounded
    by conj_len_bound are enumerated in deterministic order (factor count,
    then factor indices); returns the first product whose t-shape matches, or
    None when the bounded space is exhausted.
    """
    if conj_len_bound < 1 or product_bound < 1:
        raise ValueError("bounds must be at least 1")
    target_shape = tuple(target_shape)
    if alphabet is None:
        alphabet = {sym for sym, _ in w.letters if sym != STABLE}
    symbols = sorted(set(alphabet)) + [STABLE]

    factors: list[tuple[Word, Word, int]] = []  # (element, conjugator, sign)
    seen: set[tuple[Letter, ...]] = set()
    for u in _reduced_words(symbols, conj_len_bound):
        for sign in (1, -1):
            elem = u * (w if sign > 0 else w.inverse()) * u.inverse()
            if elem.letters not in seen:
                seen.add(elem.letters)
                factors.append((elem, u, sign))

    ex_w = exponent_sum(w)
    target_ex = sum(target_shape)
    target_tc = sum(abs(q) for q in target_shape)
    ex_of = [sign * ex_w for _, _, sign in factors]
    tc_of = [sum(1 for s, _ in f.letters if s == STABLE) for f, _, _ in factors]
    inv_index: dict[tuple[Letter, ...], int] = {
        f.inverse().letters: i for i, (f, _, _) in enumerate(factors)
    }
    # per-factor prefix t-counts, for the cancellation filter
    pref_tc: list[list[int]] = []
    for f, _, _ in factors:
        acc = [0]
        for sym, _ in f.letters:
            acc.append(acc[-1] + (1 if sym == STABLE else 0))
        pref_tc.append(acc)

    # iteratively deepened exact-depth passes keep the canonical order:
    # all products of d factors are inspected before any product of d+1
    for depth in range(1, product_bound + 1):
        hit = _exact_depth_search(
            factors, ex_of, tc_of, pref_tc, inv_index,
            ex_w, target_ex, target_tc, target_shape, depth,
        )
        if hit is not None:
            return hit
    return None


def _exact_depth_search(
    factors, ex_of, tc_of, pref_tc, inv_index,
    ex_w, target_ex, target_tc, target_shape, depth,
):
    n = len(factors)
    letters_of = [f.letters for f, _, _ in factors]

    # the final factor must cancel against the prefix enough to land on the
    # target t-count; that pins its t-count to prefix_tc +- 1 relative to the
    # target and (for nonempty prefixes) forces a matching first letter
    buckets: dict[tuple[Letter, int, int], list[int]] = {}
    for i, fl in enumerate(letters_of):
        if fl:  # only a trivial relator has an empty conjugate
            buckets.setdefault((fl[0], tc_of[i], ex_of[i]), []).append(i)

    def last_factor(prefix, prefix_ex, trail):
        rev_inv = tuple((s, -e) for s, e in reversed(prefix))
        m = len(rev_inv)
        prefix_tc = sum(1 for s, _ in prefix if s == STABLE)
        last_inv = inv_index.get(letters_of[trail[-1]]) if trail else None
        need_ex = target_ex - prefix_ex
        if prefix_tc == 0:
            candidates = [
                i
                for i in range(n)
                if tc_of[i] == target_tc and ex_of[i] == need_ex
            ]
        else:
            candidates = []
            if m:
                lo = abs(prefix_tc - target_tc)
                for tcc in range(lo, prefix_tc + target_tc + 1, 2):
                    candidates += buckets.get((rev_inv[0], tcc, need_ex), [])
        for i in candidates:
            if i == last_inv:
                continue
            fl = letters_of[i]
            k = 0
            lim = min(m, len(fl))
            while k < lim and rev_inv[k] == fl[k]:
                k += 1
            if prefix_tc + tc_of[i] - 2 * pref_tc[i][k] != target_tc:
                continue
            combined = prefix[: m - k] + fl[k:]
            if t_shape(Word(combined)) == target_shape:
                chosen = tuple(
                    (factors[j][1], factors[j][2]) for j in trail + (i,)
                )
                return SearchHit(element=Word(combined), factors=chosen)
        return None

    def rec(prefix: tuple[Letter, ...], prefix_ex: int, trail: tuple[int, ...]):
        remaining = depth - len(trail)
        if remaining == 1:
            return last_factor(prefix, prefix_ex, trail)
        last_inv = inv_index.get(letters_of[trail[-1]]) if trail else None
        for i in range(n):
            new_ex = prefix_ex + ex_of[i]
            if abs(target_ex - new_ex) > (remaining - 1) * abs(ex_w):
                continue
            if i == last_inv:
                continue
            combined = _reduce(prefix + letters_of[i])
            hit = rec(combined, new_ex, trail + (i,))
            if hit is not None:
                return hit
        return None

    return rec((), 0, ())


# -- finite permutation quotients -------------------------------------------

Perm = tuple[int, ...]


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


def _t_solver(relators: Sequence[Word]) -> Optional[tuple[Word, int]]:
    """``(B*A, epsilon)`` for the first relator ``A t^epsilon B`` with one t.

    Such a relator is the identity exactly when the image of t^epsilon is
    the inverse of the image of ``B*A``, so t's image is forced.
    """
    for r in relators:
        spots = [i for i, (sym, _) in enumerate(r.letters) if sym == STABLE]
        if len(spots) == 1:
            i = spots[0]
            # B*A is a rotation of the cyclically reduced r minus its t
            return Word(r.letters[i + 1:] + r.letters[:i]), r.letters[i][1]
    return None


def _quotients(pres: Presentation, max_degree: int):
    """Permutation quotients of degree 1 to ``max_degree`` (at most 8), in
    deterministic order.

    Yields ``(degree, images)`` for every generator-image assignment that
    sends each relator to the identity.  The first base generator ranges
    over conjugacy-class representatives only: conjugating all images at
    once preserves both the relator check and the membership witness.  The
    other base generators range over all of ``S_n`` in ``product`` order,
    with t innermost.

    When some relator ``A t^epsilon B`` has exactly one t, t's image is
    solved rather than enumerated: the first such relator forces t^epsilon
    to the inverse of the image of ``B*A``, so each base assignment has one
    candidate, still checked against every relator.  A degree n then costs
    p(n) * (n!)^(rank-1) base assignments, p(n) the number of partitions of
    n; without such a relator every one of them tries all n! images of t.
    """
    if max_degree > 8:
        raise ValueError("max_degree is capped at 8")
    gens = list(pres.generators)
    rest = gens[1:] if gens else []
    solver = _t_solver(pres.relators)
    for degree in range(1, max_degree + 1):
        identity = tuple(range(degree))
        all_perms = sorted(permutations(range(degree)))
        for first in _class_representatives(degree):
            for tail in product(all_perms, repeat=len(rest)):
                base = {gens[0]: first} if gens else {}
                base.update(zip(rest, tail))
                if solver is None:
                    t_candidates = all_perms
                else:
                    ba, eps = solver
                    forced = _word_image(ba, base, degree)
                    t_candidates = (_inverse_perm(forced) if eps > 0 else forced,)
                for t_image in t_candidates:
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
    ``_quotients`` in its order, so t is solved when a relator has one t,
    and each is tested by a membership walk that stops once it reaches t's
    image: only the certificate itself costs a whole subgroup.
    """
    for n, images in _quotients(pres, max_degree):
        if not _in_subgroup(images[STABLE], [images[g] for g in pres.generators]):
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


def _perm_order(p: Perm) -> int:
    n = len(p)
    identity = tuple(range(n))
    cur, k = p, 1
    while cur != identity:
        cur = _compose(cur, p)
        k += 1
    return k


def order_evidence(x: Word, pres: Presentation, max_degree: int) -> int:
    """Largest verified order of x's image over finite permutation quotients.

    Each returned value k certifies that the order of x in the extension is a
    multiple of k; growing values are consistent with infinite order.
    """
    shape = t_shape(x)
    total = sum(shape)
    if total <= 0 or not (
        shape == (total,) or shape == tuple([1] * total)
    ):
        raise ValueError("word must have t-shape t^n with n > 0")
    orders = (
        _perm_order(_word_image(x, images, n))
        for n, images in _quotients(pres, max_degree)
    )
    return max(orders, default=0)
