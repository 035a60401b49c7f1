"""The stratum decomposition search as it stood before the direct construction.

Kept verbatim as the reference that tests compare
``onerelator.decompositions`` against: for every parameter m and every
rotation it tries every ``combinations(cut_positions, 2*npairs)`` of the
kernel word's zero-exponent cut positions, which is exponential in the
number of cuts.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from onerelator.strata import (
    KernelForm,
    Lemma2Decomposition,
    NonzeroExponentSum,
    kernel_canonical_form,
    stratum_membership,
)
from onerelator.words import (
    STABLE,
    Letter,
    Word,
    cyclic_reduce,
    exponent_sum,
    free_reduce,
    is_conjugate_to_gt,
)


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
