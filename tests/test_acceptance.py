"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expected value here comes from an independent oracle (naive reduction
to a fixpoint, exhaustive rotation, bounded conjugator enumeration, direct
product recomputation) or is an exact structural contract checked in full.
"""
from __future__ import annotations

import itertools
import random
import sys
import time
from fractions import Fraction as Q

from onerelator import (
    STABLE,
    Word,
    analyze,
    adversarial_schedule,
    collapse_isomorphism,
    conjugacy_canonical,
    cyclic_reduce,
    detect_type1,
    detect_type2,
    expand,
    exponent_sum,
    free_alphabet,
    free_reduce,
    generate_random,
    is_conjugate_to_gt,
    kernel_canonical_form,
    lemma2_decompose,
    normal_closure_search,
    simulate,
    standard_schedule,
    standard_schedule_II,
    stratum_membership,
    uniform_schedule,
    verify_at_least_two_crashes,
    word_key,
)
from conftest import IDENT, bigon_pencil, mirrored_pair, triangle_pair

from onerelator import read_face_word
from onerelator.words import substitute

AB = free_alphabet(2)
SYMS = sorted(AB) + [STABLE]
POOL = [(s, e) for s in SYMS for e in (1, -1)]


import pytest

_CAP = None


@pytest.fixture(autouse=True)
def _uncaptured(capfd):
    """Let the per-criterion verdict lines through pytest's fd capture."""
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def announce(num: int, name: str, ok: bool, elapsed: float) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def bubble_reduce(raw):
    """Naive cancellation of adjacent inverse pairs to a fixpoint."""
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


def stack_reduce(raw):
    out = []
    for l in raw:
        if out and out[-1] == (l[0], -l[1]):
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def all_raw(max_len):
    for n in range(max_len + 1):
        yield from itertools.product(POOL, repeat=n)


def all_reduced(max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for wl in frontier:
            for l in POOL:
                if wl and wl[-1] == (l[0], -l[1]):
                    continue
                nxt.append(wl + (l,))
        out.extend(nxt)
        frontier = nxt
    return out


def oracle_cyclic_min(letters):
    """Min-key rotation of the shortest cyclic form, via exhaustive rotation."""
    best = None
    cur = letters
    # rotate-and-reduce to the shortest cyclic representative first
    changed = True
    while changed:
        changed = False
        n = len(cur)
        for i in range(n):
            rot = bubble_reduce(cur[i:] + cur[:i])
            if len(rot) < len(cur):
                cur = rot
                changed = True
                break
    n = len(cur)
    for i in range(n or 1):
        rot = cur[i:] + cur[:i]
        if best is None or word_key(rot) < word_key(best):
            best = rot
    return best


def test_criterion_1_word_oracles():
    started = time.monotonic()
    ok = True
    try:
        for raw in all_raw(6):
            assert free_reduce(raw).letters == bubble_reduce(raw)
        reduced = all_reduced(6)
        for letters in reduced:
            word = Word(letters)
            r, u = cyclic_reduce(word)
            assert u.inverse() * r * u == word
            n = len(r.letters)
            assert all(
                len(bubble_reduce(r.letters[i:] + r.letters[:i])) == n
                for i in range(n)
            )
            assert conjugacy_canonical(word).letters == oracle_cyclic_min(letters)
        # bounded conjugator enumeration on the short tier
        conjugators = [c for c in all_reduced(4)]
        for letters in all_reduced(3):
            expect = min(
                (
                    stack_reduce(
                        c + letters + tuple((s, -e) for s, e in reversed(c))
                    )
                    for c in conjugators
                ),
                key=lambda l: (len(l), word_key(l)),
            )
            assert conjugacy_canonical(Word(letters)).letters == expect
        elapsed = time.monotonic() - started
        assert elapsed < 60
    except AssertionError:
        ok = False
        raise
    finally:
        announce(1, "word-algebra-oracle-equivalence", ok, time.monotonic() - started)


def test_criterion_2_triangle_reading():
    started = time.monotonic()
    ok = True
    try:
        assert str(read_face_word(triangle_pair(), "F")) == "taTbTc"
    except AssertionError:
        ok = False
        raise
    finally:
        announce(2, "triangle-boundary-word", ok, time.monotonic() - started)


def relabelings():
    return [(sw, ia, ib) for sw in (0, 1) for ia in (1, -1) for ib in (1, -1)]


def apply_relabel(word, m):
    sw, ia, ib = m
    raw = []
    for s, e in word.letters:
        if s == "a":
            raw.append(("b" if sw else "a", e * ia))
        elif s == "b":
            raw.append(("a" if sw else "b", e * ib))
        else:
            raw.append((s, e))
    return free_reduce(raw)


def test_criterion_3_no_kernel_shape_hits():
    started = time.monotonic()
    ok = True
    try:
        classes = {}
        for letters in all_reduced(6):
            word = Word(letters)
            if exponent_sum(word) != 1:
                continue
            if cyclic_reduce(word)[0].letters != letters:
                continue
            if is_conjugate_to_gt(word) is not None:
                continue
            canon = conjugacy_canonical(word)
            orbit = min(
                conjugacy_canonical(apply_relabel(canon, m)).letters
                for m in relabelings()
            )
            classes.setdefault(orbit, canon)
        assert len(classes) == 27
        counterexamples = []
        for word in sorted(
            classes.values(), key=lambda x: (len(x.letters), x.letters)
        ):
            hit = normal_closure_search(word, (1,), 3, 3, alphabet=AB)
            if hit is not None:
                counterexamples.append((str(word), str(hit.element)))
        assert counterexamples == []
        elapsed = time.monotonic() - started
        assert elapsed < 600
    except AssertionError:
        ok = False
        raise
    finally:
        announce(3, "main-theorem-desk-check", ok, time.monotonic() - started)


def test_criterion_4_collapse_on_random_conjugates():
    started = time.monotonic()
    ok = True
    try:
        rng = random.Random(13)
        base_pool = [(s, e) for s in sorted(AB) for e in (1, -1)]
        passed = 0
        for _ in range(100):
            g = free_reduce(
                [rng.choice(base_pool) for _ in range(rng.randint(0, 4))]
            )
            u = free_reduce([rng.choice(POOL) for _ in range(rng.randint(0, 5))])
            eps = rng.choice([1, -1])
            word = u * g * Word(((STABLE, eps),)) * u.inverse()
            verdict = analyze(word, 2)
            assert (verdict.status, verdict.reason) == ("Surjective", "GtCollapse")
            c = collapse_isomorphism(word)
            assert c.epsilon == eps
            assert substitute(word, STABLE, c.t_image).is_identity()
            passed += 1
        assert passed == 100
    except AssertionError:
        ok = False
        raise
    finally:
        announce(4, "surjective-collapse", ok, time.monotonic() - started)


def test_criterion_5_decomposition_round_trip():
    started = time.monotonic()
    ok = True
    try:
        rng = random.Random(99)
        done = 0
        while done < 200:
            raw = [rng.choice(POOL) for _ in range(rng.randint(1, 8))]
            word = free_reduce(raw)
            if exponent_sum(word) != 1:
                continue
            d = lemma2_decompose(word)
            assert d.source() == word
            for b, a in d.pairs:
                assert stratum_membership(b, d.m).x
                assert stratum_membership(a.shifted(1), d.m).z
            assert stratum_membership(d.c, d.m).j
            assert (len(d.pairs) == 0) == (is_conjugate_to_gt(word) is not None)
            done += 1
        assert done == 200
    except AssertionError:
        ok = False
        raise
    finally:
        announce(5, "decomposition-round-trip", ok, time.monotonic() - started)


def ngon_face(n):
    from onerelator import Face

    return Face(
        "f",
        tuple((f"e{i}", 1) for i in range(n)),
        tuple((f"v{i}", IDENT) for i in range(n)),
    )


def test_criterion_6_schedule_exactness():
    started = time.monotonic()
    ok = True
    try:
        for r in (1, 2, 3, 4):
            s = standard_schedule(ngon_face(2 * r + 3), r)
            assert s.period == Q(4 * r + 2)
            for i in range(2 * r + 2):
                assert s.position(Q(i)) == Q(i)
            # parked at the long-stop corner throughout [2r+2, 4r+1]
            lo, hi = Q(2 * r + 2), Q(4 * r + 1)
            for t in (lo, (lo + hi) / 2, hi):
                assert s.position(t) == Q(2 * r + 2)
            assert s.position(s.period) == Q(2 * r + 3)
        assert standard_schedule_II(ngon_face(2)).period == Q(2)
    except AssertionError:
        ok = False
        raise
    finally:
        announce(6, "standard-schedule-exactness", ok, time.monotonic() - started)


def test_criterion_7_two_crashes_everywhere():
    started = time.monotonic()
    ok = True
    try:
        from math import gcd, lcm

        failures = []
        for seed in range(100):
            k = generate_random(seed, 4)
            rng = random.Random(seed)
            sch = {}
            for f in k.faces:
                n = len(f.boundary)
                sch[f.id] = uniform_schedule(f, Q(rng.randrange(4 * n), 4))
            periods = [s.period for s in sch.values()]
            common = Q(
                lcm(*(p.numerator for p in periods)),
                gcd(*(p.denominator for p in periods)),
            )
            good, _ = verify_at_least_two_crashes(k, sch, 2 * common)
            if not good:
                failures.append(seed)
        assert failures == []
    except AssertionError:
        ok = False
        raise
    finally:
        announce(7, "two-complete-crashes", ok, time.monotonic() - started)


def test_criterion_8_adversarial_meets_at_omega():
    started = time.monotonic()
    ok = True
    try:
        for i in range(20):
            k = generate_random(i, 3)
            inf_face = k.face_map[k.e_infinity]
            eid = inf_face.boundary[0][0]
            assert len(inf_face.boundary) == 1
            opp = [f for f, _ in k.edge_incidences(eid) if f != k.e_infinity][0]
            b = uniform_schedule(k.face_map[opp])
            omega = Q(i + 1, 22)
            horizon = 10 * b.period
            a = adversarial_schedule(k, b, omega, horizon)
            sch = {
                f.id: uniform_schedule(f)
                for f in k.faces
                if f.id not in (k.e_infinity, opp)
            }
            sch[k.e_infinity] = a
            sch[opp] = b
            events = simulate(k, sch, horizon)
            boundary_sites = {
                e.site
                for e in events
                if e.complete
                and (
                    e.site == ("vertex", k.v0)
                    or (e.site[0] == "edge" and e.site[1] == eid)
                )
            }
            assert boundary_sites == {("edge", eid, omega)}, (i, boundary_sites)
    except AssertionError:
        ok = False
        raise
    finally:
        announce(8, "adversarial-omega-crashes", ok, time.monotonic() - started)


def test_criterion_9_kernel_round_trip():
    started = time.monotonic()
    ok = True
    try:
        pool = [(s, e) for s in ("a", STABLE) for e in (1, -1)]
        count = 0
        for n in range(7):
            for combo in itertools.product(pool, repeat=n):
                word = free_reduce(combo)
                if exponent_sum(word) != 0:
                    continue
                assert expand(kernel_canonical_form(word)) == word
                count += 1
        assert count > 1000
    except AssertionError:
        ok = False
        raise
    finally:
        announce(9, "kernel-form-round-trip", ok, time.monotonic() - started)


def test_criterion_10_exponent_sum_soundness():
    started = time.monotonic()
    ok = True
    try:
        for letters in all_reduced(6):
            if not letters:
                continue  # the identity is not an admissible relator
            word = Word(letters)
            if abs(exponent_sum(word)) == 1:
                continue
            verdict = analyze(word, 2)
            assert (verdict.status, verdict.reason) == (
                "NotSurjective",
                "ExponentSum",
            )
    except AssertionError:
        ok = False
        raise
    finally:
        announce(10, "exponent-sum-soundness", ok, time.monotonic() - started)


def test_criterion_11_reducibility_detectors():
    started = time.monotonic()
    ok = True
    try:
        chain = bigon_pencil(("a", "b", "BA"))
        hit = detect_type2(chain)
        assert hit is not None and set(hit[0]) == {"f0", "f1", "f2"}
        assert detect_type1(mirrored_pair()) is not None
        witness_free = (
            triangle_pair(front=("a", "b", "c"), back=("a", "a", "a")),
            bigon_pencil(("a", "b")),
        )
        for golden in witness_free:
            assert detect_type1(golden) is None
            assert detect_type2(golden) is None
    except AssertionError:
        ok = False
        raise
    finally:
        announce(11, "reducibility-detectors", ok, time.monotonic() - started)
