"""Self-test of the benchmark's checkers: each must pass a real output of
``onerelator`` and reject the same output corrupted in one place.

    python3 bench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.
"""
from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks as C  # noqa: E402
import onerelator  # noqa: E402
import onerelator.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = tracing.Lib(onerelator)


def letters(word) -> tuple:
    return tuple(word.letters)


def certificate_case():
    relator = C.parse("attbT")
    pres = onerelator.one_relator_presentation(onerelator.Word(relator), 2)
    cert = onerelator.quotient_certificate(pres, 5)
    images = dict(cert.images)
    good = C.check_certificate(relator, ("a", "b"), cert.degree, images)
    p = list(images["t"])
    p[0], p[1] = p[1], p[0]
    bad = C.check_certificate(relator, ("a", "b"), cert.degree, dict(images, t=tuple(p)))
    return "certificate with one image swapped", good, bad


def _crash_setup():
    k = onerelator.generate_random(3, 4)
    rng = random.Random(5)
    starts = {f.id: Fraction(rng.randrange(4 * len(f.boundary)), 4) for f in k.faces}
    schedules = {f.id: onerelator.uniform_schedule(f, starts[f.id]) for f in k.faces}
    events = [e for e in onerelator.simulate(k, schedules, 24) if e.complete]
    cars = {f.id: C.uniform_car(len(f.boundary), starts[f.id]) for f in k.faces}
    boundaries, corners_at = C.complex_tables(
        (f.id, f.boundary, [v for v, _ in f.corners]) for f in k.faces
    )
    return events, cars, boundaries, corners_at


def crash_cases():
    events, cars, boundaries, corners_at = _crash_setup()
    edge = next(e for e in events if e.site[0] == "edge")
    vertex = next(e for e in events if e.site[0] == "vertex")
    shift = Fraction(1, 7)
    cases = []
    for label, event, moved in (
        ("edge crash shifted in time", edge, (edge.time + shift, edge.site)),
        ("edge crash shifted in coordinate", edge,
         (edge.time, edge.site[:2] + ((edge.site[2] + shift) % 1,))),
        ("vertex crash shifted in time", vertex, (vertex.time + shift, vertex.site)),
    ):
        good = C.check_crash((event.time, event.site, event.participants), cars, boundaries, corners_at)
        bad = C.check_crash(moved + (event.participants,), cars, boundaries, corners_at)
        cases.append((label, good, bad))
    return cases


def decomposition_case():
    rng = random.Random(99)
    while True:  # a short exponent-sum-one word whose decomposition has pairs
        word = C.reduce(rng.choice(C.parse("aAbBtT")) for _ in range(12))
        if C.exponent_sum(word) == 1:
            d = onerelator.lemma2_decompose(onerelator.Word(word))
            if d.pairs:
                break
    two_var = onerelator.build_two_variable_word(d)
    substituted = onerelator.substitute_aux(two_var, onerelator.Word((("t", 1),)))

    def factors(k):
        return [(letters(g), level) for g, level in k.factors]

    pairs = [(factors(b), factors(a)) for b, a in d.pairs]
    args = (factors(d.c), letters(d.conjugator), letters(two_var), letters(substituted))
    good = C.check_decomposition(word, d.m, pairs, *args)
    bad = C.check_decomposition(word, d.m, pairs[1:], *args)
    return f"decomposition of {C.fmt(word)} with one of {len(pairs)} pairs dropped", good, bad


def kernel_case():
    relator = C.parse("tabtAT")  # (ta) b t (ta)^-1, a conjugate of b t
    hit = onerelator.normal_closure_search(
        onerelator.Word(relator), (1,), 3, 3, alphabet=onerelator.free_alphabet(2)
    )
    factors = [(letters(u), sign) for u, sign in hit.factors]
    good = C.check_kernel_hit(relator, letters(hit.element), factors, (1,))
    wrong = [(C.mul(factors[0][0], (("a", 1),)), factors[0][1])] + factors[1:]
    bad = C.check_kernel_hit(relator, letters(hit.element), wrong, (1,))
    return "kernel hit with a wrong factor", good, bad


def census_case():
    item = workloads.build_verdicts(LIB, 0, HERE)[0]
    results, classes = item.run()
    good = item.check((results, classes))
    missing = dict(classes)
    missing.pop(next(iter(missing)))
    bad = item.check((results, missing))
    return f"census with one of {len(classes)} classes missing", good, bad


def main() -> int:
    cases = [certificate_case(), *crash_cases(), decomposition_case(), kernel_case(), census_case()]
    ok = True
    for label, good, bad in cases:
        passed = not good and bool(bad)
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {label}: real output {good or 'accepted'}, "
              f"corrupted {'rejected: ' + bad[0] if bad else 'accepted'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
