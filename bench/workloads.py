"""The two workloads: seeded inputs, the items that call ``onerelator``, and
the checks that judge each item's output with :mod:`checks`.

``algebra`` joins the verdict items (surjectivity, with words inside it) and
the decomposition items (strata); ``crash`` joins the periodic CLI flows and
the wide complexes (spheres, traffic and cli).

``prepare(name, seed)`` returns the timed set-up ``build(lib, workdir)``,
which makes the inputs of one workload and returns its items.  An item's
``run`` is the timed call into the library; its ``check`` runs afterwards,
untimed, and returns a list of problems.
"""
from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import lcm

import checks as C

DEFAULT_SEEDS = {"algebra": 11, "crash": 13}

T_UP = (("t", 1),)


class Item:
    __slots__ = ("label", "run", "check")

    def __init__(self, label: str, run, check) -> None:
        self.label, self.run, self.check = label, run, check


def _letters(word) -> tuple:
    return tuple(word.letters)


def _random_reduced(rng: random.Random, symbols, length: int) -> tuple:
    """A reduced word of exactly ``length`` letters."""
    pool = [(s, e) for s in symbols for e in (1, -1)]
    out: list = []
    while len(out) < length:
        letter = rng.choice(pool)
        if out and letter == (out[-1][0], -out[-1][1]):
            continue
        out.append(letter)
    return tuple(out)


def all_reduced(symbols, max_len: int) -> list:
    pool = [(s, e) for s in symbols for e in (1, -1)]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (l,) for w in frontier for l in pool if not w or w[-1] != (l[0], -l[1])]
        out.extend(frontier)
    return out


# -- algebra: verdict items ----------------------------------------------------

#: fixed subset of the 27 non-collapsing classes of length <= 6 (the third in
#: canonical order); each run draws a seeded relabelling of each
CLASS_SUBSET = ("attbT",)

#: collapsing relators u g t^eps u^-1: (rank, quotient degree, |g|, count)
COLLAPSING = ((2, 5, 3, 1), (3, 4, 2, 1), (2, 4, 1, 10), (2, 4, 2, 10), (2, 4, 3, 10), (2, 4, 4, 10))


#: the census words are the same in every set-up, so the oracle's memo of
#: their brute-force forms lasts the whole run
_CENSUS_ORACLE = C.CensusOracle()


def _census_item(lib) -> Item:
    alphabet = lib.free_alphabet(2)
    words = all_reduced("abt", 6)
    texts = [C.fmt(w) for w in words]

    def run():
        results = []
        for text in texts:
            w = lib.parse_word(text, alphabet)
            results.append((
                lib.exponent_sum(w), lib.cyclic_reduce(w),
                lib.is_conjugate_to_gt(w), lib.conjugacy_canonical(w),
            ))
        classes = {}
        for text, (ex, (reduced, _), gt, canon) in zip(texts, results):
            if ex != 1 or gt is not None or len(reduced) != len(text):
                continue
            key = min(
                (_letters(lib.conjugacy_canonical(lib.Word(C.relabel(canon.letters, m))))
                 for m in C.RELABELLINGS),
                key=C.order_key,
            )
            classes.setdefault(key, canon)
        return results, classes

    oracle = _CENSUS_ORACLE

    def check(out):
        results, classes = out
        flat = [
            (ex, _letters(red), _letters(conj),
             None if gt is None else (_letters(gt[0]), gt[1]), _letters(canon))
            for ex, (red, conj), gt, canon in results
        ]
        return C.check_census(oracle, words, flat, {k: _letters(v) for k, v in classes.items()})

    return Item("census", run, check)


def _class_item(lib, rng: random.Random, name: str) -> Item:
    # a relabelling leaves the exhaustive kernel search's cost unchanged; a
    # rotation does not (up to 1.7x for attbT), so none is drawn
    relator = C.relabel(C.parse(name), rng.choice(C.RELABELLINGS))
    text = C.fmt(relator)
    alphabet = lib.free_alphabet(2)

    def run():
        w = lib.parse_word(text, alphabet)
        return (
            lib.analyze(w, 2),
            lib.normal_closure_search(w, (1,), 3, 3, alphabet=alphabet),
            lib.quotient_certificate(lib.one_relator_presentation(w, 2), 5),
        )

    def check(out):
        verdict, hit, cert = out
        problems = []
        if (verdict.status, verdict.reason) != ("NotSurjective", "MainTheorem"):
            problems.append(f"{text}: verdict {verdict.status}/{verdict.reason}")
        if hit is not None:
            problems.append(f"{text}: kernel hit {hit.element} contradicts the main theorem")
        if cert is None:
            problems.append(f"{text}: no quotient certificate up to degree 5")
        else:
            problems += C.check_certificate(relator, ("a", "b"), cert.degree, dict(cert.images))
        return problems

    return Item(f"class {text}", run, check)


def _collapsing_item(lib, rng: random.Random, rank: int, degree: int, g_len: int, u_len: int) -> Item:
    base = "abc"[:rank]
    eps = rng.choice((1, -1))
    g = _random_reduced(rng, base, g_len)
    # u must not cancel into g t^eps, so the relator keeps 2|u| + |g| + 1 letters
    u = _random_reduced(rng, base + "t", u_len)
    while u and u[-1] in ((g[0][0], -g[0][1]), ("t", eps)):
        u = _random_reduced(rng, base + "t", u_len)
    relator = C.mul(u, g, (("t", eps),), C.inverse(u))
    text = C.fmt(relator)
    alphabet = lib.free_alphabet(rank)

    def run():
        w = lib.parse_word(text, alphabet)
        return (
            lib.analyze(w, rank),
            lib.normal_closure_search(w, (eps,), 3, 3, alphabet=alphabet),
            lib.quotient_certificate(lib.one_relator_presentation(w, rank), degree),
        )

    def check(out):
        verdict, hit, cert = out
        problems = []
        if (verdict.status, verdict.reason) != ("Surjective", "GtCollapse"):
            problems.append(f"{text}: verdict {verdict.status}/{verdict.reason}")
        else:
            image = C.parse(verdict.evidence["t_image"])
            if C.substitute(relator, "t", image):
                problems.append(f"{text}: t -> {verdict.evidence['t_image']} leaves the relator")
            if verdict.evidence["epsilon"] != eps:
                problems.append(f"{text}: epsilon {verdict.evidence['epsilon']}")
        if hit is None:
            problems.append(f"{text}: no kernel element of shape ({eps},)")
        else:
            factors = [(_letters(u), sign) for u, sign in hit.factors]
            problems += C.check_kernel_hit(relator, _letters(hit.element), factors, (eps,))
        if cert is not None:
            problems.append(f"{text}: a degree-{cert.degree} certificate contradicts surjectivity")
        return problems

    return Item(f"collapse r{rank} d{degree} {text}", run, check)


def build_verdicts(lib, seed: int, workdir: str) -> list:
    rng = random.Random(f"verdicts-{seed}")
    items = [_census_item(lib)]
    items += [_class_item(lib, rng, name) for name in CLASS_SUBSET]
    slot = 0
    for rank, degree, g_len, count in COLLAPSING:
        for _ in range(count):
            items.append(_collapsing_item(lib, rng, rank, degree, g_len, slot % 4))
            slot += 1
    return items


# -- algebra: decomposition items ----------------------------------------------

#: (word length, indices of the fixed draws used).  The fourth draw of length
#: 28, ``aabTTaattaBTbAtAAAtBAbbABaBA``, is skipped and the fifth stands in for
#: it: that one search took 4.4 to 5.3 s, more than the other 45 words
#: together, so the rate would have timed one input.
DECOMPOSE_WORDS = tuple((n, (0, 1, 2, 4 if n == 28 else 3)) for n in range(10, 31, 2)) + (
    (32, (0,)), (34, (0,)),
)


def _fixed_word(length: int, index: int) -> tuple:
    """A reduced exponent-sum-one word drawn from a fixed seed."""
    rng = random.Random(f"decompose-word-{length}-{index}")
    while True:
        w = _random_reduced(rng, "abt", length)
        if C.exponent_sum(w) == 1:
            return w


def _conjugate(rng: random.Random, w: tuple) -> tuple:
    """u w u^-1 for a seeded u of 1 to 3 letters that cancels with nothing.

    ``cyclic_reduce`` strips u again and leaves w exactly, so the search the
    decomposition runs, and its cost, is the same for every u.  Seeded base
    letters would not do: a word's letters, not only its t-pattern, choose
    the rotation the search starts from, and changed one word's time 3.7-fold.
    """
    while True:
        u = _random_reduced(rng, "abt", rng.randint(1, 3))
        if u[-1] not in (w[-1], (w[0][0], -w[0][1])):
            return u + w + C.inverse(u)


def build_decompose(lib, seed: int, workdir: str) -> list:
    rng = random.Random(f"decompose-{seed}")
    alphabet = lib.free_alphabet(2)
    t_word = lib.Word(T_UP)
    return [
        _decompose_item(lib, alphabet, t_word, _conjugate(rng, _fixed_word(length, index)))
        for length, indices in DECOMPOSE_WORDS
        for index in indices
    ]


def _decompose_item(lib, alphabet, t_word, word) -> Item:
    text = C.fmt(word)

    def run():
        d = lib.lemma2_decompose(lib.parse_word(text, alphabet))
        two_var = lib.build_two_variable_word(d)
        return d, two_var, lib.substitute_aux(two_var, t_word)

    def check(out):
        d, two_var, substituted = out

        def factors(k):
            return [(_letters(g), level) for g, level in k.factors]

        problems = C.check_decomposition(
            word, d.m, [(factors(b), factors(a)) for b, a in d.pairs], factors(d.c),
            _letters(d.conjugator), _letters(two_var), _letters(substituted),
        )
        return [f"{text}: {p}" for p in problems]

    return Item(f"decompose {text}", run, check)


# -- crash: periodic flows through the CLI, and wide complexes ------------------

#: periodic complexes: (generate_random size, face count, common period,
#: count).  The 13 of period 30 are the slowest items of ``crash``, so its
#: tail (the 11th slowest) falls among them and not between them and the
#: wide complexes, whose slowest items change with the seed.  With three
#: sizes of period 12 alone, the p50 fell between two of them and spread by
#: 31% over ten seeds, so each period has one make-up.
CYCLE_SLOTS = ((8, 9, 12, 12), (6, 7, 30, 13))


def _common_period(k) -> int:
    return lcm(*(len(f.boundary) for f in k.faces))


def _tables(faces) -> tuple:
    return C.complex_tables(
        (f["id"], [(b["edge"], 1 if b["dir"] == "+" else -1) for b in f["boundary"]],
         [c["vertex"] for c in f["corners"]])
        for f in faces
    )


def _seeded_cars(face_ids_and_lengths, seed) -> dict:
    """Cars of ``onerelator simulate --seed``: unit speed, start drawn per face."""
    rng = random.Random(seed)
    return {fid: C.uniform_car(n, Fraction(rng.randrange(4 * n), 4)) for fid, n in face_ids_and_lengths}


def _check_events(events, cars, boundaries, corners_at) -> list:
    return [p for event in events for p in C.check_crash(event, cars, boundaries, corners_at)]


def _cycles_item(lib, path: str, doc: dict, sim_seed: int) -> Item:
    boundaries, corners_at = _tables(doc["faces"])
    euler, pairing = C.euler_and_pairing(
        doc["vertices"], [e["id"] for e in doc["edges"]], boundaries.values()
    )

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc_validate = lib.cli_main(["validate", "--complex", path])
            split = out.tell()
            rc_simulate = lib.cli_main(["simulate", "--complex", path, "--seed", str(sim_seed)])
        text = out.getvalue()
        return rc_validate, rc_simulate, text[:split], text[split:]

    def check(out):
        rc_validate, rc_simulate, validate_text, simulate_text = out
        if (rc_validate, rc_simulate) != (0, 0):
            return [f"{path}: exit codes {rc_validate}, {rc_simulate}"]
        report = json.loads(validate_text)["report"]
        problems = []
        if not report["passed"] or (report["euler"], report["edge_pairing"]) != (euler, pairing):
            problems.append(f"{path}: validation {report['passed']}, euler/pairing disagree")
        sim = json.loads(simulate_text)["report"]
        cars = _seeded_cars(((f["id"], len(f["boundary"])) for f in doc["faces"]), sim_seed)
        complete = [
            (Fraction(e["time"]),
             ("edge", e["site"]["edge"], Fraction(e["site"]["coordinate"]))
             if e["site"]["kind"] == "edge" else ("vertex", e["site"]["vertex"]),
             tuple(e["participants"]))
            for e in sim["events"] if e["complete"]
        ]
        if sim["at_least_two_complete_crashes"] is not True or len(complete) < 2:
            problems.append(f"{path}: fewer than two complete crashes")
        problems += _check_events(complete, cars, boundaries, corners_at)
        return problems

    return Item(f"cycles {os.path.basename(path)}", run, check)


def pick_crash_cycles(seed: int) -> tuple:
    """(size, generate_random seed, simulate seed) of each periodic item.

    Finding complexes of the wanted make-up took 240 to 560 (five seeds)
    generate_random draws, a number that depends on the seed.  The search
    runs once per run, untimed, so that set-up time covers generating and
    writing the 25 inputs and not how long a seed's search happens to be.
    """
    from onerelator.spheres import generate_random

    rng = random.Random(f"crash_cycles-{seed}")
    picks = []
    for size, faces, period, count in CYCLE_SLOTS:
        for _ in range(count):
            while True:
                gen_seed = rng.randrange(10**9)
                k = generate_random(gen_seed, size)
                if len(k.faces) == faces and _common_period(k) == period:
                    break
            picks.append((size, gen_seed, rng.randrange(10**6)))
    return tuple(picks)


def build_crash_cycles(lib, picks: tuple, workdir: str) -> list:
    items = []
    for size, gen_seed, sim_seed in picks:
        path = os.path.join(workdir, f"complex-{len(items):02d}-{gen_seed}.json")
        lib.save_complex(lib.generate_random(gen_seed, size), path)
        with open(path) as fh:
            doc = json.load(fh)
        items.append(_cycles_item(lib, path, doc, sim_seed))
    return items


#: wide complexes: (generate_random size, count); horizon of every flow
WIDE_SIZES = ((20, 8), (30, 8), (40, 8), (50, 8))
WIDE_HORIZON = Fraction(6)


def _schedule_car(s) -> C.Car:
    return C.Car(s.circuit, s.breakpoints, s.period)


def _wide_item(lib, k, rng: random.Random, planner: str) -> Item:
    starts = {f.id: Fraction(rng.randrange(4 * len(f.boundary)), 4) for f in k.faces}
    omega = Fraction(rng.randrange(1, 12), 12)
    outer = k.e_infinity
    out_edge, out_dir = k.face_map[outer].boundary[0]
    opposite = next(f for f, _ in k.edge_incidences(out_edge) if f != outer)
    boundaries, corners_at = C.complex_tables(
        (f.id, f.boundary, [v for v, _ in f.corners]) for f in k.faces
    )
    faces = {f.id: (f.boundary, [() if lbl is None else _letters(lbl) for _, lbl in f.corners])
             for f in k.faces}
    corners = {f.id: [(v, () if lbl is None else _letters(lbl)) for v, lbl in f.corners]
               for f in k.faces}
    euler, pairing = C.euler_and_pairing(k.vertices, [e for e, _, _ in k.edges], boundaries.values())
    seeded = {f.id: C.uniform_car(len(f.boundary), starts[f.id]) for f in k.faces}
    at_omega = ("edge", out_edge, omega if out_dir > 0 else 1 - omega)
    horizon = WIDE_HORIZON

    def run():
        report = lib.validate_sphere(k)
        type1, type2 = lib.detect_type1(k), lib.detect_type2(k)
        schedules = {f.id: lib.uniform_schedule(f, starts[f.id]) for f in k.faces}
        free_events = lib.simulate(k, schedules, horizon)
        if planner == "adversarial":
            plan = dict(schedules)
            plan[outer] = lib.adversarial_schedule(k, schedules[opposite], omega, horizon)
        else:
            plan = lib.uphill_schedule(k, omega, horizon)
        return report, type1, type2, free_events, plan, lib.simulate(k, plan, horizon)

    def check(out):
        report, type1, type2, free_events, plan, planned_events = out
        problems = []
        if not report.passed or (report.euler, report.edge_pairing) != (euler, pairing):
            problems.append("validation disagrees with the Euler and edge-pairing count")
        if type1 is not None:
            problems += C.check_type1(faces, outer, type1)
        if type2 is not None:
            problems += C.check_type2(faces, corners, type2)

        def complete(events):
            return [(e.time, e.site, e.participants) for e in events if e.complete]

        problems += _check_events(complete(free_events), seeded, boundaries, corners_at)
        cars = {fid: _schedule_car(s) for fid, s in plan.items()}
        if planner == "adversarial":
            cars = {**seeded, outer: cars[outer]}
        planned = complete(planned_events)
        problems += _check_events(planned, cars, boundaries, corners_at)
        for time, site, who in planned:
            if outer in who and site != at_omega:
                problems.append(f"outer car crashes at {site}, time {time}, not at omega {omega}")
        return problems

    return Item(f"wide {len(k.faces)} faces {planner}", run, check)


def build_crash_wide(lib, seed: int, workdir: str) -> list:
    rng = random.Random(f"crash_wide-{seed}")
    items = []
    for size, count in WIDE_SIZES:
        for _ in range(count):
            k = lib.generate_random(rng.randrange(10**9), size)
            planner = ("adversarial", "uphill")[len(items) % 2]
            items.append(_wide_item(lib, k, rng, planner))
    return items


def prepare(name: str, seed: int):
    """The timed set-up of one workload, ``build(lib, workdir) -> items``,
    after any untimed choices it needs (see :func:`pick_crash_cycles`)."""
    if name == "algebra":
        return lambda lib, workdir: build_verdicts(lib, seed, workdir) + build_decompose(lib, seed, workdir)
    picks = pick_crash_cycles(seed)
    return lambda lib, workdir: build_crash_cycles(lib, picks, workdir) + build_crash_wide(lib, seed, workdir)
