"""Traffic flows: schedules, exact crash detection, adversarial planning."""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction as Q
from pathlib import Path

import pytest

from onerelator import (
    CrashEvent,
    Face,
    FlowSchedule,
    ScheduleError,
    add_loop,
    adversarial_schedule,
    crash_vertex_reading,
    dipole,
    generate_random,
    simulate,
    standard_schedule,
    standard_schedule_II,
    uniform_schedule,
    uphill_schedule,
    validate_sphere,
    verify_at_least_two_crashes,
)
from onerelator.spheres import SphereComplex
from onerelator.traffic import _free_window, _merge_intervals, _pieces, common_period
from conftest import (
    IDENT,
    bigon_pencil,
    bigon_sphere,
    mirrored_pair,
    tetrahedron,
    triangle_pair,
    uphill_two_edge,
)
from spheres_reference import crash_vertex_reading as reference_crash_vertex_reading
from traffic_reference import _pieces as reference_pieces
from traffic_reference import free_window as reference_free_window
from traffic_reference import simulate as reference_simulate


def ngon(n):
    """A free-standing n-gon face for schedule-only tests."""
    return Face(
        "f",
        tuple((f"e{i}", 1) for i in range(n)),
        tuple((f"v{i}", IDENT) for i in range(n)),
    )


# -- schedule validation ------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        FlowSchedule("f", 2, ((Q(0), Q(0)),))
    with pytest.raises(ScheduleError):
        FlowSchedule("f", 2, ((Q(1), Q(0)), (Q(2), Q(2))))
    with pytest.raises(ScheduleError):
        FlowSchedule("f", 2, ((Q(0), Q(0)), (Q(0), Q(2))))
    with pytest.raises(ScheduleError):
        FlowSchedule("f", 2, ((Q(0), Q(1)), (Q(2), Q(0))))
    with pytest.raises(ScheduleError):
        FlowSchedule("f", 2, ((Q(0), Q(0)), (Q(2), Q(2))), period=Q(3))
    with pytest.raises(ScheduleError):
        FlowSchedule("f", 2, ((Q(0), Q(0)), (Q(2), Q(1))), period=Q(2))
    # a circuit below 1 would divide by zero in _occupancy or run backwards
    for circuit, period in ((0, None), (0, Q(1)), (-2, None)):
        with pytest.raises(ScheduleError, match="circuit must be positive"):
            FlowSchedule("f", circuit, ((Q(0), Q(0)), (Q(1), Q(0))), period=period)
    for period in (Q(0), Q(-2)):
        with pytest.raises(ScheduleError, match="period must be positive"):
            FlowSchedule("f", 2, ((Q(0), Q(0)), (Q(2), Q(2))), period=period)


def test_schedule_position_and_wrap():
    s = uniform_schedule(ngon(3))
    assert s.position(Q(1, 2)) == Q(1, 2)
    assert s.position(Q(7, 2)) == Q(7, 2)  # unwrapped across periods
    assert s.position(Q(-1)) == Q(-1)
    finite = FlowSchedule("f", 1, ((Q(0), Q(0)), (Q(1), Q(1))))
    with pytest.raises(ScheduleError):
        finite.position(Q(2))
    assert finite.period is None and finite.breakpoints[-1][0] == 1
    assert s.period == 3


# -- standard schedules -------------------------------------------------------


@pytest.mark.parametrize("r", range(5))
def test_standard_schedule_contract(r):
    face = ngon(2 * r + 3)
    s = standard_schedule(face, r)
    assert s.period == (Q(3) if r == 0 else Q(4 * r + 2))
    # corner i is reached at time i for the opening corners
    for i in range(2 * r + 3):
        if i <= 2 * r + 2:
            assert s.position(Q(i)) == i
    bps = s.breakpoints
    stops = [(t0, t1, p0) for (t0, p0), (t1, p1) in zip(bps, bps[1:]) if p0 == p1]
    if r == 0:
        assert stops == []
    else:
        ((t0, t1, corner),) = stops
        assert corner == 2 * r + 2
        assert t1 - t0 == 2 * r - 1 and t0 == 2 * r + 2
    # exactly one circuit per period
    assert s.position(s.period) - s.position(Q(0)) == s.circuit


def test_standard_schedule_errors():
    with pytest.raises(ScheduleError):
        standard_schedule(ngon(4), 1)
    with pytest.raises(ScheduleError):
        standard_schedule(ngon(3), -1)


def test_standard_schedule_II():
    s = standard_schedule_II(ngon(2), start_corner=1)
    assert s.period == 2 and s.position(Q(1, 2)) == Q(3, 2)
    with pytest.raises(ScheduleError):
        standard_schedule_II(ngon(3))


# -- simulation against a hand oracle ----------------------------------------


def test_bigon_same_phase_oracle():
    """Equal phases: complete valency-2 vertex crashes at every integer time."""
    k = bigon_sphere()
    sch = {f.id: uniform_schedule(f) for f in k.faces}
    events = simulate(k, sch, Q(4))
    assert events and all(e.complete for e in events)
    assert all(e.site[0] == "vertex" for e in events)
    got = {(e.time, e.site[1]) for e in events}
    expected = {(Q(t), "u" if t % 2 == 0 else "v") for t in range(5)}
    assert got == expected
    assert all(e.participants == ("f1", "f2") for e in events)


def test_bigon_opposite_phase_oracle():
    """Opposite phases: interior edge crashes at half-integer times, coord 1/2."""
    k = bigon_sphere()
    sch = {
        "f1": uniform_schedule(k.face_map["f1"]),
        "f2": uniform_schedule(k.face_map["f2"], start=Q(1)),
    }
    events = simulate(k, sch, Q(4))
    assert events and all(e.complete for e in events)
    assert {e.time for e in events} == {Q(2 * i + 1, 2) for i in range(4)}
    assert all(e.site[0] == "edge" and e.site[2] == Q(1, 2) for e in events)
    # the meeting alternates between the two edges
    assert {e.site[1] for e in events} == {"e1", "e2"}


def test_simulate_guards():
    k = bigon_sphere()
    sch = {f.id: uniform_schedule(f) for f in k.faces}
    assert simulate(k, sch, Q(0)) == ()
    with pytest.raises(ScheduleError):
        simulate(k, {"f1": sch["f1"]}, Q(2))
    with pytest.raises(ScheduleError):
        simulate(k, {"f1": sch["f2"], "f2": sch["f1"]}, Q(2))
    bad = FlowSchedule("f1", 3, ((Q(0), Q(0)), (Q(3), Q(3))), period=Q(3))
    with pytest.raises(ScheduleError):
        simulate(k, {"f1": bad, "f2": sch["f2"]}, Q(2))


def test_verify_two_crashes():
    k = bigon_sphere()
    sch = {f.id: uniform_schedule(f) for f in k.faces}
    ok, events = verify_at_least_two_crashes(k, sch, Q(4))
    assert ok and len([e for e in events if e.complete]) >= 2
    with pytest.raises(ScheduleError):
        verify_at_least_two_crashes(k, sch, Q(3))
    finite = FlowSchedule("f1", 2, ((Q(0), Q(0)), (Q(4), Q(4))))
    with pytest.raises(ScheduleError):
        verify_at_least_two_crashes(k, {"f1": finite, "f2": sch["f2"]}, Q(8))


def test_common_period():
    half = FlowSchedule("f1", 1, ((Q(0), Q(0)), (Q(3, 2), Q(1))), period=Q(3, 2))
    two = FlowSchedule("f2", 1, ((Q(0), Q(0)), (Q(2), Q(1))), period=Q(2))
    assert common_period({"f1": half, "f2": two}) == 6
    assert common_period({"f1": half}) == Q(3, 2)
    finite = FlowSchedule("f1", 2, ((Q(0), Q(0)), (Q(4), Q(4))))
    with pytest.raises(ScheduleError):
        common_period({"f1": finite, "f2": two})
    with pytest.raises(ScheduleError, match="no schedules"):
        common_period({})


# -- simulation against the reference scan -----------------------------------


def schedule(face, *bps):
    """Periodic schedule through the given (time, position) breakpoints."""
    bps = tuple((Q(t), Q(p)) for t, p in bps)
    return FlowSchedule(face, int(bps[-1][1] - bps[0][1]), bps, period=bps[-1][0])


def random_schedule(face, rng):
    """Periodic schedule with random speeds, corner stops and parking inside
    edges: the car parks wherever a position repeats."""
    n = len(face.boundary)
    start = Q(rng.randrange(4 * n), 4)
    marks = sorted(Q(rng.randrange(4 * n + 1), 4) for _ in range(rng.randrange(4)))
    bps = [(Q(0), start)]
    for m in marks + [n]:
        if rng.random() < 0.5:
            bps.append((bps[-1][0] + Q(rng.randrange(1, 5), 2), bps[-1][1]))
        bps.append((bps[-1][0] + Q(rng.randrange(1, 5), 2), start + m))
    return FlowSchedule(face.id, n, tuple(bps), period=bps[-1][0])


def assert_matches_reference(k, sch, horizon):
    assert simulate(k, sch, horizon) == reference_simulate(k, sch, horizon)


def test_reference_random_complexes_uniform_phases():
    for seed in range(100):
        rng = random.Random(seed)
        for size in range(1, 9):
            k = generate_random(seed, size)
            sch = {
                f.id: uniform_schedule(f, Q(rng.randrange(4 * len(f.boundary)), 4))
                for f in k.faces
            }
            assert_matches_reference(k, sch, Q(13, 2))


def test_reference_random_schedules():
    hand_built = [
        bigon_sphere(),
        triangle_pair(),
        mirrored_pair(),
        tetrahedron(),
        bigon_pencil(("a", "b", "")),
        uphill_two_edge(),
    ]
    for seed in range(60):
        rng = random.Random(seed)
        k = hand_built[seed % 6] if seed < 30 else generate_random(seed, seed % 6 + 1)
        sch = {f.id: random_schedule(f, rng) for f in k.faces}
        assert_matches_reference(k, sch, Q(12))


def test_reference_outer_car_plans():
    for seed in range(20):
        k = generate_random(seed, seed % 5 + 1)
        assert_matches_reference(k, uphill_schedule(k, Q(1, 3), Q(12)), Q(12))
        inf_face = k.face_map[k.e_infinity]
        if len(inf_face.boundary) != 1:
            continue
        eid = inf_face.boundary[0][0]
        opp = [f for f, _ in k.edge_incidences(eid) if f != k.e_infinity][0]
        sch = {f.id: uniform_schedule(f) for f in k.faces}
        sch[k.e_infinity] = adversarial_schedule(k, sch[opp], Q(1, 3), Q(12))
        assert_matches_reference(k, sch, Q(12))
    k = uphill_two_edge()
    assert_matches_reference(k, uphill_schedule(k, Q(1, 2), Q(24)), Q(24))


def seam_flows():
    """Periodic flows whose events at multiples of the common period, or at
    a horizon a part period past one, are not copies of the events at the
    end of the first period."""
    k = bigon_sphere()
    # parked together at the middle of e1 over [2, 4]: the meeting at 3 is
    # found from the stays that start there, as it is at 0
    parked = {
        "f1": schedule("f1", (0, Q(1, 2)), (1, Q(1, 2)), (2, Q(5, 2)), (3, Q(5, 2))),
        "f2": schedule("f2", (0, Q(3, 2)), (1, Q(3, 2)), (2, Q(7, 2)), (3, Q(7, 2))),
    }
    pencil = bigon_pencil(("a", "b", "c"))

    def wait(f):
        return schedule(f, (0, 0), (1, 0), (3, 2), (4, 2))

    # f1 and f2 wait at u over [3, 5]; f0 passes u at 4, which leaves the
    # two of them there in the open gap after 4, as after 0
    passing = {
        "f0": schedule("f0", (0, 0), (2, 1), (4, 2)),
        "f1": wait("f1"),
        "f2": wait("f2"),
    }
    # f0 leaves u at 1/2 and at 9/2, where the horizon 9/2 cuts the gap after
    leaving = {
        "f0": schedule("f0", (0, 0), (Q(1, 2), 0), (4, 2)),
        "f1": wait("f1"),
        "f2": wait("f2"),
    }
    return [(k, parked), (pencil, passing), (pencil, leaving)]


def test_reference_folded_horizons():
    """Folding the flow to one common period P changes no event, at
    horizons below P, at P, a part period past it and at multiples of it:
    the seam flows, random stops and parking on the hand-built complexes,
    and uniform phases on random complexes."""
    hand_built = [
        bigon_sphere(),
        triangle_pair(),
        mirrored_pair(),
        tetrahedron(),
        bigon_pencil(("a", "b", "")),
        uphill_two_edge(),
    ]
    cases = seam_flows()
    for seed in range(36):
        rng = random.Random(seed)
        k = hand_built[seed % 6]
        cases.append((k, {f.id: random_schedule(f, rng) for f in k.faces}))
    for seed in range(24):
        rng = random.Random(seed)
        k = generate_random(seed, seed % 4 + 1)
        cases.append((k, {
            f.id: uniform_schedule(f, Q(rng.randrange(4 * len(f.boundary)), 4))
            for f in k.faces
        }))
    folded = 0
    for k, sch in cases:
        p = common_period(sch)
        if p > 20:
            continue
        folded += 1
        for horizon in (p / 2, p, p + Q(1, 3), p + Q(1, 2), 2 * p, 5 * p / 2, 3 * p):
            assert_matches_reference(k, sch, horizon)
    assert folded >= 36


def test_folded_start_is_not_repeated():
    """Both cars wait at u over [3, 5], across the period boundary at
    P = 4, so u is occupied at t = 0 and does not change at 4: the sweep
    reports u at 0, where it has no earlier instant to compare with, and
    the fold must not copy that event to 4 or 8."""
    k = bigon_sphere()
    sch = {f: schedule(f, (0, 0), (1, 0), (3, 2), (4, 2)) for f in ("f1", "f2")}
    events = simulate(k, sch, Q(10))
    assert events == reference_simulate(k, sch, Q(10))
    at_u = [e.time for e in events if e.site == ("vertex", "u")]
    assert at_u == [Q(0), Q(3), Q(7)]


def _pieces_or_error(pieces, s, horizon):
    try:
        return pieces(s, horizon)
    except ScheduleError as exc:
        return str(exc)


def test_pieces_match_reference():
    """The pieces of the unrolled, clipped breakpoints equal the reference's
    segments, clipped one period at a time and refined: for uniform cars
    on random complexes, a stop-and-go car and a finite schedule, at
    horizons on a breakpoint, on a multiple of the period, inside a segment
    and past the end of the finite schedule, which both refuse."""
    stop_and_go = schedule(
        "f", (0, Q(1, 2)), (1, Q(1, 2)), (Q(5, 2), 2), (4, 2), (5, Q(7, 2))
    )
    finite = FlowSchedule(
        "f", 3, ((Q(0), Q(0)), (Q(2), Q(1)), (Q(3), Q(1)), (Q(7), Q(5)))
    )
    cases = [stop_and_go, finite]
    for seed in range(30):
        rng = random.Random(seed)
        k = generate_random(seed, seed % 8 + 1)
        cases += [
            uniform_schedule(f, Q(rng.randrange(4 * len(f.boundary)), 4))
            for f in k.faces
        ]
    outcomes = set()
    for s in cases:
        span = s.period or s.breakpoints[-1][0]
        bps = s.breakpoints
        times = [t for t, _ in bps[1:]]
        middles = [(a + b) / 2 for (a, _), (b, _) in zip(bps, bps[1:])]
        horizons = {
            lap * span + t
            for lap in range(3)
            for t in times + middles + [Q(1, 3)]
        }
        for horizon in sorted(horizons):
            got = _pieces_or_error(_pieces, s, horizon)
            assert got == _pieces_or_error(reference_pieces, s, horizon), horizon
            outcomes.add(type(got))
    assert outcomes == {list, str}  # the finite schedule was refused past its end


def _window_or_error(find, busy, a, b):
    try:
        return find(busy, a, b)
    except ScheduleError as exc:
        return str(exc)


def test_free_window_matches_reference():
    """The one-pass window search equals the all-gaps scan it replaced, its
    "no free window" refusals included: on merged busy lists with instants
    and with touching spans merged, and on windows that start before,
    inside, at the end of or after a span, or that are empty."""
    outcomes = set()
    for seed in range(3000):
        rng = random.Random(seed)
        spans = []
        for _ in range(rng.randrange(6)):
            x = Q(rng.randrange(24), 2)
            spans.append((x, x + Q(rng.choice((0, 0, 1, 2, 3, 5)), 2)))
        busy = _merge_intervals(spans)
        marks = sorted({t for span in busy for t in span} | {Q(0), Q(14)})
        a = rng.choice(marks) if rng.random() < 0.5 else Q(rng.randrange(56), 4)
        b = a + Q(rng.randrange(14), 2)
        got = _window_or_error(_free_window, busy, a, b)
        assert got == _window_or_error(reference_free_window, busy, a, b)
        outcomes.add(type(got))
    assert outcomes == {tuple, str}  # both windows and refusals were compared


def test_reference_parked_across_stay_boundary():
    """Both cars park at the middle of e1; f1's parking is split at t = 1."""
    k = bigon_sphere()
    sch = {
        "f1": schedule("f1", (0, Q(1, 2)), (1, Q(1, 2)), (2, Q(1, 2)), (4, Q(5, 2))),
        "f2": schedule("f2", (0, Q(3, 2)), (3, Q(3, 2)), (5, Q(7, 2))),
    }
    events = simulate(k, sch, Q(6))
    assert events == reference_simulate(k, sch, Q(6))
    parked = {e.time for e in events if e.site == ("edge", "e1", Q(1, 2))}
    assert {Q(0), Q(1)} <= parked


def test_reference_meeting_at_shared_endpoint():
    """Both cars reach the middle of e1 at t = 1, where each changes speed."""
    k = bigon_sphere()
    sch = {
        "f1": schedule("f1", (0, 0), (1, Q(1, 2)), (2, 2)),
        "f2": schedule("f2", (0, 0), (Q(1, 2), 1), (1, Q(3, 2)), (3, 2)),
    }
    events = simulate(k, sch, Q(6))
    assert events == reference_simulate(k, sch, Q(6))
    assert CrashEvent(Q(1), ("edge", "e1", Q(1, 2)), ("f1", "f2"), True) in events


def test_reference_corner_stop_across_period():
    """f1 waits at u over [3, 5], across its period boundary at 4."""
    k = bigon_sphere()
    sch = {
        "f1": schedule("f1", (0, 0), (1, 0), (3, 2), (4, 2)),
        "f2": uniform_schedule(k.face_map["f2"]),
    }
    events = simulate(k, sch, Q(10))
    assert events == reference_simulate(k, sch, Q(10))
    assert CrashEvent(Q(4), ("vertex", "u"), ("f1", "f2"), True) in events


# -- crash-vertex readings ----------------------------------------------------


def full_vertex_event(k, vid):
    sch = {f.id: uniform_schedule(f) for f in k.faces}
    events = simulate(k, sch, Q(4))
    hits = [e for e in events if e.complete and e.site == ("vertex", vid)]
    assert hits, "expected a complete crash at the vertex"
    return sch, hits[0]


def test_reading_type1():
    k = bigon_pencil(("a", "A"))
    _, event = full_vertex_event(k, "u")
    reading = crash_vertex_reading(k, event)
    assert reading.classification == "Type1Witness"
    assert reading.word.is_identity()


def test_reading_type2():
    k = bigon_pencil(("a", "b"), ("", ""))
    _, event = full_vertex_event(k, "v")
    reading = crash_vertex_reading(k, event)
    assert reading.classification == "Type2Witness"
    assert reading.detail == "trivial product of corners 0..0"
    k = bigon_pencil(("a", "b", "c"), ("a", "", "b"))
    _, event = full_vertex_event(k, "v")
    reading = crash_vertex_reading(k, event)
    assert (reading.classification, reading.detail) == (
        "Type2Witness",
        "trivial product of corners 1..1",
    )


def test_reading_matches_reference_on_every_small_cycle():
    """Every cycle of 1-4 corner labels at a vertex reads as it did when each
    window of each span was reduced afresh."""
    labels = ("", "a", "A", "b", "B", "ab", "BA", "aB", "bA", "aa", "aba")
    seen = set()
    for n in range(1, 5):
        for cycle in itertools.product(labels, repeat=n):
            k = bigon_pencil(("a",) * n, cycle)
            cars = tuple(f.id for f in k.faces)
            event = CrashEvent(Q(0), ("vertex", "v"), cars, True)
            reading = crash_vertex_reading(k, event)
            assert reading == reference_crash_vertex_reading(k, event)
            seen.add(reading.classification)
    assert seen == {"Type1Witness", "Type2Witness", "FreenessViolation"}


def test_reading_freeness_violation():
    k = bigon_pencil(("a", "b"))
    _, event = full_vertex_event(k, "u")
    reading = crash_vertex_reading(k, event)
    assert reading.classification == "FreenessViolation"
    assert len(reading.word.letters) == 2


def test_reading_requires_complete_vertex_event():
    k = bigon_pencil(("a", "b"))
    edge_event = CrashEvent(Q(1), ("edge", "e0", Q(1, 2)), ("f0", "f1"), True)
    with pytest.raises(ValueError):
        crash_vertex_reading(k, edge_event)
    partial = CrashEvent(Q(0), ("vertex", "u"), ("f0", "f1"), False)
    with pytest.raises(ValueError):
        crash_vertex_reading(k, partial)


# -- the adversarial outer car ------------------------------------------------


def loop_complex():
    """Outer loop edge whose inner side is a 2-gon with a pendant loop face."""
    return add_loop(dipole(), "f0", 0, iter(itertools.count(1)))


def outer_sites(events, outer="f_inf"):
    return {e.site for e in events if e.complete and outer in e.participants}


def test_adversarial_meets_only_at_omega():
    k = loop_complex()
    omega, horizon = Q(1, 3), Q(20)
    b = uniform_schedule(k.face_map["f0"])
    a = adversarial_schedule(k, b, omega, horizon)
    assert a.period is None and a.breakpoints[-1][0] == horizon
    sch = {"f_inf": a, "f0": b, "f1": uniform_schedule(k.face_map["f1"])}
    events = simulate(k, sch, horizon)
    assert outer_sites(events) == {("edge", "e_inf", omega)}
    meetings = [e for e in events if e.complete and "f_inf" in e.participants]
    assert len(meetings) >= 2
    # a finite opposing car has no period to look ahead with; it runs to the
    # horizon, stops at a corner, stops inside e_inf short of omega (a pass
    # that never crosses it) or waits at omega, from three start offsets
    horizon = Q(10)
    for stop in (None, Q(4), Q(11, 2), Q(17, 3)):
        for s in (Q(0), Q(1, 2), Q(3, 2)):
            if stop is None:
                bps = ((Q(0), s), (horizon, s + horizon))
            else:
                bps = ((Q(0), s), (stop - s, stop), (horizon, stop))
            b = FlowSchedule("f0", 2, bps)
            a = adversarial_schedule(k, b, omega, horizon)
            assert a.breakpoints[-1][0] == horizon
            sch = {"f_inf": a, "f0": b, "f1": uniform_schedule(k.face_map["f1"])}
            events = simulate(k, sch, horizon)
            assert outer_sites(events) == {("edge", "e_inf", omega)}, (stop, s)


def test_adversarial_negative_control():
    """A naive uniform outer car crashes away from omega."""
    k = loop_complex()
    b = uniform_schedule(k.face_map["f0"])
    sch = {
        "f_inf": uniform_schedule(k.face_map["f_inf"]),
        "f0": b,
        "f1": uniform_schedule(k.face_map["f1"]),
    }
    events = simulate(k, sch, Q(20))
    off = [
        e
        for e in events
        if e.complete
        and "f_inf" in e.participants
        and e.site != ("edge", "e_inf", Q(1, 3))
    ]
    assert off, "uniform control should produce off-target crashes"


def test_adversarial_preconditions():
    k = loop_complex()
    b = uniform_schedule(k.face_map["f0"])
    with pytest.raises(ScheduleError):
        adversarial_schedule(k, b, Q(0), Q(10))
    with pytest.raises(ScheduleError):
        adversarial_schedule(k, b, Q(3, 2), Q(10))
    with pytest.raises(ScheduleError):
        adversarial_schedule(k, uniform_schedule(k.face_map["f1"]), Q(1, 3), Q(10))
    plain = dipole()
    with pytest.raises(ScheduleError):
        adversarial_schedule(
            plain, uniform_schedule(plain.face_map["f0"]), Q(1, 3), Q(10)
        )
    # f0 has two edges: a schedule of another circuit does not fit it
    for circuit in (1, 3):
        bps = ((Q(0), Q(0)), (Q(circuit), Q(circuit)))
        wrong = FlowSchedule("f0", circuit, bps, period=Q(circuit))
        with pytest.raises(ScheduleError, match="circuit mismatch on face f0"):
            adversarial_schedule(k, wrong, Q(1, 3), Q(10))
    for horizon in (Q(0), Q(-1)):
        with pytest.raises(ScheduleError, match="horizon must be positive"):
            adversarial_schedule(k, b, Q(1, 3), horizon)
    with pytest.raises(ScheduleError, match="no distinguished outer face"):
        adversarial_schedule(replace(k, e_infinity=None), b, Q(1, 3), Q(10))


# -- coherently oriented outer boundaries -------------------------------------


def test_uphill_two_edges():
    k = uphill_two_edge()
    omega, horizon = Q(1, 2), Q(24)
    sch = uphill_schedule(k, omega, horizon)
    assert set(sch) == set(k.face_map)
    outer = sch["A"]
    assert outer.period is None and outer.breakpoints[-1][0] == horizon
    events = simulate(k, sch, horizon)
    outer_hits = [e for e in events if e.complete and "A" in e.participants]
    assert outer_hits, "the outer car must keep meeting its neighbours"
    assert {e.site for e in outer_hits} == {("edge", "E0", Q(1, 2))}


def test_uphill_inner_car_starts_after_a_wrapping_outer_run():
    """B's outer steps 2 and 0 form one run across the end of its boundary,
    so its car starts just inside step 1, the loop L."""
    outer = Face(
        "A", (("E0", 1), ("E1", 1)), (("v0", None), ("x", IDENT)), type="infinity"
    )
    b = Face(
        "B",
        (("E0", -1), ("L", 1), ("E1", -1)),
        (("x", IDENT), ("v0", IDENT), ("v0", IDENT)),
    )
    c = Face("C", (("L", -1),), (("v0", IDENT),))
    k = SphereComplex(
        vertices=("v0", "x"),
        edges=(("E0", "v0", "x"), ("E1", "x", "v0"), ("L", "v0", "v0")),
        faces=(outer, b, c),
        e_infinity="A",
        v0="v0",
    )
    assert validate_sphere(k).passed
    omega, horizon = Q(1, 2), Q(12)
    sch = uphill_schedule(k, omega, horizon)
    assert sch["B"] == uniform_schedule(b, Q(4, 3))
    events = simulate(k, sch, horizon)
    outer_hits = [e for e in events if e.complete and "A" in e.participants]
    assert outer_hits, "the outer car must keep meeting its neighbours"
    assert {e.site for e in outer_hits} == {("edge", "E0", omega)}


def test_uphill_single_edge_matches_adversarial():
    k = loop_complex()
    omega, horizon = Q(1, 3), Q(20)
    sch = uphill_schedule(k, omega, horizon)
    direct = adversarial_schedule(k, sch["f0"], omega, horizon)
    assert sch["f_inf"].breakpoints == direct.breakpoints
    events = simulate(k, sch, horizon)
    assert outer_sites(events) <= {("edge", "e_inf", omega)}


def test_uphill_guards():
    k = uphill_two_edge()
    with pytest.raises(ScheduleError):
        uphill_schedule(k, Q(1), Q(10))  # omega at a vertex
    with pytest.raises(ScheduleError):
        uphill_schedule(k, Q(5, 2), Q(10))  # outside the outer boundary
    for horizon in (Q(0), Q(-1)):
        with pytest.raises(ScheduleError, match="horizon must be positive"):
            uphill_schedule(k, Q(1, 2), horizon)
    # an inner face lying entirely on the outer boundary leaves no window
    outer = Face(
        "A", (("E0", 1), ("E1", 1)), (("v0", None), ("x", IDENT)), type="infinity"
    )
    inner = Face("B", (("E1", -1), ("E0", -1)), (("v0", IDENT), ("x", IDENT)))
    flat = SphereComplex(
        vertices=("v0", "x"),
        edges=(("E0", "v0", "x"), ("E1", "x", "v0")),
        faces=(outer, inner),
        e_infinity="A",
        v0="v0",
    )
    with pytest.raises(ScheduleError):
        uphill_schedule(flat, Q(1, 2), Q(10))
    with pytest.raises(ScheduleError, match="no distinguished outer face"):
        uphill_schedule(replace(k, e_infinity=None), Q(1, 2), Q(10))
    # f1 runs e1 with its orientation and e2 against it
    mixed = replace(bigon_sphere(), e_infinity="f1", v0="u")
    with pytest.raises(ScheduleError, match="outer edges must all be oriented the same way"):
        uphill_schedule(mixed, Q(1, 2), Q(10))


# -- golden plans -------------------------------------------------------------


GOLDEN_PLANS = Path(__file__).parent / "data" / "golden" / "plans.json"


def _planned(plan) -> dict:
    """Breakpoints per face of a plan, or the planner's ScheduleError message."""
    try:
        schedules = plan()
    except ScheduleError as exc:
        return {"error": str(exc)}
    return {
        fid: " ".join(f"{t},{p}" for t, p in s.breakpoints)
        for fid, s in schedules.items()
    }


def plan_table() -> dict:
    """Both planners on ``generate_random(seed, 1..8)`` for seeds 0-19, three
    omegas each, and on ``uphill_two_edge``; ``plans.json`` holds this table
    as the planners wrote it when the file was added."""
    horizon = Q(12)
    cases = [
        (f"{seed} {size}", generate_random(seed, size), (Q(1, 3), Q(1, 2), Q(5, 7)))
        for seed in range(20)
        for size in range(1, 9)
    ]
    cases.append(("uphill_two_edge", uphill_two_edge(), (Q(1, 2), Q(4, 3), Q(7, 4))))
    table = {}
    for name, k, omegas in cases:
        rng = random.Random(name)
        eid = k.face_map[k.e_infinity].boundary[0][0]
        opp = next(f for f, _ in k.edge_incidences(eid) if f != k.e_infinity)
        face = k.face_map[opp]
        for omega in omegas:
            b = uniform_schedule(face, Q(rng.randrange(4 * len(face.boundary)), 4))
            table[f"{name} {omega}"] = {
                "adversarial": _planned(
                    lambda: {k.e_infinity: adversarial_schedule(k, b, omega, horizon)}
                ),
                "uphill": _planned(lambda: uphill_schedule(k, omega, horizon)),
            }
    return table


def test_plans_match_golden():
    """Both planners reproduce the committed plans byte for byte."""
    assert plan_table() == json.loads(GOLDEN_PLANS.read_text())
