"""Exact-time traffic flows on sphere complexes.

Each face carries a car driving anticlockwise around its boundary; positions
are piecewise-linear functions of time over exact rationals.  The boundary
coordinate of a face with k edges runs over [0, k): integer points are
corners, and coordinate x in [i, i+1] lies on boundary step i.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, gcd, lcm
from typing import Iterator, Mapping, Optional

from .spheres import Face, SphereComplex, _vertex_labels
from .words import Word, free_reduce

Q = Fraction


class ScheduleError(ValueError):
    """A schedule violates its structural contract or does not fit a face."""


def _floor(q: Q) -> int:
    return q.numerator // q.denominator


@dataclass(frozen=True)
class FlowSchedule:
    """Continuous anticlockwise position function for one car.

    Breakpoints are (time, unwrapped position) pairs; position mod circuit is
    the boundary coordinate.  Periodic schedules span exactly one period and
    gain exactly one circuit; finite schedules (period None) cover their whole
    plan horizon.
    """

    face: str
    circuit: int
    breakpoints: tuple[tuple[Q, Q], ...]
    period: Optional[Q] = None

    def __post_init__(self) -> None:
        bps = self.breakpoints
        if self.circuit < 1:
            raise ScheduleError("circuit must be positive")
        if len(bps) < 2:
            raise ScheduleError("need at least two breakpoints")
        if bps[0][0] != 0:
            raise ScheduleError("schedules must start at time 0")
        for (t0, p0), (t1, p1) in zip(bps, bps[1:]):
            if t1 <= t0:
                raise ScheduleError("breakpoint times must increase")
            if p1 < p0:
                raise ScheduleError("position must be non-decreasing")
        if self.period is not None:
            if self.period <= 0:
                raise ScheduleError("period must be positive")
            if bps[-1][0] != self.period:
                raise ScheduleError("periodic breakpoints must span one period")
            if bps[-1][1] - bps[0][1] != self.circuit:
                raise ScheduleError("one full circuit per period required")

    def position(self, t: Q) -> Q:
        """Unwrapped position at time t (reduce mod circuit for the coordinate)."""
        t = Q(t)
        laps = Q(0)
        if self.period is not None:
            k = _floor(t / self.period)
            t -= k * self.period
            laps = k * self.circuit
        bps = self.breakpoints
        if not bps[0][0] <= t <= bps[-1][0]:
            raise ScheduleError(f"time {t} outside the schedule range")
        for (t0, p0), (t1, p1) in zip(bps, bps[1:]):
            if t <= t1:
                return laps + _at((t0, t1, p0, p1), t)
        raise AssertionError


@dataclass(frozen=True)
class CrashEvent:
    """A meeting of cars, either inside an edge or at a vertex."""

    time: Q
    site: tuple  # ("edge", edge id, tail-based coordinate) or ("vertex", id)
    participants: tuple[str, ...]
    complete: bool


# -- standard schedules -----------------------------------------------------


def standard_schedule(face: Face, r: int, start_corner: int = 0) -> FlowSchedule:
    """Type I / I' schedule: corner i at time i, then a stop of max(2r-1, 0).

    The car starts at the given corner (the one labelled b0 or its inverse),
    reaches the long-stop corner at time 2r+2 and completes the circuit with
    period 4r+2 (period 3 when r = 0).
    """
    if r < 0:
        raise ScheduleError("r must be nonnegative")
    n = len(face.corners)
    if n != 2 * r + 3:
        raise ScheduleError(f"face has {n} corners, expected {2 * r + 3}")
    sc = Q(start_corner)
    stop = max(2 * r - 1, 0)
    bps: list[tuple[Q, Q]] = [(Q(0), sc), (Q(2 * r + 2), sc + 2 * r + 2)]
    if stop:
        bps.append((Q(4 * r + 1), sc + 2 * r + 2))
    period = Q(2 * r + 3 + stop)
    bps.append((period, sc + n))
    return FlowSchedule(face=face.id, circuit=n, breakpoints=tuple(bps), period=period)


def standard_schedule_II(face: Face, start_corner: int = 0) -> FlowSchedule:
    """Type II / II' schedule on a 2-gon: start at the h^phi corner, period 2."""
    if len(face.corners) != 2:
        raise ScheduleError("type II schedule requires a 2-gon")
    return uniform_schedule(face, Q(start_corner))


def uniform_schedule(face: Face, start: Q = Q(0)) -> FlowSchedule:
    """Unit-speed car with no stops, starting at the given boundary coordinate."""
    n = len(face.corners)
    return FlowSchedule(
        face=face.id,
        circuit=n,
        breakpoints=((Q(0), Q(start)), (Q(n), Q(start) + n)),
        period=Q(n),
    )


# -- piecewise-linear plumbing ----------------------------------------------


# (t0, t1, x0, x1): x runs linearly from x0 at t0 to x1 at t1, where x is an
# unwrapped position, a tail-based edge coordinate or an outer coordinate
_Piece = tuple[Q, Q, Q, Q]


def _at(piece: _Piece, t: Q) -> Q:
    """The value at t on the line from (t0, x0) to (t1, x1)."""
    t0, t1, x0, x1 = piece
    return x0 + (x1 - x0) * (t - t0) / (t1 - t0)


def _clip(points: list[tuple[Q, Q]], t_end: Q) -> list[tuple[Q, Q]]:
    """The (time, value) points up to t_end, the segment that crosses t_end
    cut there.  The first point must lie at or before t_end."""
    out: list[tuple[Q, Q]] = []
    for t, x in points:
        if t > t_end:
            t0, x0 = out[-1]
            if t0 < t_end:
                out.append((t_end, _at((t0, t, x0, x), t_end)))
            break
        out.append((t, x))
    return out


def _pieces(s: FlowSchedule, t_end: Q) -> list[_Piece]:
    """Linear (t0, t1, p0, p1) pieces covering [0, t_end] for t_end > 0,
    clipped, with each moving piece within one unit span.

    A moving segment is cut where it crosses an integer n, so the position
    at each interior cut is exactly n; only the cut times are computed.
    """
    points = list(s.breakpoints)
    if s.period is None:
        if points[-1][0] < t_end:
            raise ScheduleError("finite schedule does not cover the horizon")
    else:
        points += [
            (t + k * s.period, p + k * s.circuit)
            for k in range(1, ceil(t_end / s.period))
            for t, p in s.breakpoints[1:]
        ]
    points = _clip(points, t_end)
    out: list[_Piece] = []
    for (a, pa), (b, pb) in zip(points, points[1:]):
        if pa == pb:
            out.append((a, b, pa, pb))
            continue
        slope = (b - a) / (pb - pa)
        marks = [pa] + [Q(n) for n in range(_floor(pa) + 1, ceil(pb))] + [pb]
        cuts = [a] + [a + (n - pa) * slope for n in marks[1:-1]] + [b]
        out.extend(zip(cuts, cuts[1:], marks, marks[1:]))
    return out


def _merge_intervals(spans: list[tuple[Q, Q]]) -> list[tuple[Q, Q]]:
    spans = sorted(spans)
    out: list[tuple[Q, Q]] = []
    for a, b in spans:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


_Slot = tuple[str, int]  # (face id, boundary step or corner index)
_EdgeMap = dict[_Slot, list[_Piece]]
_CornerMap = dict[_Slot, list[tuple[Q, Q]]]


def _occupancy(
    k: SphereComplex, schedules: Mapping[str, FlowSchedule], t_end: Q
) -> tuple[_EdgeMap, _CornerMap]:
    """Where the cars of ``schedules`` are over [0, t_end]: edge stays in
    tail-based coordinates per side (face, boundary step), in time order,
    and merged occupancy intervals (possibly instants) per slot (face,
    corner index)."""
    edges: _EdgeMap = {}
    corners: _CornerMap = {}
    for fid, s in schedules.items():
        face, n = k.face_map[fid], s.circuit
        for t0, t1, p0, p1 in _pieces(s, t_end):
            j = _floor(p0)
            if p0 == p1 == j:
                # parked at a corner: vertex business
                corners.setdefault((fid, j % n), []).append((t0, t1))
                continue
            # a piece parked inside an edge has no integer end
            for p, t in ((p0, t0), (p1, t1)):
                if p == _floor(p):
                    corners.setdefault((fid, _floor(p) % n), []).append((t, t))
            step = j % n
            f0, f1 = p0 - j, p1 - j
            c0, c1 = (f0, f1) if face.boundary[step][1] > 0 else (1 - f0, 1 - f1)
            edges.setdefault((fid, step), []).append((t0, t1, c0, c1))
    for key, spans in corners.items():
        corners[key] = _merge_intervals(spans)
    return edges, corners


def _edge_meetings(
    side1: list[_Piece], side2: list[_Piece]
) -> Iterator[tuple[Q, Q]]:
    """(time, tail-based coordinate) of each meeting inside an edge between
    the stays of two of its sides.

    Each side's stays are time-ordered and meet only at shared endpoints.
    So the stays of ``side2`` that overlap or touch a stay of ``side1``
    form a run whose start only moves forward.
    """
    start = 0
    for x in side1:
        while start < len(side2) and side2[start][1] < x[0]:
            start += 1
        for j in range(start, len(side2)):
            y = side2[j]
            if y[0] > x[1]:
                break
            lo, hi = max(x[0], y[0]), min(x[1], y[1])
            f_lo = _at(x, lo) - _at(y, lo)
            f_hi = _at(x, hi) - _at(y, hi)
            if f_lo == 0 and f_hi == 0:
                t_star = lo
            elif f_lo == f_hi:
                continue
            elif f_lo * f_hi <= 0:
                t_star = _at((f_lo, f_hi, lo, hi), 0)  # the time of f = 0
            else:
                continue
            c = _at(x, t_star)
            if 0 < c < 1:
                yield t_star, c


def _check_fit(k: SphereComplex, schedules: Mapping[str, FlowSchedule]) -> None:
    """Each schedule is filed under its own face and has that face's circuit."""
    for fid, s in schedules.items():
        if s.face != fid:
            raise ScheduleError(f"schedule for {s.face} filed under {fid}")
        if s.circuit != len(k.face_map[fid].boundary):
            raise ScheduleError(f"schedule circuit mismatch on face {fid}")


_Event = tuple[Q, tuple, tuple[str, ...], bool]  # the fields of a CrashEvent


def _sweep(
    k: SphereComplex, schedules: Mapping[str, FlowSchedule], t_end: Q
) -> tuple[list[_Event], list[_Event]]:
    """The crash events in [0, t_end], possibly repeated, and the seam.

    The seam is the part of the events at time 0 that the sweep finds only
    from what follows 0: edge meetings found from stays that start at 0, and
    vertex events of the open gap after 0.  At ``t_end`` the sweep sees
    only the stays and spans that end there, as a horizon cuts them.  So for
    a flow of period ``t_end``, its events at a later multiple of the period
    short of the horizon are its events at ``t_end`` plus the seam.
    """
    stays, corner_occ = _occupancy(k, schedules, t_end)
    events: list[_Event] = []
    seam: list[_Event] = []
    for eid, sides in k.incidences.sides.items():
        for a, b in combinations(sides, 2):
            who = tuple(sorted({a[0], b[0]}))
            for t, c in _edge_meetings(stays.get(a, []), stays.get(b, [])):
                events.append((t, ("edge", eid, c), who, True))
                if t == 0:
                    seam.append(events[-1])

    for vid, slots in k.incidences.slots.items():
        spans = {slot: corner_occ.get(slot, []) for slot in slots}
        times = sorted({t for sp in spans.values() for a, b in sp for t in (a, b)})
        # sample 2i is the instant times[i], sample 2i+1 the open gap after
        # it; a slot's merged span [a, b] covers samples 2*idx(a)..2*idx(b),
        # so it enters at the first and leaves at the one after the last
        index = {t: i for i, t in enumerate(times)}
        toggles: list[list[tuple[str, int]]] = [[] for _ in range(2 * len(times))]
        for slot, sp in spans.items():
            for a, b in sp:
                toggles[2 * index[a]].append(slot)
                toggles[2 * index[b] + 1].append(slot)
        occ: set[tuple[str, int]] = set()
        for sample in range(2 * len(times) - 1):
            if not toggles[sample]:
                continue  # occupancy unchanged since the previous sample
            occ.symmetric_difference_update(toggles[sample])
            if len(occ) >= 2:
                faces_here = tuple(sorted({f for f, _ in occ}))
                t = times[sample // 2]
                complete = len(occ) == len(slots)
                events.append((t, ("vertex", vid), faces_here, complete))
                if sample == 1 and t == 0:
                    seam.append(events[-1])
    return events, seam


def simulate(
    k: SphereComplex, schedules: Mapping[str, FlowSchedule], horizon: Q
) -> tuple[CrashEvent, ...]:
    """All crash events in [0, horizon], time-ordered, in exact arithmetic.

    Cost: each schedule is cut into pieces once, and each piece is filed
    under its side or slot as it is cut, in time order.  The sides of each
    edge and the slots of each vertex come from the complex's incidences.
    Each pair of sides of an edge merges its two time-ordered stay lists,
    linear in stays plus overlapping pairs; each vertex sorts its T span
    endpoints once and sweeps them, so O(T log T) plus the slots of every
    event it emits.

    When every schedule is periodic and the horizon exceeds their common
    period P, the sweep covers [0, P] once, and the events of the later
    periods are translated copies of its events after time 0, plus its
    seam at each multiple of P before the horizon.  A horizon that is not
    a multiple of P ends in a part period r, swept on its own over [0, r]
    so that its last instant is cut off as the horizon cuts it.
    """
    horizon = Q(horizon)
    if set(schedules) != set(k.face_map):
        raise ScheduleError("schedules must cover exactly the faces of the complex")
    _check_fit(k, schedules)
    if horizon <= 0:
        return ()

    periodic = bool(schedules) and all(s.period is not None for s in schedules.values())
    period = common_period(schedules) if periodic else None
    if period is None or horizon <= period:
        events = set(_sweep(k, schedules, horizon)[0])
    else:
        laps, rest = divmod(horizon, period)
        base, seam = _sweep(k, schedules, period)
        events = set(base)
        repeated = seam + [e for e in events if e[0] > 0]
        copies = [(j * period, repeated) for j in range(1, laps)]
        if rest:
            tail = _sweep(k, schedules, rest)[0]
            copies.append((laps * period, seam + [e for e in tail if e[0] > 0]))
        for shift, part in copies:
            events.update((t + shift, *e) for t, *e in part)
    return tuple(CrashEvent(*item) for item in sorted(events))


def common_period(schedules: Mapping[str, FlowSchedule]) -> Q:
    """The least common period of periodic schedules."""
    periods = [s.period for s in schedules.values()]
    if not periods:
        raise ScheduleError("no schedules")
    if any(p is None for p in periods):
        raise ScheduleError("all schedules must be periodic")
    num = lcm(*(p.numerator for p in periods))
    den = gcd(*(p.denominator for p in periods))
    return Q(num, den)


def verify_at_least_two_crashes(
    k: SphereComplex, schedules: Mapping[str, FlowSchedule], horizon: Q
) -> tuple[bool, tuple[CrashEvent, ...]]:
    """True iff at least two complete crashes occur within the horizon.

    The horizon must cover at least two common periods of the schedules,
    as the car-crash lemma states it.  ``simulate`` sweeps only the first
    period and translates its events into the later ones, so at two common
    periods the check costs one period's sweep.
    """
    common = common_period(schedules)
    if Q(horizon) < 2 * common:
        raise ScheduleError(
            f"horizon {horizon} below two common periods ({2 * common})"
        )
    events = simulate(k, schedules, horizon)
    complete = [e for e in events if e.complete]
    return len(complete) >= 2, events


# -- crash-vertex reading ---------------------------------------------------


@dataclass(frozen=True)
class VertexReading:
    word: Word
    classification: str  # Type1Witness, Type2Witness or FreenessViolation
    detail: str


def crash_vertex_reading(k: SphereComplex, event: CrashEvent) -> VertexReading:
    """Read the corner word at a complete vertex crash and classify it."""
    if not event.complete or event.site[0] != "vertex":
        raise ValueError("reading requires a complete vertex crash")
    labels = _vertex_labels(k, event.site[1])
    word = free_reduce([l for lbl in labels for l in lbl.letters])

    n = len(labels)
    for i in range(n):
        cur, nxt = labels[i], labels[(i + 1) % n]
        if cur.letters and nxt.letters and cur.letters[-1] == (
            nxt.letters[0][0],
            -nxt.letters[0][1],
        ):
            return VertexReading(
                word, "Type1Witness", f"cancellation between corners {i} and {(i + 1) % n}"
            )
    # no junction cancels, so only an identity label is a trivial proper run
    i = next((i for i, lbl in enumerate(labels) if lbl.is_identity()), None)
    if n > 1 and i is not None:
        return VertexReading(word, "Type2Witness", f"trivial product of corners {i}..{i}")
    return VertexReading(
        word, "FreenessViolation", "nontrivial relation read at a full crash"
    )


# -- the adversarial outer car ----------------------------------------------


def _crossing(transit: list[_Piece], target: Q) -> Optional[Q]:
    """When the transit first reaches outer coordinate ``target``."""
    for t0, t1, a0, a1 in transit:
        if a1 <= target <= a0:
            if a0 == a1:
                return t0
            return _at((a0, a1, t0, t1), target)  # the time at a = target
    return None


def _outer_transits(
    k: SphereComplex, step: int, stays: list[_Piece]
) -> list[list[_Piece]]:
    """Passes over outer step ``step`` by the car whose time-ordered stays
    on that edge are ``stays``: runs of touching stays, in outer
    coordinates."""
    d_inf = k.face_map[k.e_infinity].boundary[step][1]
    transits: list[list[_Piece]] = []
    for t0, t1, c0, c1 in stays:
        c0, c1 = (c0, c1) if d_inf > 0 else (1 - c0, 1 - c1)
        if c1 > c0:
            raise ScheduleError("opposing car must descend in outer coordinates")
        if not transits or t0 > transits[-1][-1][1]:
            transits.append([])
        transits[-1].append((t0, t1, step + c0, step + c1))
    return transits


def _free_window(busy: list[tuple[Q, Q]], a: Q, b: Q) -> tuple[Q, Q]:
    """Largest open subinterval of (a, b) free of the merged, sorted spans
    ``busy``, the earliest on a tie."""
    best: Optional[tuple[Q, Q]] = None
    lo = a
    for x, y in busy:
        if y <= a:
            continue
        if x >= b:
            break
        if x > lo and (best is None or x - lo > best[1] - best[0]):
            best = (lo, x)
        lo = y
    if b > lo and (best is None or b - lo > best[1] - best[0]):
        best = (lo, b)
    if best is None:
        raise ScheduleError(f"no free window inside ({a}, {b})")
    return best


def _plan_outer_car(
    circuit: int,
    omega: Q,
    transits: list[list[_Piece]],
    busy: list[tuple[Q, Q]],
    horizon: Q,
) -> list[tuple[Q, Q]]:
    """Breakpoints for the outer car: meet each crossing exactly at omega."""
    j0 = _floor(omega)
    d_hi = (j0 + 1 - omega) / 2
    d_lo = (omega - j0) / 2
    busy = _merge_intervals(busy)

    bps: list[tuple[Q, Q]] = []
    lap = Q(0)
    pending = list(transits)

    # starting position: below omega, above any opposing car already past it
    start_pos = (Q(j0) + omega) / 2
    if pending and pending[0][0][0] <= 0:
        a_now = pending[0][0][2]
        if a_now <= omega:
            start_pos = (a_now + omega) / 2
            pending.pop(0)  # its omega-crossing already happened
    bps.append((Q(0), start_pos))

    for tr, nxt in zip(pending, pending[1:] + [None]):
        tau = _crossing(tr, omega)
        if tau is None:
            continue
        if tr[0][0] > bps[-1][0]:
            bps.append((tr[0][0], bps[-1][1]))  # wait just below omega
        bps.append((tau, lap + omega))
        exit_t = max(tr[-1][1], tau)
        if exit_t > tau:
            bps.append((exit_t, lap + omega + d_hi))  # dawdle past omega
        if nxt is None or bps[-1][0] >= horizon:
            break
        g0, g1 = _free_window(busy, bps[-1][0], nxt[0][0])
        if g0 > bps[-1][0]:
            bps.append((g0, bps[-1][1]))
        lap += circuit
        bps.append((g1, lap + omega - d_lo))  # rush the full circuit

    if bps[-1][0] < horizon:
        bps.append((horizon, bps[-1][1]))
    return _clip(bps, horizon)


def _outer_car(
    k: SphereComplex, cars: Mapping[str, FlowSchedule], opp: _Slot, omega: Q, horizon: Q
) -> FlowSchedule:
    """Outer-car plan over [0, horizon]: cross the car on side ``opp`` at
    omega, and go round when none of ``cars`` is on the outer boundary."""
    if horizon <= 0:
        raise ScheduleError("horizon must be positive")
    inf_face = k.face_map[k.e_infinity]
    outer_vertices = dict.fromkeys(map(k.step_start, inf_face.boundary))
    # only cars with a corner on the outer boundary can touch it
    touching = {f for vid in outer_vertices for f, _ in k.incidences.slots[vid]}
    edges, corners = _occupancy(
        k,
        {f: s for f, s in cars.items() if f in touching},
        horizon + (cars[opp[0]].period or 0),
    )
    busy: list[tuple[Q, Q]] = []
    for eid in dict.fromkeys(e for e, _ in inf_face.boundary):
        for side in k.incidences.sides[eid]:
            busy.extend((t0, t1) for t0, t1, _, _ in edges.get(side, ()))
    for vid in outer_vertices:
        for slot in k.incidences.slots[vid]:
            busy.extend(corners.get(slot, ()))
    n = len(inf_face.boundary)
    transits = _outer_transits(k, _floor(omega), edges.get(opp, []))
    bps = _plan_outer_car(n, omega, transits, busy, horizon)
    return FlowSchedule(face=k.e_infinity, circuit=n, breakpoints=tuple(bps))


def adversarial_schedule(
    k: SphereComplex, b: FlowSchedule, omega: Q, horizon: Q
) -> FlowSchedule:
    """Finite outer-car plan meeting the neighbouring car only at omega.

    The outer face must be a single loop edge whose other side belongs to a
    face with a longer boundary; omega is an interior coordinate in (0, 1).
    After its own checks it ends in ``_outer_car``, as ``uphill_schedule`` does.
    """
    if k.e_infinity is None:
        raise ScheduleError("complex has no distinguished outer face")
    inf_face = k.face_map[k.e_infinity]
    if len(inf_face.boundary) != 1:
        raise ScheduleError("adversarial plan requires a one-edge outer face")
    omega, horizon = Q(omega), Q(horizon)
    if not 0 < omega < 1:
        raise ScheduleError("omega must lie in the open edge interior")
    eid = inf_face.boundary[0][0]
    opp = [side for side in k.incidences.sides[eid] if side[0] != k.e_infinity]
    if len(opp) != 1 or opp[0][0] != b.face:
        raise ScheduleError("the given schedule does not drive the opposing face")
    _check_fit(k, {b.face: b})
    if len(k.face_map[b.face].boundary) <= 1:
        raise ScheduleError("opposing boundary must properly contain the outer edge")
    return _outer_car(k, {b.face: b}, opp[0], omega, horizon)


def uphill_schedule(
    k: SphereComplex, omega: Q, horizon: Q
) -> dict[str, FlowSchedule]:
    """Schedules for every face when the outer boundary is coherently oriented.

    Inner cars run uniform unit schedules phased to have just left the outer
    boundary at time 0, so recurring windows exist in which no car is on it;
    the outer car uses those windows to keep all its meetings at omega.
    After its own checks it ends in ``_outer_car``, as ``adversarial_schedule``
    does.
    """
    if k.e_infinity is None:
        raise ScheduleError("complex has no distinguished outer face")
    inf_face = k.face_map[k.e_infinity]
    dirs = {d for _, d in inf_face.boundary}
    if len(dirs) != 1:
        raise ScheduleError("outer edges must all be oriented the same way")
    n = len(inf_face.boundary)
    omega, horizon = Q(omega), Q(horizon)
    if not 0 < omega < n or omega == _floor(omega):
        raise ScheduleError("omega must lie inside an outer edge")
    inf_edges = {e for e, _ in inf_face.boundary}

    schedules: dict[str, FlowSchedule] = {}
    for f in k.faces:
        if f.id == k.e_infinity:
            continue
        steps = [i for i, (e, _) in enumerate(f.boundary) if e in inf_edges]
        if len(steps) == len(f.boundary):
            raise ScheduleError(
                f"face {f.id} lies entirely on the outer boundary; no free window"
            )
        if steps:
            # start just inside the edge after the last outer run
            last = max(steps)  # runs wrap, but any outer step works as an anchor
            while (last + 1) % len(f.boundary) in steps:
                last = (last + 1) % len(f.boundary)
            start = Q(last + 1) % len(f.boundary) + Q(1, 3)
        else:
            start = Q(1, 3)
        schedules[f.id] = uniform_schedule(f, start)

    eid, _ = inf_face.boundary[_floor(omega)]
    opp = [side for side in k.incidences.sides[eid] if side[0] != k.e_infinity]
    if len(opp) != 1:
        raise ScheduleError("outer edge must have exactly one opposing face")
    schedules[k.e_infinity] = _outer_car(k, schedules, opp[0], omega, horizon)
    return schedules
