"""The crash simulation as it stood before the sweep-line rewrite, and the
outer car's free-window search as it stood before its one-pass rewrite.

Kept verbatim as the references that tests compare ``onerelator.simulate``
and ``traffic._free_window`` against: an all-pairs scan over each edge's
stays, a vertex scan that tests every slot's spans at every sampled
instant, and a window search that tests every gap between sorted marks
against every busy span.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from onerelator.spheres import Face, SphereComplex
from onerelator.traffic import CrashEvent, FlowSchedule, Q, ScheduleError, _floor


def _segments(s: FlowSchedule, t_end: Q) -> list[tuple[Q, Q, Q, Q]]:
    """Linear (t0, t1, p0, p1) segments covering [0, t_end], clipped."""
    if t_end <= 0:
        return []
    raw: list[tuple[Q, Q, Q, Q]] = []
    if s.period is None:
        if s.breakpoints[-1][0] < t_end:
            raise ScheduleError("finite schedule does not cover the horizon")
        shifts = [0]
    else:
        shifts = range(_floor(t_end / s.period) + 1)
    for k in shifts:
        dt = k * (s.period or 0)
        dp = k * s.circuit
        for (t0, p0), (t1, p1) in zip(s.breakpoints, s.breakpoints[1:]):
            a, b = t0 + dt, t1 + dt
            if a >= t_end:
                break
            pa, pb = p0 + dp, p1 + dp
            if b > t_end:
                pb = pa + (pb - pa) * (t_end - a) / (b - a)
                b = t_end
            raw.append((a, b, pa, pb))
    return raw


def _pieces(s: FlowSchedule, t_end: Q) -> list[tuple[Q, Q, Q, Q]]:
    """Segments refined so each moving piece stays within one unit span."""
    out: list[tuple[Q, Q, Q, Q]] = []
    for t0, t1, p0, p1 in _segments(s, t_end):
        if p0 == p1:
            out.append((t0, t1, p0, p1))
            continue
        cuts = [t0]
        n = _floor(p0) + 1
        while n < p1:
            cuts.append(t0 + (t1 - t0) * (Q(n) - p0) / (p1 - p0))
            n += 1
        cuts.append(t1)
        for a, b in zip(cuts, cuts[1:]):
            pa = p0 + (p1 - p0) * (a - t0) / (t1 - t0)
            pb = p0 + (p1 - p0) * (b - t0) / (t1 - t0)
            out.append((a, b, pa, pb))
    return out


@dataclass(frozen=True)
class _EdgeStay:
    face: str
    step: int
    direction: int
    t0: Q
    t1: Q
    c0: Q  # tail-based edge coordinate at t0
    c1: Q


def _merge_intervals(spans: list[tuple[Q, Q]]) -> list[tuple[Q, Q]]:
    spans = sorted(spans)
    out: list[tuple[Q, Q]] = []
    for a, b in spans:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


_EdgeMap = dict[str, list[_EdgeStay]]
_CornerMap = dict[tuple[str, int], list[tuple[Q, Q]]]


def _occupancy(face: Face, s: FlowSchedule, t_end: Q) -> tuple[_EdgeMap, _CornerMap]:
    """Edge stays per edge id, and merged occupancy intervals (possibly
    instants) per (face, corner index)."""
    n = s.circuit
    edges: _EdgeMap = {}
    corners: _CornerMap = {}

    def at_corner(pos: Q, a: Q, b: Q) -> None:
        corners.setdefault((face.id, _floor(pos) % n), []).append((a, b))

    for t0, t1, p0, p1 in _pieces(s, t_end):
        if p0 == p1 and p0 == _floor(p0):
            at_corner(p0, t0, t1)  # parked at a corner: vertex business
            continue
        # a piece parked inside an edge has no integer end
        if p0 == _floor(p0):
            at_corner(p0, t0, t0)
        if p1 == _floor(p1):
            at_corner(p1, t1, t1)
        j = _floor(p0)
        step = j % n
        eid, d = face.boundary[step]
        f0, f1 = p0 - j, p1 - j
        c0, c1 = (f0, f1) if d > 0 else (1 - f0, 1 - f1)
        edges.setdefault(eid, []).append(
            _EdgeStay(face.id, step, d, t0, t1, c0, c1)
        )
    for key, spans in corners.items():
        corners[key] = _merge_intervals(spans)
    return edges, corners


def _edge_meetings(
    eid: str, side1: list[_EdgeStay], side2: list[_EdgeStay]
) -> set[tuple[Q, tuple, tuple[str, ...]]]:
    hits: set[tuple[Q, tuple, tuple[str, ...]]] = set()
    for x in side1:
        for y in side2:
            lo, hi = max(x.t0, y.t0), min(x.t1, y.t1)
            if lo > hi:
                continue

            def coord(stay: _EdgeStay, t: Q) -> Q:
                if stay.t1 == stay.t0:
                    return stay.c0
                return stay.c0 + (stay.c1 - stay.c0) * (t - stay.t0) / (
                    stay.t1 - stay.t0
                )

            f_lo = coord(x, lo) - coord(y, lo)
            f_hi = coord(x, hi) - coord(y, hi)
            if f_lo == 0 and f_hi == 0:
                t_star = lo
            elif f_lo == f_hi:
                continue
            elif f_lo * f_hi <= 0:
                t_star = lo + (hi - lo) * (-f_lo) / (f_hi - f_lo)
            else:
                continue
            c = coord(x, t_star)
            if 0 < c < 1:
                participants = tuple(sorted({x.face, y.face}))
                hits.add((t_star, ("edge", eid, c), participants))
    return hits


def simulate(
    k: SphereComplex, schedules: Mapping[str, FlowSchedule], horizon: Q
) -> tuple[CrashEvent, ...]:
    """All crash events in [0, horizon], time-ordered, in exact arithmetic."""
    horizon = Q(horizon)
    if set(schedules) != set(k.face_map):
        raise ScheduleError("schedules must cover exactly the faces of the complex")
    for fid, s in schedules.items():
        if s.face != fid:
            raise ScheduleError(f"schedule for {s.face} filed under {fid}")
        if s.circuit != len(k.face_map[fid].boundary):
            raise ScheduleError(f"schedule circuit mismatch on face {fid}")
    if horizon <= 0:
        return ()

    edge_occ: dict[str, list[list[_EdgeStay]]] = {e: [] for e, _, _ in k.edges}
    corner_occ: _CornerMap = {}
    for fid, s in schedules.items():
        edges, corners = _occupancy(k.face_map[fid], s, horizon)
        for eid, stays in edges.items():
            edge_occ[eid].append(stays)
        corner_occ.update(corners)

    events: list[CrashEvent] = []
    for eid, sides in edge_occ.items():
        flat = [stay for side in sides for stay in side]
        # group by the two incidences (face, boundary index) of the edge
        groups: dict[tuple[str, int], list[_EdgeStay]] = {}
        for stay in flat:
            groups.setdefault((stay.face, stay.step), []).append(stay)
        keys = sorted(groups)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                for t, site, who in _edge_meetings(
                    eid, groups[keys[a]], groups[keys[b]]
                ):
                    events.append(CrashEvent(t, site, who, complete=True))

    incidences: dict[str, list[tuple[str, int]]] = {v: [] for v in k.vertices}
    for f in k.faces:
        for i, (v, _) in enumerate(f.corners):
            incidences[v].append((f.id, i))
    for vid, slots in incidences.items():
        spans = {slot: corner_occ.get(slot, []) for slot in slots}
        times = sorted(
            {t for sp in spans.values() for a, b in sp for t in (a, b)}
        )
        if not times:
            continue

        def occupied_at(t: Q) -> frozenset:
            return frozenset(
                slot
                for slot, sp in spans.items()
                if any(a <= t <= b for a, b in sp)
            )

        def occupied_on(a: Q, b: Q) -> frozenset:
            mid = (a + b) / 2
            return occupied_at(mid)

        samples: list[tuple[Q, frozenset]] = []
        for idx, t in enumerate(times):
            samples.append((t, occupied_at(t)))
            if idx + 1 < len(times):
                samples.append((t, occupied_on(t, times[idx + 1])))
        prev: Optional[frozenset] = None
        for t, occ in samples:
            if occ != prev and len(occ) >= 2:
                faces_here = tuple(sorted({f for f, _ in occ}))
                events.append(
                    CrashEvent(
                        t,
                        ("vertex", vid),
                        faces_here,
                        complete=len(occ) == len(slots),
                    )
                )
            prev = occ

    uniq = sorted(
        {(e.time, e.site, e.participants, e.complete) for e in events}
    )
    return tuple(CrashEvent(*item) for item in uniq)


def free_window(busy: list[tuple[Q, Q]], a: Q, b: Q) -> tuple[Q, Q]:
    """Largest open busy-free subinterval of (a, b)."""
    marks = [a]
    for x, y in busy:
        if y <= a or x >= b:
            continue
        marks.extend([max(x, a), min(y, b)])
    marks.append(b)
    marks.sort()
    best = None
    for lo, hi in zip(marks, marks[1:]):
        if any(x <= lo and hi <= y for x, y in busy):
            continue
        if best is None or hi - lo > best[1] - best[0]:
            best = (lo, hi)
    if best is None or best[1] <= best[0]:
        raise ScheduleError(f"no free window inside ({a}, {b})")
    return best
