"""Command-line surface: batch analysis with deterministic JSON reports.

Reports go to standard output with stable key order; a short human summary
goes to standard error.  Exit codes: 0 success, 2 invalid input, 3 internal
contract violation.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .spheres import (
    ComplexFormatError,
    SphereComplex,
    check_csl,
    detect_type1,
    detect_type2,
    load_complex,
    validate_sphere,
    RelatorSet,
)
from .strata import lemma2_decompose, build_two_variable_word
from .surjectivity import (
    MAX_DEGREE,
    amenable_shape,
    analyze,
    normal_closure_search,
    one_relator_presentation,
    quotient_certificate,
    verify_certificate,
)
from .traffic import (
    ScheduleError,
    common_period,
    simulate,
    uniform_schedule,
    verify_at_least_two_crashes,
)
from .words import (
    Word,
    WordSyntaxError,
    coefficients,
    exponent_sum,
    free_alphabet,
    parse_word,
    t_shape,
)

Q = Fraction

#: Largest ``simulate --horizon``, in common periods of the flow.  The
#: report lists every event, so its size grows with the horizon.
MAX_HORIZON_PERIODS = 64


class InputError(ValueError):
    """Invalid command-line input (exit code 2)."""


def _frac(q: Q) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse(word: str, rank: int) -> Word:
    try:
        return parse_word(word, free_alphabet(rank))
    except (WordSyntaxError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _relator(word: str, rank: int) -> Word:
    w = _parse(word, rank)
    if w.is_identity():
        raise InputError("relator must be nontrivial")
    return w


def _load(path: str) -> SphereComplex:
    try:
        return load_complex(path)
    except (OSError, ComplexFormatError) as exc:
        raise InputError(str(exc)) from exc


def _event_record(e) -> dict:
    if e.site[0] == "edge":
        site = {"coordinate": _frac(e.site[2]), "edge": e.site[1], "kind": "edge"}
    else:
        site = {"kind": "vertex", "vertex": e.site[1]}
    return {
        "complete": e.complete,
        "participants": list(e.participants),
        "site": site,
        "time": _frac(e.time),
    }


def cmd_analyze(args: argparse.Namespace) -> dict:
    w = _relator(args.word, args.rank)
    v = analyze(w, args.rank)
    return {
        "evidence": v.evidence,
        "reason": v.reason,
        "status": v.status,
        "word": str(w),
    }


def cmd_decompose(args: argparse.Namespace) -> dict:
    w = _parse(args.word, args.rank)
    try:
        d = lemma2_decompose(w)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {
        "c": str(d.c),
        "conjugator": str(d.conjugator),
        "m": d.m,
        "pairs": [[str(b), str(a)] for b, a in d.pairs],
        "two_variable_word": str(build_two_variable_word(d)),
        "word": str(w),
    }


def cmd_shape(args: argparse.Namespace) -> dict:
    w = _parse(args.word, args.rank)
    shape = t_shape(w)
    amenable = amenable_shape(shape)
    return {
        "amenable": amenable,
        "amenable_known": amenable,
        "coefficients": [str(g) for g in coefficients(w)],
        "exponent_sum": exponent_sum(w),
        "t_shape": list(shape),
        "word": str(w),
    }


def cmd_validate(args: argparse.Namespace) -> dict:
    w0 = None if args.word is None else _relator(args.word, args.rank)
    k = _load(args.complex)
    rep = validate_sphere(k)
    out = {
        "connected": rep.connected,
        "edge_pairing": rep.edge_pairing,
        "euler": rep.euler,
        "links": rep.links,
        "passed": rep.passed,
        "problems": list(rep.problems),
    }
    if rep.passed:
        t1 = detect_type1(k)
        t2 = detect_type2(k)
        out["type1_witness"] = list(t1) if t1 else None
        out["type2_witness"] = (
            {"chain": list(t2[0]), "vertices": [t2[1], t2[2]]} if t2 else None
        )
        if w0 is not None:
            csl = check_csl(k, RelatorSet(w0=w0), rep, t1, t2)
            out["csl"] = {
                key: {"detail": detail, "passed": ok}
                for key, (ok, detail) in csl.items.items()
            }
    return out


def cmd_simulate(args: argparse.Namespace) -> dict:
    k = _load(args.complex)
    rep = validate_sphere(k)
    if not rep.passed:
        raise InputError(f"complex is not a valid sphere subdivision: {rep.problems}")
    rng = random.Random(args.seed)
    schedules = {}
    for f in k.faces:
        n = len(f.boundary)
        schedules[f.id] = uniform_schedule(f, Q(rng.randrange(4 * n), 4))
    period = common_period(schedules)
    if args.horizon is not None:
        horizon = _parse_fraction(args.horizon)
        if horizon <= 0:
            raise InputError(f"--horizon must be positive, got {args.horizon}")
        if horizon > MAX_HORIZON_PERIODS * period:
            raise InputError(
                f"--horizon is capped at {MAX_HORIZON_PERIODS} common periods"
                f" ({MAX_HORIZON_PERIODS * period}), got {args.horizon}"
            )
        events = simulate(k, schedules, horizon)
        ok: Optional[bool] = None
    else:
        horizon = 2 * period
        ok, events = verify_at_least_two_crashes(k, schedules, horizon)
    return {
        "at_least_two_complete_crashes": ok,
        "events": [_event_record(e) for e in events],
        "horizon": _frac(horizon),
        "seed": args.seed,
    }


def cmd_certify(args: argparse.Namespace) -> dict:
    w = _relator(args.word, args.rank)
    pres = one_relator_presentation(w, args.rank)
    if args.max_degree < 1:
        raise InputError(f"--max-degree must be at least 1, got {args.max_degree}")
    if args.max_degree > MAX_DEGREE:
        raise InputError(f"--max-degree is capped at {MAX_DEGREE}")
    cert = quotient_certificate(pres, args.max_degree)
    if cert is None:
        return {"certificate": None, "max_degree": args.max_degree, "word": str(w)}
    if not verify_certificate(pres, cert):
        raise RuntimeError("certificate failed its independent re-check")
    return {
        "certificate": {
            "degree": cert.degree,
            "images": {g: list(p) for g, p in sorted(cert.images.items())},
            "witness": cert.witness,
        },
        "max_degree": args.max_degree,
        "word": str(w),
    }


def cmd_search_kernel(args: argparse.Namespace) -> dict:
    w = _relator(args.word, args.rank)
    try:
        shape = tuple(int(part) for part in args.target_shape.split(","))
    except ValueError as exc:
        raise InputError(f"bad --target-shape: {args.target_shape!r}") from exc
    if 0 in shape:
        raise InputError(
            f"--target-shape entries must be non-zero, got {args.target_shape!r}"
        )
    if args.conj_len < 1 or args.products < 1:
        raise InputError("--conj-len and --products must be at least 1")
    hit = normal_closure_search(
        w, shape, args.conj_len, args.products, alphabet=free_alphabet(args.rank)
    )
    if hit is None:
        return {"found": None, "target_shape": list(shape), "word": str(w)}
    return {
        "found": {
            "element": str(hit.element),
            "factors": [[str(u), sign] for u, sign in hit.factors],
        },
        "target_shape": list(shape),
        "word": str(w),
    }


def _parse_fraction(text: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onerelator",
        description="Analysis of one-relator extensions of free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("analyze", cmd_analyze),
        ("decompose", cmd_decompose),
        ("shape", cmd_shape),
    ):
        p = sub.add_parser(name)
        p.add_argument("--word", required=True)
        p.add_argument("--rank", type=int, default=2)
        p.set_defaults(func=fn)
    p = sub.add_parser("validate")
    p.add_argument("--complex", required=True)
    p.add_argument("--word", default=None)
    p.add_argument("--rank", type=int, default=2)
    p.set_defaults(func=cmd_validate)
    p = sub.add_parser("simulate")
    p.add_argument("--complex", required=True)
    p.add_argument("--horizon", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("certify")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=cmd_certify)
    p = sub.add_parser("search-kernel")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--target-shape", required=True)
    p.add_argument("--conj-len", type=int, default=3)
    p.add_argument("--products", type=int, default=3)
    p.set_defaults(func=cmd_search_kernel)
    return parser


def _attach_shape(argv: Sequence[str]) -> list[str]:
    """Join ``--target-shape`` (or a prefix argparse accepts for it) and a
    value such as ``-1,1`` into one argument.

    argparse reads a separate value that starts with a minus sign, and is
    not a plain negative number, as an unknown option.
    """
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        shape_flag = flag.startswith("--t") and "--target-shape".startswith(flag)
        if shape_flag and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_shape(sys.argv[1:] if argv is None else argv))
    started = time.monotonic()
    try:
        result = args.func(args)
    except (InputError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    report = {"command": args.command, "report": result}
    print(json.dumps(report, sort_keys=True, indent=2))
    elapsed = time.monotonic() - started
    print(
        f"{args.command}: done in {elapsed:.3f}s", file=sys.stderr
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
