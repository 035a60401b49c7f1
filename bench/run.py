"""Benchmark of the onerelator package: two checked workloads.

Run one workload (one process, one thread, items back to back):

    python3 bench/run.py --workload algebra --seed 11 --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  An item fails when
it raises or when its check rejects its output; the exit code is 1 when any
output was wrong.  Without ``--workload`` every workload runs, each in its
own process, and each one's metrics are printed by name with their unit.
Metric units and the default ``--seconds`` come from BENCHMARK.json.  See
bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

WORKLOADS = ("algebra", "crash")
#: set-ups before every pass; setup_s is the median of all of a run's set-ups,
#: which are spread over the run so that they sample the machine as the
#: passes do, not during one second of it
SETUPS_PER_PASS = 3
#: an item's time is scaled by the median of the references timed after
#: the LOCAL items before it, after itself and after the LOCAL items behind
#: it: a shared machine's speed holds for about a second (samples 0.25 s apart
#: correlate at 0.6, 1 s apart at 0.3, 5 s apart at 0.1), and a median of
#: five 7 ms references is not moved by one stray sample
LOCAL = 2
#: passes per run at least, so that per-item medians, and the rate built
#: from them, rest on three samples even when the machine runs slow
MIN_PASSES = 3


def _import_onerelator():
    """Import the package under ``src`` afresh, so every set-up pays for it."""
    for name in [m for m in sys.modules if m == "onerelator" or m.startswith("onerelator.")]:
        del sys.modules[name]
    package = importlib.import_module("onerelator")
    importlib.import_module("onerelator.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise ImportError(f"onerelator came from {package.__file__}, not from {SRC}")
    return package


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest value with ten values above it."""
    return n - 11


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import speed
    import tracing
    import workloads

    run_start = perf_counter()
    tracer = tracing.Tracer() if trace else None
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    build = workloads.prepare(name, seed)
    setups = []  # scaled, like every timing below; see speed.py
    raw: dict = {"setups": [], "passes": []}  # unscaled, for standard error
    scales = []  # one per pass, from the median of its references

    def set_up() -> list:
        for _ in range(SETUPS_PER_PASS):
            gc.collect()  # the last set-up's modules and items, so peak RSS stays that of one
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            if tracer is not None:
                tracer.phase = "setup"
            before = speed.reference()
            start = perf_counter()
            items = build(tracing.Lib(_import_onerelator(), tracer), workdir)
            elapsed = perf_counter() - start
            raw["setups"].append(elapsed)
            setups.append(elapsed * speed.REF_SECONDS * 2 / (before + speed.reference()))
        if tracer is not None:
            tracer.phase = "pass"
        return items

    try:
        items = set_up()
        times = [[] for _ in items]  # per item, the times of its completed attempts
        spent = [[] for _ in items]  # per item, the times of all its attempts
        problems: list = []
        wrong = 0
        attempted = failed = passes = 0
        timed = 0.0
        while passes < MIN_PASSES or timed < seconds:
            if passes:
                items = None
                items = set_up()  # the same inputs, from a fresh import
            elapsed_ok = []  # (item index, seconds, completed) of this pass
            refs = []
            for index, item in enumerate(items):
                attempted += 1
                token = tracer.open_item(index) if tracer is not None else None
                start = perf_counter()
                try:
                    out, raised = item.run(), None
                except Exception as exc:  # an item that raises counts as failed
                    out, raised = None, exc
                elapsed = perf_counter() - start
                timed += elapsed
                if token is not None:
                    tracer.close_item(token)
                if raised is None:
                    found = item.check(out)
                    wrong += bool(found)
                else:
                    found = [f"{type(raised).__name__}: {raised}"]
                out = None  # the output must not outlive its check into later timed calls
                if found:
                    failed += 1
                    problems += [f"{item.label}: {p}" for p in found]
                elapsed_ok.append((index, elapsed, not found))
                refs.append(speed.reference())
            passes += 1
            scales.append(speed.REF_SECONDS / statistics.median(refs))
            raw["passes"].append(sum(t for _, t, _ in elapsed_ok))
            for index, elapsed, completed in elapsed_ok:
                nearby = refs[max(0, index - LOCAL): index + LOCAL + 1]
                scaled = elapsed * speed.REF_SECONDS / statistics.median(nearby)
                # a failed item's time stays out of the per-item times
                # and counts against the rate
                spent[index].append(scaled)
                if completed:
                    times[index].append(scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # an item's time is its median over passes: this machine has stretches
    # both slower and faster than usual, and a median of three or more passes
    # is moved by neither a slow pass nor a fast one.  The rate is that of a
    # pass at those medians: items completed per pass over the summed median
    # time of every attempt, failed ones included.
    per_item = sorted(statistics.median(ts) for ts in times if ts)
    pass_s = sum(statistics.median(ts) for ts in spent)
    if len(per_item) < 11:
        raise SystemExit(f"{name}: only {len(per_item)} items ever completed; no tail to report")
    print(
        f"{name}: seed {seed}, {len(items)} items, {passes} passes, "
        f"timed {timed:.3f}s ({timed / passes:.3f}s per pass), "
        f"wall {perf_counter() - run_start:.3f}s, {len(problems)} problems",
        file=sys.stderr,
    )
    print(
        f"  unscaled: setup median {statistics.median(raw['setups']):.4f}s, "
        f"pass median {statistics.median(raw['passes']):.3f}s; "
        f"scales {' '.join(f'{x:.3f}' for x in scales)}",
        file=sys.stderr,
    )
    for problem in problems[:20]:
        print(f"  {problem}", file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"items-{name}-trace{int(trace)}.json"), "w") as fh:
        json.dump([[item.label, ts] for item, ts in zip(items, times)], fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, f"trace-{name}.csv"))
        values = tracer.metrics(passes, len(setups))
        section = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": (attempted - failed) / passes / pass_s,
            "item_p50_s": statistics.median(per_item),
            "item_tail_s": per_item[tail_index(len(per_item))],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in _declared(section)}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _declared(key: str):
    """One field of BENCHMARK.json, which holds the metric units and run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[key]


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not (proc.returncode == 1 and lines):
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"all-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    correct = all(r["correct"] for r in summary.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": m for w, r in summary.items() for k, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="input seed (default: fixed per workload)")
    parser.add_argument("--seconds", type=float,
                        help="least timed seconds (default: run_seconds of BENCHMARK.json); "
                        f"whole passes over the items, at least {MIN_PASSES}, run until then")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "onerelator", "__init__.py")):
        print(f"error: no onerelator sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _declared("run_seconds")
    if args.workload is None:
        return run_all(args)
    sys.path[:0] = [HERE, SRC]
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
