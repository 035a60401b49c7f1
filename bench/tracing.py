"""Spans around the benchmark's calls into each ``onerelator`` layer.

The benchmark reaches the library only through a :class:`Lib` object.  In a
traced run every layer function on it is replaced by a wrapper that records a
span (group, function, parent span, item, start, end) plus counts read from
the returned value, and so are the names that ``onerelator.cli`` imports, so
that spans also cover the work one CLI command does.  Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

#: span group -> (module, function names); a group is one per-layer metric prefix
GROUPS = {
    "words": ("words", ("parse_word", "exponent_sum", "cyclic_reduce",
                        "is_conjugate_to_gt", "conjugacy_canonical")),
    "strata.decompose": ("strata", ("lemma2_decompose",)),
    "strata.rewrite": ("strata", ("build_two_variable_word", "substitute_aux")),
    "spheres.generate": ("spheres", ("generate_random", "save_complex")),
    "spheres.load": ("spheres", ("load_complex",)),
    "spheres.validate": ("spheres", ("validate_sphere",)),
    "spheres.detect": ("spheres", ("detect_type1", "detect_type2")),
    "traffic.simulate": ("traffic", ("simulate", "verify_at_least_two_crashes")),
    "traffic.plan": ("traffic", ("adversarial_schedule", "uphill_schedule")),
    "surjectivity.analyze": ("surjectivity", ("analyze",)),
    "surjectivity.kernel": ("surjectivity", ("normal_closure_search",)),
    "surjectivity.certify": ("surjectivity", ("quotient_certificate",)),
    "cli": ("cli", ("main",)),
}

#: untraced helpers the workloads also use
HELPERS = {
    "words": ("Word", "free_alphabet"),
    "traffic": ("uniform_schedule",),
    "surjectivity": ("one_relator_presentation",),
}


class Lib:
    """The library functions a workload may call, by bare name."""

    def __init__(self, package, tracer: "Tracer | None" = None) -> None:
        for group, (module, names) in GROUPS.items():
            mod = getattr(package, module)
            for name in names:
                fn = getattr(mod, name)
                attr = "cli_main" if module == "cli" else name
                setattr(self, attr, tracer.wrap(group, fn) if tracer else fn)
        for module, names in HELPERS.items():
            for name in names:
                setattr(self, name, getattr(getattr(package, module), name))
        if tracer is not None:
            # the CLI calls its library functions through its own imports
            for group, (module, names) in GROUPS.items():
                for name in names:
                    if module != "cli" and hasattr(package.cli, name):
                        setattr(package.cli, name, getattr(self, name))


def _counts(group: str, fn_name: str, args, out) -> tuple:
    """Counts read from a call's arguments and returned value."""
    if group == "strata.decompose":
        return (("pairs", len(out.pairs)),)
    if group == "traffic.simulate":
        events = out[1] if fn_name == "verify_at_least_two_crashes" else out
        return (
            ("horizon", Fraction(args[2])),
            ("events", len(events)),
            ("complete_events", sum(1 for e in events if e.complete)),
        )
    if group == "surjectivity.kernel":
        return (("hits", int(out is not None)),)
    if group == "surjectivity.certify":
        return (("found", int(out is not None)),)
    return ()


#: per-layer metric -> (span group, summed field); ``cli.self_s`` and
#: ``surjectivity.certify.found_ratio`` are derived in :meth:`Tracer.metrics`
PER_LAYER = tuple(
    (f"{group}.{key}", group, key)
    for group, key in (
        ("words", "calls"), ("words", "busy_s"),
        ("strata.decompose", "calls"), ("strata.decompose", "busy_s"),
        ("strata.decompose", "pairs"), ("strata.rewrite", "busy_s"),
        ("spheres.generate", "busy_s"), ("spheres.load", "busy_s"),
        ("spheres.validate", "busy_s"), ("spheres.detect", "busy_s"),
        ("traffic.simulate", "calls"), ("traffic.simulate", "busy_s"),
        ("traffic.plan", "busy_s"),
        ("surjectivity.analyze", "busy_s"),
        ("surjectivity.kernel", "calls"), ("surjectivity.kernel", "hits"),
        ("surjectivity.kernel", "busy_s"), ("surjectivity.kernel", "miss_busy_s"),
        ("surjectivity.certify", "calls"), ("surjectivity.certify", "found"),
        ("surjectivity.certify", "busy_s"), ("surjectivity.certify", "exhaustive_busy_s"),
        ("cli", "calls"), ("cli", "busy_s"), ("cli", "stdout_bytes"),
    )
) + tuple(
    (f"traffic.{key}", "traffic.simulate", key)
    for key in ("horizon", "events", "complete_events")
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.item = -1
        self.phase = "setup"

    def wrap(self, group: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out_before = sys.stdout.tell() if group == "cli" else 0
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (group, fn.__name__, parent, self.item, self.phase, start, end, ())
            if group == "cli":
                counts = (("stdout_bytes", sys.stdout.tell() - out_before),)
            else:
                counts = _counts(group, fn.__name__, args, out)
            spans[sid] = spans[sid][:-1] + (counts,)
            return out

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def open_item(self, index: int):
        """Root span for one item; library spans inside it name it as parent."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.item = index
        return sid, perf_counter()

    def close_item(self, token) -> None:
        sid, start = token
        self._stack.pop()
        self.spans[sid] = ("item", "item", -1, self.item, self.phase, start, perf_counter(), ())
        self.item = -1

    def metrics(self, passes: int, setups: int) -> dict:
        """Per-layer metrics: per pass over the items, or per set-up for
        ``spheres.generate``, which runs only in set-up."""
        sums: dict = {}
        child_time: dict = {}
        for span in self.spans:
            group, _, parent, _, phase, start, end, counts = span
            if group == "item":
                continue
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            in_setup = phase == "setup"
            if in_setup != (group == "spheres.generate"):
                continue
            acc = sums.setdefault(group, {"calls": 0, "busy_s": 0.0})
            acc["calls"] += 1
            acc["busy_s"] += end - start
            for key, value in counts:
                acc[key] = acc.get(key, 0) + value
            if group == "surjectivity.kernel" and not dict(counts)["hits"]:
                acc["miss_busy_s"] = acc.get("miss_busy_s", 0.0) + (end - start)
            if group == "surjectivity.certify" and not dict(counts)["found"]:
                acc["exhaustive_busy_s"] = acc.get("exhaustive_busy_s", 0.0) + (end - start)
        cli_self = 0.0
        for sid, span in enumerate(self.spans):
            if span[0] == "cli" and span[4] != "setup":
                cli_self += span[6] - span[5] - child_time.get(sid, 0.0)

        def get(group, key):
            value = sums.get(group, {}).get(key, 0)
            per = setups if group == "spheres.generate" else passes
            return value // per if isinstance(value, int) else float(value / per)

        out = {name: get(group, key) for name, group, key in PER_LAYER}
        out["cli.self_s"] = cli_self / passes
        calls = out["surjectivity.certify.calls"]
        out["surjectivity.certify.found_ratio"] = out["surjectivity.certify.found"] / calls if calls else 0.0
        return out

    def write(self, path: str) -> None:
        """One line per span: id, parent, item, phase, group, function, start, end."""
        with open(path, "w") as fh:
            fh.write("id,parent,item,phase,group,function,start_s,end_s\n")
            for sid, (group, fn, parent, item, phase, start, end, _) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{item},{phase},{group},{fn},{start:.9f},{end:.9f}\n")
