"""The machine's speed, read from a fixed pure-Python reference.

On a shared machine the speed swings by a quarter or more for minutes at a
time, longer than a run, so runs of the same code minutes apart read
different times.  The benchmark times :func:`reference` after every item and
around every set-up, and scales each timing by ``REF_SECONDS`` over the
reference times nearest it: a timing is reported in seconds at the speed at
which the reference takes ``REF_SECONDS``.  The reference is the
benchmark's own code and never calls ``onerelator``, so a change to the
program does not move it.  Half of it is integer arithmetic in a loop, half
is the checkers' brute-force canonical forms of short words (tuples,
slices, comparisons): over ten minutes on a shared 2-vCPU machine, the first
tracked the decomposition and periodic crash items best, the second the
certificate searches and the wide complexes.
"""
from __future__ import annotations

import gc
from time import perf_counter

import checks as C
from workloads import all_reduced

#: median time of :func:`reference` between items on the 2-vCPU machine of
#: the README's figures (Python 3.11.7), over 75 passes of 15 runs; scaled
#: timings read as seconds at that speed
REF_SECONDS = 0.0067

_WORDS = tuple(all_reduced("abt", 3))


def reference() -> float:
    """Seconds one run of the reference took, with the collector off so that
    the program's heap cannot slow it."""
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(15_000):
            total += i * i % 7
        for _ in range(3):
            for w in _WORDS:
                C.canonical(w)
        return perf_counter() - start
    finally:
        gc.enable()
