"""Correction of timings for the speed of a shared machine.

On a machine shared with other jobs, the speed of one core drifts by up to
a factor of two, in spells from under a second to minutes, with no steal
time showing: a fixed computation then simply takes longer.  While an
operation is timed, a timer signal therefore runs fixed reference loops,
which call nothing of quiltlab, every ``GAP_S`` seconds, and once before
and once after.  Each time is reported as it would read at the reference
speed:

    corrected = (measured - reference loops run inside it) * REF_S[kind]
                / (median time of the ``kind`` loop over the samples that
                   start within WINDOW_S of it, and at least those just
                   before and after)

There are two kinds of loop, because the drift is not the same for both
kinds of work: ``interpreter`` (Python bytecode and small numpy calls, the
bulk of every workload) and ``blas`` (dense matrix products in compiled
code, the bulk of a large Cholesky factorisation).  Each operation is
corrected by the kind that matches its work; on a 2-CPU shared host the
interpreter loop's speed swung by a third between runs while a dense
Cholesky's did not follow it.

``REF_S`` is each loop's time at the reference speed, so the corrected
figures stay close to wall-clock figures.  A single loop is short and
noisy, and none runs while a long call into compiled code holds the
interpreter, so each time is scaled by the median of the loops in a window
around it rather than by its nearest neighbours.

The correction cancels slow spells that slow the loop and the program
alike.  It does not hide a change of the program, because the loops run
none of its code; a change that slows the whole process between operations
(for example a thread left spinning) would slow the loops too and be partly
cancelled.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from statistics import median
from time import perf_counter

import numpy as np

REF_S = {"interpreter": 0.010, "blas": 0.006}
GAP_S = 0.2
WINDOW_S = 1.0
_BLAS_M = np.random.default_rng(0).standard_normal((256, 256))


def interpreter_loop():
    """Interpreter work, small numpy calls and a small dense solve."""
    d = {}
    for i in range(60_000):
        d[(i * 7919) % 10007] = i
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(400):
        x = x * 0.5 + 0.25
    m = np.eye(48) * 4.0 + np.outer(x[:48], x[:48])
    for _ in range(20):
        np.linalg.solve(m, x[:48])
    return sum(sorted(d)) + float(x.sum())


def blas_loop():
    """Dense matrix products, the kernel of a blocked factorisation."""
    for _ in range(8):
        _BLAS_M @ _BLAS_M


LOOPS = {"interpreter": interpreter_loop, "blas": blas_loop}


class SpeedProbe:
    """Samples the reference loops while active (``with probe: ...``).

    Samples taken from the timer signal run in the main thread between
    bytecodes; with a tracer they are recorded as a span of their own, so
    that they add nothing to the self time of the function they interrupt.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.starts = []
        self.durations = []  # whole sample, all loops
        self.loop_s = {kind: [] for kind in LOOPS}
        self._busy = False
        self._old_handler = None

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        if self.tracer is not None:
            self.tracer.open("speed.reference_loop")
        t0 = perf_counter()
        t = t0
        for kind, loop in LOOPS.items():
            loop()
            t, t_prev = perf_counter(), t
            self.loop_s[kind].append(t - t_prev)
        if self.tracer is not None:
            self.tracer.close()
        self.starts.append(t0)
        self.durations.append(t - t0)
        self._busy = False

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, GAP_S, GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()

    def factor(self, kind):
        """Median loop time of ``kind`` over the whole probe, over REF_S."""
        return median(self.loop_s[kind]) / REF_S[kind]

    def correct(self, t0, t1, kind="interpreter"):
        """Seconds of work between ``t0`` and ``t1`` at the reference speed."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_left(self.starts, t1)
        work = t1 - t0 - sum(self.durations[lo:hi])
        first = min(bisect_left(self.starts, t0 - WINDOW_S), max(lo - 1, 0))
        last = max(bisect_left(self.starts, t1 + WINDOW_S), hi + 1)
        return work * REF_S[kind] / median(self.loop_s[kind][first:last])

    def scale(self, seconds, samples=3):
        """``seconds`` of interpreter work measured just before, at the speed sampled now."""
        for _ in range(samples):
            self.sample()
        return seconds * REF_S["interpreter"] / median(self.loop_s["interpreter"][-samples:])

    def timed(self, fn):
        """Run ``fn`` under the probe; return (result, corrected seconds)."""
        with self:
            t0 = perf_counter()
            result = fn()
            t1 = perf_counter()
        return result, self.correct(t0, t1)
