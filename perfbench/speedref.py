"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

On a shared host the speed of a vCPU changes by up to 1.7x within minutes,
and from one second to the next, with no steal time to show for it: other
tenants slow the core, its caches and its sibling hyperthread, and the
process's own CPU time grows with its wall time.  Timing the workload alone
therefore measures the neighbours.

The reference work never changes and imports nothing from tau2.  During the
timed passes, ``SpeedRef.sampling`` runs one small unit of it every
SAMPLE_EVERY_S or so from a timer signal, so it samples the same stretches of
machine speed as the workload, and the callers take its time out of the
invocation's.  Between fresh interpreter starts, ``SpeedRef.after`` runs it
in proportion to the time the starts took.  ``scale`` is the reference time
the benchmark was calibrated at divided by the time measured in this run;
multiplying a measured time by it gives the time the work would take when
the machine runs at that reference speed.
"""

from __future__ import annotations

import contextlib
import signal
import time
from math import gcd

# CPU time of one tick at the reference speed: a round figure near the
# 0.030 to 0.046 s a tick took during the runs behind the reference numbers
# in README.md (2-vCPU Intel Xeon VM, Python 3.11).  It only sets the unit of
# the scaled times; changing it would rescale every reported time.
TICK_SECONDS = 0.05
TICK_EVERY_S = 0.25  # workload seconds between ticks
UNITS = 16  # pieces of work in one tick
SAMPLE_EVERY_S = 0.03  # wall seconds from one unit to the next while sampling


def _arith_and_dicts(k: int) -> int:
    total = 0
    for i in range(k, k + 9_400):
        total += i * i % 7
    counts: dict[int, int] = {}
    for i in range(625):
        counts[i % 100] = counts.get(i % 100, 0) + i
    return total + len(counts)


def _row_reduce(k: int) -> int:
    """Echelon-style integer row reduction on small fixed matrices, with
    entries kept bounded, plus tuple-keyed dict reads."""
    acc = 0
    for t in range(k, k + 12):
        rows = [[(i * 7919 + j * 104729 + t) % 201 - 100 for j in range(8)] for i in range(6)]
        for c in range(8):
            pivot = next((r for r in rows if r[c]), None)
            if pivot is None:
                continue
            for r in rows:
                if r is not pivot and r[c]:
                    g = gcd(pivot[c], r[c])
                    a, b = r[c] // g, pivot[c] // g
                    for k in range(8):
                        r[k] = (b * r[k] - a * pivot[k]) % 1000003
        table = {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)}
        acc += sum(table.get((i, i), 0) for i in range(6))
    return acc


class SpeedRef:
    """Reference work run over one run's passes of one kind.

    ``seconds`` is the reference's own CPU time (``time.thread_time``).  It
    leaves out the stretches in which the hypervisor runs another guest on
    this vCPU (steal time, which comes in bursts of up to seconds) and, in
    passes with a thread pool, the waits for the interpreter lock, which
    would count several switch intervals into a 3 ms unit.  ``spent`` is the
    same work on ``clock``, the clock the caller times its passes on, for
    the caller to take out of them.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.seconds = 0.0
        self.spent = 0.0
        self.units = 0
        self._owed = 0.0  # ticks due for workload time already spent

    def unit(self):
        start, cpu_start = self.clock(), time.thread_time()
        k = self.units % UNITS
        _arith_and_dicts(k)
        _row_reduce(k)
        self.seconds += time.thread_time() - cpu_start
        self.spent += self.clock() - start
        self.units += 1

    def tick(self):
        for _ in range(UNITS):
            self.unit()

    def after(self, workload_seconds: float):
        """Tick once for every TICK_EVERY_S of workload time since the last tick."""
        self._owed += workload_seconds / TICK_EVERY_S
        while self._owed >= 1:
            self.tick()
            self._owed -= 1

    @contextlib.contextmanager
    def sampling(self):
        """Run one unit of reference work SAMPLE_EVERY_S of wall time after
        the last, while the block runs.  A SIGALRM handler runs it, in the
        main thread between two bytecodes of whatever runs there, so the
        reference samples the machine's speed within an invocation, not
        only between them.  The handler arms the timer anew only after its
        unit, so a unit stalled past the interval cannot start another
        inside itself.  Callers subtract the growth of ``spent`` from what
        they time."""
        active = True

        def handler(signum, frame):
            self.unit()
            if active:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        if not self.units:
            self.tick()
        return TICK_SECONDS / UNITS * self.units / self.seconds
