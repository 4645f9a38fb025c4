"""Contention-corrected timing.

On a shared machine, other tenants slow this one by up to about two times,
in phases that last from milliseconds to tens of seconds. Both wall and CPU
time stretch, so neither the median nor the fastest of a few multi-second
passes reads the same from one run to the next.

A probe thread pauses the measured work every PERIOD_S seconds, runs a fixed
piece of work (small complex matrix products, like the integrators' inner
loops) and records how long it took. A probe that took f times longer
than REFERENCE_PROBE_S says the processor ran at 1/f of the reference speed
around it. corrected(t0, t1) leaves out the pauses and weights every other
moment of [t0, t1] by the speed the last probe before it measured. The result
is the time [t0, t1] would have taken on an uncontended machine on which the
probe takes REFERENCE_PROBE_S.

The measured work must be paused while the probe runs, or the probe would
measure the work competing with it as well. Work in this process pauses by
itself: the probe holds the interpreter lock. Work in another process group
(see watch()) is stopped with SIGSTOP and resumed with SIGCONT, and the probe
takes turns on the CPUs that work may use. Each probe runs twice and only the
second run is timed, so it measures the processor and not the refill of
caches the work has just used.

The reference is a constant, not the fastest probe of the run, because a
whole run can fall into a contended phase, and then its fastest probe is slow
too. On the reference machine the result is in seconds of its wall clock.
Elsewhere it is in the same units, off by one fixed factor (the machine's
fastest probe, printed with every result, over REFERENCE_PROBE_S), which
cancels when two versions are compared on one machine.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import threading
import time

import numpy as np

PERIOD_S = 0.01
# Fastest probe on the reference machine, a 2-vCPU x86_64 sandbox: 108-116 us
# in 22 of twenty-four 0.5 s bursts of back-to-back probes.
REFERENCE_PROBE_S = 110e-6
_H = np.full((10, 10), 0.1 + 0.1j)
_V = np.ones(10, dtype=complex)


def _probe() -> float:
    """About 0.1 ms of the integrators' kind of work when uncontended: 10x10
    complex matrix-vector products (Schrodinger) and matrix products (Lindblad)."""
    t0 = time.perf_counter()
    v, m = _V, _H
    for _ in range(8):
        m = _H @ m * 0.5
        for _ in range(6):
            v = _H @ v * 0.5
    return time.perf_counter() - t0


def _signal_group(group: int, sig: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(group, sig)


class ContentionProbe:
    """Samples the processor's speed from a thread while the block runs.

    For work in this process, pin the process to one CPU before entering, so
    the probe thread shares the work's CPU.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.pauses: list[tuple[float, float]] = []  # when the work was paused
        self.probes: list[float] = []  # probe duration within each pause
        self._group: int | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="contention-probe")

    def _run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        turn = 0
        while not self._stop.wait(self.period_s):
            group = self._group
            start = time.perf_counter()
            if group is not None:
                # The stopped work may run on any of these CPUs: take turns.
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                turn += 1
                _signal_group(group, signal.SIGSTOP)
            try:
                _probe()  # warm-up, untimed
                took = _probe()
            finally:
                if group is not None:
                    _signal_group(group, signal.SIGCONT)
            self.probes.append(took)
            self.pauses.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def watch(self, group: int):
        """Pause process group `group`, not this process, for the probes."""
        self._group = group
        try:
            yield
        finally:
            self._group = None

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def floor_s(self) -> float:
        return min(self.probes, default=0.0)

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at the reference speed.

        Pauses are left out. Before the first probe the first probe's speed
        applies. With no probes at all, the raw duration is returned.
        """
        if not self.probes:
            return t1 - t0
        starts = [start for start, _ in self.pauses]
        i = max(bisect.bisect_right(starts, t0) - 1, 0)
        total, at = 0.0, t0
        while at < t1:
            pause_start, pause_end = self.pauses[i]
            if at < pause_start:  # running until this pause
                until = min(pause_start, t1)
                total += (until - at) * REFERENCE_PROBE_S / self.probes[max(i - 1, 0)]
                at = until
            elif at < pause_end:  # paused
                at = min(pause_end, t1)
            elif i + 1 < len(self.pauses):
                i += 1
            else:  # after the last probe
                total += (t1 - at) * REFERENCE_PROBE_S / self.probes[i]
                at = t1
        return total
