"""Machine-speed normalisation.

On a shared virtual machine the speed of pure-Python code drifts by up to
2x, within seconds as well as over minutes. A fixed reference routine, timed
every few tens of milliseconds while samples are taken, measures that
drift: every sample is divided by the reference time measured during it
and multiplied by the routine's nominal time. Figures then read as time on
a machine that runs the routine in ``NOMINAL_REF_S``.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# About the best time of reference_routine() on the machine the README figures
# come from (2 vCPU KVM guest, CPython 3.11). Changing it rescales every figure.
NOMINAL_REF_S = 0.0060
REF_NODES = 5000


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.next = None


def reference_routine() -> int:
    """Fixed pure-Python work of the program's kind: it allocates thousands
    of small objects and strings, fills and reads a dict, tests types and
    formats floats. A small, cache-resident routine tracks the program's
    speed worse, because the drift hits allocation-heavy code harder."""
    nodes = [_Node(f"key{i}", i * 0.5) for i in range(REF_NODES)]
    table = {}
    for node in nodes:
        table[node.key] = node
    acc = 0
    for node in nodes:
        found = table[node.key]
        if isinstance(found.value, float):
            acc += len(f"{found.key}={found.value:.3f}")
    return acc


def time_reference() -> float:
    """One timed run of the reference routine, in seconds.

    The collector is off while it runs: a collection would scan whatever
    the caller holds at the time (a long trace, say), and the reference
    must not depend on that."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_routine()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedLog:
    """Reference times sampled by an interval timer while samples are taken.

    Inside the ``with`` block, SIGALRM fires every ``interval`` seconds and
    its handler times the reference routine. The handler's own time is
    counted in ``stolen``, so a sample subtracts whatever the handler took
    while it ran. A sample is normalised by the mean of the reference times
    taken inside it, or, for a sample too short to contain one, by the
    reference interpolated at its midpoint. One process, one thread.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.at: list[float] = []
        self.ref: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        ref = time_reference()
        self.at.append(t0 + ref / 2)
        self.ref.append(ref)
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)

    def _ref_at(self, t: float) -> float:
        i = bisect.bisect_left(self.at, t)
        if i == 0:
            return self.ref[0]
        if i == len(self.at):
            return self.ref[-1]
        a, b = self.ref[i - 1], self.ref[i]
        return a + (b - a) * (t - self.at[i - 1]) / (self.at[i] - self.at[i - 1])

    def normalise(self, sample: tuple[float, float, float]) -> float:
        """``sample`` is (seconds net of the handler, start, end)."""
        net, t0, t1 = sample
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        ref = sum(self.ref[lo:hi]) / (hi - lo) if hi > lo else self._ref_at((t0 + t1) / 2)
        return net * NOMINAL_REF_S / ref
