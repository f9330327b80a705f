"""Host-speed probe: how fast this core runs a fixed piece of Python,
sampled all through a timed run, so timings can be put on one scale.

The benchmark shares its host with other tenants.  The speed one core
gives this process switches between two levels about 1.7x apart every
few seconds, and a whole 20-second run can land on either, so medians
over passes move by 20-30% from run to run although the program does the
same work.  While the end-to-end metrics are measured, an interval timer
interrupts the program every ``PERIOD_S`` and runs ``probe_kernel`` (a
fixed loop of float, list and dict work that takes about
``REFERENCE_S`` on a fast core) and records how long it took.

* The probes' own seconds are subtracted from whatever was being timed.
* The host slowdown over an interval is the harmonic mean of the probe
  durations in it over ``REFERENCE_S``: the work done in a stretch of
  time is its length times the mean *speed*.
* Dividing a net time by the slowdown gives *normalized* seconds: the
  time the same work takes on a core that runs the probe in
  ``REFERENCE_S``.

The probe is benchmark code and allocates no object the garbage
collector tracks, so it neither collects the program's garbage nor runs
longer when the program changes.  ``REFERENCE_S`` is a constant, never
re-measured, so normalized figures compare across commits.
"""

from __future__ import annotations

import contextlib
import signal
import time
from bisect import bisect_left, bisect_right

#: Seconds between two probes.
PERIOD_S = 0.02
#: Probe seconds on a fast core (Intel Xeon, 2 vCPUs, CPython 3.11).
REFERENCE_S = 0.125e-3
#: The shortest stretch a slowdown is taken over: the host's speed
#: holds for seconds, and two or three probes alone would add their own
#: scatter to every short op they normalize.
WINDOW_S = 0.5
#: A probe longer than this many times the interval's median was
#: preempted, not slowed; it is left out of the mean.
PREEMPTED = 4.0

_ITEMS = [0.0] * 200
_TABLE = dict.fromkeys(range(64), 0.0)

#: The running probe, if any.
ACTIVE: "SpeedProbe | None" = None


def probe_kernel() -> float:
    acc = 0.0
    items, table = _ITEMS, _TABLE
    for i in range(600):
        x = i * 0.5
        acc += x * x / (i + 1.0)
        if i % 3 == 0:
            items[i // 3] = acc - x
        table[i & 63] = acc
    items.sort()
    return acc


def spent() -> float:
    """Seconds the running probe has taken so far (0 without one)."""
    return ACTIVE.spent if ACTIVE is not None else 0.0


class ProbeLog:
    """Probe end times and durations, in time order."""

    def __init__(self, stamps=(), durations=()):
        self.stamps: list[float] = list(stamps)
        self.durations: list[float] = list(durations)

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown over ``[start, end]`` (1.0 at the reference speed).

        An interval shorter than ``WINDOW_S`` is widened to it, about its
        middle; one that still holds fewer than two probes borrows the
        nearest probes on either side.
        """
        pad = max(0.0, WINDOW_S - (end - start)) / 2
        lo = bisect_left(self.stamps, start - pad)
        hi = bisect_right(self.stamps, end + pad)
        while hi - lo < 2 and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        sample = sorted(self.durations[lo:hi])
        if not sample:
            raise RuntimeError("no host-speed probe was taken")
        cap = PREEMPTED * sample[len(sample) // 2]
        kept = [d for d in sample if d <= cap]
        return len(kept) / sum(REFERENCE_S / d for d in kept)


class SpeedProbe(ProbeLog):
    """Probes on an interval timer while entered; one per process."""

    def __init__(self):
        super().__init__()
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # a late timer while a probe runs
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        self._busy = False
        self.stamps.append(t1)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def _arm(self, period_s: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def __enter__(self) -> "SpeedProbe":
        global ACTIVE
        if ACTIVE is not None:
            raise RuntimeError("a host-speed probe is already running")
        ACTIVE = self
        self._on_timer(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._arm(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        global ACTIVE
        self._arm(0.0)
        signal.signal(signal.SIGALRM, self._previous)
        ACTIVE = None

    @contextlib.contextmanager
    def paused(self):
        """No probes in this process while other processes do the work."""
        self._arm(0.0)
        try:
            yield
        finally:
            self._arm(PERIOD_S)


def normalized(probe: "ProbeLog | None", start: float, end: float, probe_s: float) -> float:
    """Seconds of ``[start, end]`` net of ``probe_s`` probe seconds, at the
    reference speed; plain elapsed seconds without a probe."""
    if probe is None:
        return end - start
    return (end - start - probe_s) / probe.slowdown(start, end)
