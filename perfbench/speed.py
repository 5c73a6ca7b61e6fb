"""Wall times scaled to a reference host speed.

On the 2-vCPU host this benchmark was tuned on, a fixed pure-Python
loop runs at anywhere between 1.0x and 1.8x its fastest speed, in CPU
time as well as wall time, and the mix drifts within seconds: the
medians of 10-second windows of that loop have an interquartile range
of 15 % of their median, and identical sweep passes in one run differ
by up to 1.8x.  Raw wall times cannot then tell a 10 % regression from
the host's drift, and neither can one probe on each side of a
several-second pass.

So a pass is split into short stretches (a cell, a source, a serve
round) at *probes*, a fixed loop of ``PROBE_LOOPS`` additions, and each
stretch is reported scaled to the host speed at which a probe takes
``REFERENCE_PROBE_S``::

    scaled = raw * REFERENCE_PROBE_S / mean(probe before, probe after)

On a host running at the reference speed, scaled equals raw.  The
probes themselves are left out of every stretch.

A probe counts only if the program used no CPU while it ran: the
program's processes and their threads (other than the probing thread)
are read from ``/proc/<pid>/task/*/schedstat``.  A probe that overlaps
program work is discarded and retried after a short wait, which stays
in the timed stretch, so work the program defers past a reply or runs
in background threads or processes is charged to the program and never
slows a probe.  If no probe of a split is quiet, the split reuses the
last quiet one.  Probes run with profiling and tracing hooks detached.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

PROBE_LOOPS = 200_000
#: The probe's time on the host the benchmark was defined on, at its
#: typical (median) speed.
REFERENCE_PROBE_S = 0.010
#: Program CPU time a quiet probe may overlap, as a share of the probe.
QUIET_TOLERANCE = 0.05
#: Attempts at a quiet probe per split, and the wait between them.
QUIET_TRIES = 20
QUIET_WAIT_S = 0.005


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    profile, trace = sys.getprofile(), sys.gettrace()
    sys.setprofile(None)
    sys.settrace(None)
    try:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        return time.perf_counter() - start
    finally:
        sys.setprofile(profile)
        sys.settrace(trace)


def tree_cpu_ns(pid: int, skip_tid: int | None = None) -> int:
    """CPU time of every thread of ``pid`` and of its descendants,
    except the thread ``skip_tid``."""
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return 0  # exited
    for tid in tids:
        task = Path(f"/proc/{pid}/task/{tid}")
        try:
            if int(tid) != skip_tid:
                total += int((task / "schedstat").read_text().split()[0])
            children = (task / "children").read_text().split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        total += sum(tree_cpu_ns(int(child)) for child in children)
    return total


class ScaledClock:
    """Splits the time since its creation into scaled stretches.

    ``pid`` is the root process of the program under test; it may be
    this process, whose probing thread then does not count as program.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.noisy_probes = 0
        self._probe, _ = self._quiet_probe(None)
        self._end = time.perf_counter()

    def _quiet_probe(self, fallback: float | None) -> tuple[float, float]:
        """A quiet probe's time and the moment it began (or, if none is
        quiet, ``fallback`` and the moment the attempts ended)."""
        me = threading.get_native_id()
        for _ in range(QUIET_TRIES):
            began = time.perf_counter()
            cpu = tree_cpu_ns(self.pid, me)
            took = probe()
            busy = tree_cpu_ns(self.pid, me) - cpu
            if busy <= QUIET_TOLERANCE * took * 1e9:
                return took, began
            self.noisy_probes += 1
            time.sleep(QUIET_WAIT_S)
        return (took if fallback is None else fallback), time.perf_counter()

    def split(self) -> tuple[float, float]:
        """End the current stretch: its ``(raw_s, speed factor)``.

        The stretch runs from the end of the previous split's probe to
        the start of this split's quiet probe; ``raw_s * factor`` is its
        time at the reference speed.
        """
        after, began = self._quiet_probe(self._probe)
        raw_s = began - self._end
        factor = REFERENCE_PROBE_S / ((self._probe + after) / 2)
        self._probe = after
        self._end = time.perf_counter()
        return raw_s, factor
