"""Host speed probe: wall-clock intervals turned into reference-speed seconds.

On a small share of a busy host the same pass of pure Python code takes
up to 1.4 times as long in one minute as in the next, and a process that
moves between vCPUs changes speed inside a pass. The probe measures that
speed where the work runs: every PERIOD_S of wall time a SIGALRM
interrupts the process, which then times one fixed loop of integer and
dict operations. ``reference_seconds`` scales each stretch of an interval
by REF_PROBE_S over the duration of the probes around it, which gives
the time the interval would have taken at the speed where one probe
takes REF_PROBE_S. Probe times are ``time.monotonic()``, one clock for
every process on Linux, so a parent can scale a child's interval with
the child's probes. Timers are not inherited across fork, so the
workers of a ``multiprocessing`` pool run unprobed.
"""

from __future__ import annotations

import atexit
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import monotonic

PERIOD_S = 0.01
# One probe on a quiet 2-core 2 GHz host (Intel Xeon, Python 3.11).
REF_PROBE_S = 45e-6
# Each stretch is scaled by the median of this many probes around it,
# so that one probe that was itself interrupted does not weigh.
WINDOW = 5

_samples: list = []


def _loop() -> dict:
    table: dict = {}
    for i in range(400):
        table[i & 31] = table.get(i & 31, 0) + i
    return table


def _on_alarm(signum, frame) -> None:
    start = monotonic()
    _loop()
    end = monotonic()
    _samples.append((end, end - start))


def start() -> None:
    """Probe this process every PERIOD_S until ``stop`` or exit. The
    interpreter resets the handler as it shuts down, so an alarm left
    running would then kill the process."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    atexit.register(stop)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def samples() -> list:
    """(end time, duration) of every probe so far."""
    return list(_samples)


def reference_seconds(begin: float, end: float, probes: list) -> float:
    """The interval [begin, end] in reference-speed seconds. Each stretch
    of it that ends at a probe, and the rest after the last one, is scaled
    by the median duration of the WINDOW probes around the one that ends
    it, or, for the rest, around the first probe after ``end``."""
    if not probes:
        raise ValueError("no probe ran")
    times = [when for when, _ in probes]
    first, after = bisect_right(times, begin), bisect_left(times, end)
    total, previous = 0.0, begin
    for i in range(first, after + 1):
        when = times[i] if i < after else end
        k = min(i, len(probes) - 1)
        j = min(max(k - WINDOW // 2, 0), max(len(probes) - WINDOW, 0))
        speed = REF_PROBE_S / statistics.median(d for _, d in probes[j:j + WINDOW])
        total += (when - previous) * speed
        previous = when
    return total
