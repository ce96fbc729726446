"""Wall times, and the same times at a reference speed of the machine.

A shared two-core host runs the same code 20-40% faster or slower from one
minute to the next, so ten wall times of one workload spread by up to a
quarter of their median.  A fixed calibration kernel follows that speed:
it is timed right before and right after an operation, and every
PROBE_INTERVAL_S while an in-process operation runs (from a SIGALRM
handler, whose own time is taken off the operation's wall time).  The
operation's reference time is its wall time scaled by REFERENCE_KERNEL_S
over the mean kernel time: the time it would take on a machine on which
the kernel takes REFERENCE_KERNEL_S.

While a subprocess runs, the kernel would compete with it for the cores,
so subprocesses are only bracketed, and their reference time follows the
machine less closely.
"""

import signal
import time
from dataclasses import dataclass
from statistics import mean

REFERENCE_KERNEL_S = 0.007
PROBE_INTERVAL_S = 0.5
KERNEL_REPEATS = 3


def _kernel() -> int:
    """Fixed work in the program's mix: big-integer masks, a dict, a loop."""
    masks = [((1 << 6000) // 7) ^ (k << 100) for k in range(6)]
    acc = 0
    table = {}
    for q in range(1, 900):
        m = 0
        for pm in masks:
            m |= pm & (pm >> q)
        acc ^= m & 0xFFFF
        for k in range(30):
            table[(acc + k) & 255] = k
            acc = (acc * 31 + k) & 0xFFFFFF
    return acc


def kernel_seconds() -> float:
    """Fastest of a few timings of the calibration kernel."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best


@dataclass(frozen=True)
class Timing:
    """Wall seconds of some operations, and the same at the reference speed."""

    wall: float = 0.0
    ref: float = 0.0

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.wall + other.wall, self.ref + other.ref)


class Clock:
    """Times the body of a ``with`` block; ``timing`` is set on exit.

    With ``probe`` the kernel is also timed every PROBE_INTERVAL_S inside
    the block, and each probe's (start, end) is appended to ``gaps``.  Only
    for code that runs in this process.
    """

    def __init__(self, probe: bool, gaps: list | None = None):
        self.probe = probe
        self.gaps = [] if gaps is None else gaps
        self.samples: list[float] = []
        self.probe_s = 0.0
        self.timing = Timing()

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(kernel_seconds())
        ended = time.perf_counter()
        self.gaps.append((started, ended))
        self.probe_s += ended - started

    def __enter__(self):
        self.samples.append(kernel_seconds())
        if self.probe:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._started - self.probe_s
        if self.probe:
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())
        self.timing = Timing(wall, wall * REFERENCE_KERNEL_S / mean(self.samples))
        return False
