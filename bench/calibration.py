"""Machine-speed calibration.

The sandboxes this benchmark runs in share their host: the same
deterministic computation takes 10-20% longer in one minute than in the
next, with no steal time to show for it.  That drift is larger than the
bounds a regression gate needs, and no statistic taken inside one run
removes it, because a whole run can fall into a slow spell.

So every run also times a fixed *kernel* of interpreter-bound work
(dicts, sorting, json, pickle: standard library only, nothing from the
program under test), again and again while it measures, and reports
each duration scaled by ``NOMINAL_S / kernel seconds at that moment``:
milliseconds as they would read on a machine where the kernel takes
``NOMINAL_S``.  Raw values are printed beside the scaled ones.

Library workloads run the kernel in the measuring thread, between ops
(never inside one), and scale each op by the samples around it.  Service
workloads cannot: the time is spent in the server process.  They run
the kernel in a third process at a low duty cycle and scale a whole
timed section by one factor.  On a machine with as many busy processes
as cores that third process is often preempted mid-kernel, and how
often depends on the load the server under test makes; so the factor is
taken from the *fastest quarter* of its samples, the ones that ran
undisturbed and show the speed of the core alone.  This follows the
drift of the whole machine from one run to the next; it cannot follow a
slow spell inside a run.
"""

from __future__ import annotations

import bisect
import json
import pickle
import signal
import subprocess
import sys
import time
from statistics import median
from time import perf_counter
from typing import List

#: wall seconds of one ``kernel()`` on the sandbox the benchmark was
#: defined on, in a calm minute (tool-paper's tomcatv op then takes
#: 39.5 ms).  It only sets the scale.
NOMINAL_S = 0.0034

#: the same for the calibrator process's undisturbed samples (its
#: kernel starts from an idle core, the in-thread one from the caches
#: the last op left behind)
NOMINAL_PROCESS_S = 0.0028

#: in-thread: at most one sample per this many seconds of measuring
SAMPLE_EVERY_S = 0.05
#: the calibrator process sleeps this long between samples
PROCESS_SLEEP_S = 0.2


def kernel() -> int:
    table = {}
    for i in range(3000):
        table[(i * 7919) % 1013, i % 7] = i * 0.5
    ranked = sorted(table.items(), key=lambda item: item[1])
    text = json.dumps([list(key) + [value] for key, value in ranked[:400]])
    json.loads(text)
    pickle.loads(pickle.dumps(ranked))
    return len(text)


class Timeline:
    """Kernel timings over time; ``factor(t)`` is the scale at ``t``.
    ``perf_counter`` is the system-wide monotonic clock, so timelines
    recorded in another process line up with this one's."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        begin = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append((begin + end) / 2)
        self.seconds.append(end - begin)

    def sample_if_due(self) -> None:
        if not self.times or (
            perf_counter() - self.times[-1] >= SAMPLE_EVERY_S
        ):
            self.sample()

    def factor(self, t: float, width: int = 2) -> float:
        """``NOMINAL_S`` over the median kernel time of the ``width``
        samples on each side of ``t``."""
        if not self.times:
            return 1.0
        at = bisect.bisect(self.times, t)
        near = self.seconds[max(at - width, 0):at + width]
        return NOMINAL_S / median(near)

    def _window(self, begin: float, end: float) -> List[float]:
        lo = bisect.bisect_left(self.times, begin)
        hi = bisect.bisect_right(self.times, end)
        return self.seconds[lo:hi] or self.seconds

    def factor_between(self, begin: float, end: float) -> float:
        """For in-thread samples: by their median over the window."""
        near = self._window(begin, end)
        return NOMINAL_S / median(near) if near else 1.0

    def floor_factor(self, begin: float, end: float) -> float:
        """For a calibrator process's samples: by the first quartile
        over the window (the samples nothing preempted)."""
        near = sorted(self._window(begin, end))
        if not near:
            return 1.0
        return NOMINAL_PROCESS_S / near[len(near) // 4]


class CalibratorProcess:
    """The kernel in a process of its own, sampling until stopped."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )

    def stop(self) -> Timeline:
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        timeline = Timeline()
        if out:
            timeline.times, timeline.seconds = json.loads(out)
        return timeline


def _main() -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    timeline = Timeline()
    for _ in range(3):
        kernel()
    while not stop:
        timeline.sample()
        time.sleep(PROCESS_SLEEP_S)
    json.dump([timeline.times, timeline.seconds], sys.stdout)


if __name__ == "__main__":
    _main()
