"""The measurement engine: warmup + min-of-N repetitions with robust
noise estimates.

The paper sells the layout assistant as an *interactive* tool — ILP
sizes and solve times are reported alongside the results — so the repo
needs timings it can trust across reruns.  The protocol here is the
standard micro-benchmarking one:

- a fixed number of **warmup** repetitions runs first (untimed), so
  lazy imports, allocator pools, and the process-wide training-database
  cache are all hot before the clock starts;
- each timed repetition is one ``perf_counter`` interval around the
  callable (monotonic, immune to wall-clock steps);
- the summary statistic is the **minimum** (the least-noise estimate of
  the true cost on an otherwise idle machine) with the **median** and
  the **MAD** (median absolute deviation) recorded alongside so the
  regression detector can tell a real slowdown from scheduler noise;
- peak memory is measured once, in a separate repetition under
  ``tracemalloc`` — tracing slows execution several-fold, so the memory
  repetition never contributes a timing sample.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping

from ...obs.tracing import span as obs_span

#: defaults used by ``repro bench run``
DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1


def median(values: List[float]) -> float:
    """Plain median (no statistics import needed for a hot helper)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: List[float]) -> float:
    """Median absolute deviation around the median (raw, unscaled)."""
    center = median(values)
    return median([abs(v - center) for v in values])


@dataclass
class Measurement:
    """One benchmark's timing + memory summary (JSON round-trippable)."""

    name: str
    times_s: List[float] = field(default_factory=list)
    warmup: int = 0
    peak_bytes: int = 0

    @property
    def reps(self) -> int:
        return len(self.times_s)

    @property
    def min_s(self) -> float:
        return min(self.times_s) if self.times_s else 0.0

    @property
    def median_s(self) -> float:
        return median(self.times_s) if self.times_s else 0.0

    @property
    def mad_s(self) -> float:
        return mad(self.times_s) if self.times_s else 0.0

    @property
    def mean_s(self) -> float:
        return sum(self.times_s) / len(self.times_s) if self.times_s else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "min_s": self.min_s,
            "median_s": self.median_s,
            "mad_s": self.mad_s,
            "mean_s": self.mean_s,
            "reps": self.reps,
            "warmup": self.warmup,
            "peak_bytes": self.peak_bytes,
            "times_s": list(self.times_s),
        }

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any]) -> "Measurement":
        return cls(
            name=name,
            times_s=[float(t) for t in data.get("times_s", [])],
            warmup=int(data.get("warmup", 0)),
            peak_bytes=int(data.get("peak_bytes", 0)),
        )


def measure_memory(fn: Callable[[], Any]) -> int:
    """Peak-allocation delta (bytes) of one call, via ``tracemalloc``.

    When tracing is already on (a caller's profiling session), the peak
    counter is reset instead of restarting the tracer, so nesting is
    safe.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started_here:
            tracemalloc.stop()
    return max(peak - before, 0)


def measure(
    name: str,
    fn: Callable[[], Any],
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    memory: bool = True,
    timer: Callable[[], float] = perf_counter,
) -> Measurement:
    """Run the warmup + min-of-N protocol on ``fn``.

    Records a ``bench.measure`` span (with the summary statistics as
    attributes) when tracing is active; a no-op otherwise.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    with obs_span("bench.measure", bench=name, repeats=repeats,
                  warmup=warmup) as sp:
        for _ in range(warmup):
            fn()
        times: List[float] = []
        for _ in range(repeats):
            t0 = timer()
            fn()
            times.append(max(timer() - t0, 0.0))
        peak = measure_memory(fn) if memory else 0
        result = Measurement(
            name=name, times_s=times, warmup=warmup, peak_bytes=peak
        )
        sp.set_attr("min_s", result.min_s)
        sp.set_attr("median_s", result.median_s)
        sp.set_attr("mad_s", result.mad_s)
        sp.set_attr("peak_bytes", result.peak_bytes)
    return result
