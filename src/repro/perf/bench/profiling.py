"""Profiling hooks: cProfile hot-function summaries and tracemalloc
peak-memory deltas, attached to the existing obs spans.

``profile_call`` runs one callable under :mod:`cProfile` (with
``tracemalloc`` tracking the peak-allocation delta), extracts the top
functions by cumulative time, and — when tracing is active — records a
``bench.profile`` span carrying the summary as a structured
``profile.hot`` event, so a ``--trace`` bench run lands the profile
next to the stage spans in the same trace file and chrome export.
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from ...obs.tracing import span as obs_span

#: how many hot functions a summary keeps by default
DEFAULT_LIMIT = 10


@dataclass(frozen=True)
class HotFunction:
    """One row of a hot-function summary."""

    func: str
    file: str
    line: int
    ncalls: int
    tottime_s: float
    cumtime_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "func": self.func,
            "file": self.file,
            "line": self.line,
            "ncalls": self.ncalls,
            "tottime_s": self.tottime_s,
            "cumtime_s": self.cumtime_s,
        }


@dataclass
class ProfileResult:
    """Everything one profiled call produced."""

    name: str
    value: Any
    hot: List[HotFunction]
    peak_bytes: int
    total_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "total_s": self.total_s,
            "peak_bytes": self.peak_bytes,
            "hot": [h.to_dict() for h in self.hot],
        }


def hot_functions(
    profile: cProfile.Profile, limit: int = DEFAULT_LIMIT
) -> Tuple[List[HotFunction], float]:
    """Top ``limit`` functions by cumulative time, plus total time."""
    stats = pstats.Stats(profile)
    rows: List[HotFunction] = []
    for (file, line, func), (cc, nc, tottime, cumtime, _callers) in (
            stats.stats.items()):  # type: ignore[attr-defined]
        rows.append(HotFunction(
            func=func, file=file, line=line, ncalls=int(nc),
            tottime_s=float(tottime), cumtime_s=float(cumtime),
        ))
    rows.sort(key=lambda r: (-r.cumtime_s, r.file, r.line, r.func))
    return rows[:limit], float(getattr(stats, "total_tt", 0.0))


def profile_call(
    name: str, fn: Callable[[], Any], limit: int = DEFAULT_LIMIT
) -> ProfileResult:
    """Run ``fn`` once under cProfile + tracemalloc; attach the summary
    to the active trace (no-op when tracing is off)."""
    with obs_span("bench.profile", bench=name) as sp:
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        profiler = cProfile.Profile()
        try:
            value = profiler.runcall(fn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started_here:
                tracemalloc.stop()
        hot, total_s = hot_functions(profiler, limit=limit)
        peak_bytes = max(peak - before, 0)
        sp.set_attr("total_s", total_s)
        sp.set_attr("peak_bytes", peak_bytes)
        sp.add_event(
            "profile.hot",
            functions=[h.to_dict() for h in hot],
        )
    return ProfileResult(
        name=name, value=value, hot=hot, peak_bytes=peak_bytes,
        total_s=total_s,
    )


def format_profile(result: ProfileResult) -> str:
    """A fixed-width hot-function table for terminal output."""
    lines = [
        f"== {result.name} ==",
        f"total {result.total_s * 1e3:.2f}ms, "
        f"peak memory delta {result.peak_bytes / 1024:.1f} KiB",
        f"{'cumtime':>10} {'tottime':>10} {'ncalls':>8}  function",
    ]
    for h in result.hot:
        location = f"{h.file}:{h.line}" if h.line else h.file
        lines.append(
            f"{h.cumtime_s * 1e3:>8.2f}ms {h.tottime_s * 1e3:>8.2f}ms "
            f"{h.ncalls:>8}  {h.func} ({location})"
        )
    return "\n".join(lines)
