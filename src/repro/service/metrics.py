"""Service observability: counters, per-stage cache stats, and wall-time
distributions.

Everything is in-process and thread-safe; a snapshot is a plain dict so
it can travel over the wire protocol and be asserted on in tests.  Every
distribution — a lifetime series here, a sliding window's slot — is one
:class:`~repro.obs.window.LogBucketSketch`, so a quantile is computed
one way wherever it is read.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Tuple

from ..obs.window import DEFAULT_FAST_S, LogBucketSketch, WindowedOpStats

#: the lifetime series families, each a section of the snapshot
SERIES_FAMILIES = ("stage_seconds", "span_seconds", "bench_seconds")


class Metrics:
    """All service counters behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._cache: Dict[str, Dict[str, int]] = {}
        self._series: Dict[Tuple[str, str], LogBucketSketch] = {}
        self._windows: Dict[str, WindowedOpStats] = {}
        self.started_at = time.time()
        # Uptime is measured on the monotonic clock so it can never go
        # negative or jump when the system clock is adjusted;
        # ``started_at`` stays wall-clock for display only.
        self._started_monotonic = time.monotonic()

    # -- recording -------------------------------------------------------

    def inc(self, name: str) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    def record_cache(self, stage: str, hit: bool) -> None:
        with self._lock:
            slot = self._cache.setdefault(stage, {"hits": 0, "misses": 0})
            slot["hits" if hit else "misses"] += 1

    def _observe(self, family: str, label: str, seconds: float) -> None:
        with self._lock:
            sketch = self._series.get((family, label))
            if sketch is None:
                sketch = self._series[family, label] = LogBucketSketch()
            sketch.observe(seconds)

    def observe_stage(self, stage: str, seconds: float) -> None:
        self._observe("stage_seconds", stage, seconds)

    def observe_span(self, name: str, seconds: float) -> None:
        """Fold one trace-span duration into the span aggregates."""
        self._observe("span_seconds", name, seconds)

    def observe_bench(self, name: str, seconds: float) -> None:
        """Fold one benchmark repetition into the bench aggregates (the
        ``repro bench`` harness exports its results through here)."""
        self._observe("bench_seconds", name, seconds)

    def observe_op(self, op: str, seconds: float, ok: bool = True,
                   degraded: bool = False) -> None:
        """Record one completed service operation into its sliding
        window (the lifetime series are unaffected — windows answer
        "now", series answer "ever")."""
        with self._lock:
            window = self._windows.get(op)
            if window is None:
                window = self._windows[op] = WindowedOpStats()
            window.observe(seconds, ok=ok, degraded=degraded)

    # -- reading ---------------------------------------------------------

    def window_snapshot(self) -> Dict[str, Any]:
        """Per-op sliding-window views: a ``full``-window and a
        ``fast``-horizon snapshot per op, the input shape of
        :func:`repro.obs.slo.evaluate_objectives`."""
        with self._lock:
            windows = dict(self._windows)
        ops = {
            op: {
                "full": window.snapshot(),
                "fast": window.snapshot(horizon_s=DEFAULT_FAST_S),
            }
            for op, window in sorted(windows.items())
        }
        window_s = max(
            (w.window_s for w in windows.values()), default=0.0
        )
        return {"window_s": window_s, "fast_s": DEFAULT_FAST_S, "ops": ops}

    def snapshot(self) -> Dict[str, Any]:
        window = self.window_snapshot()
        with self._lock:
            hits = sum(s["hits"] for s in self._cache.values())
            misses = sum(s["misses"] for s in self._cache.values())
            series: Dict[str, Dict[str, Any]] = {
                family: {} for family in SERIES_FAMILIES
            }
            for (family, label), sketch in sorted(self._series.items()):
                series[family][label] = sketch.snapshot()
            return {
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "counters": dict(self._counters),
                "cache": {
                    "hits": hits,
                    "misses": misses,
                    "per_stage": {
                        stage: dict(slot)
                        for stage, slot in sorted(self._cache.items())
                    },
                },
                **series,
                "window": window,
            }
