"""Sliding-window latency statistics: compact mergeable sketches in a
time-bucketed ring.

One distribution type backs every latency the service keeps: the
lifetime series of :mod:`repro.service.metrics` ("what has this process
ever seen") hold one sketch each, the sliding windows ("what is
happening *now*") a ring of them, so a quantile means the same thing in
a scrape, in ``repro top`` and in an SLO verdict.  Two pieces:

- :class:`LogBucketSketch` — a sparse geometric-bucket quantile sketch.
  Values land in bucket ``floor(log(v / MIN) / log(GAMMA))``, so any
  quantile estimate carries a bounded *relative* error of
  ``GAMMA - 1`` (~9%) regardless of scale — microsecond stage times and
  minute-long requests share one 100-slot structure.  Sketches with the
  same parameters merge by bucket-wise addition, which is exact: merging
  two sketches is indistinguishable from observing both value streams
  into one.  :meth:`LogBucketSketch.snapshot` is the series' entry in
  the ``stats`` tree; its cumulative ``le`` counts sit on :data:`LADDER`,
  a fixed stride of the sketch's own bucket bounds, so they are exact.
- :class:`WindowedOpStats` — a ring of ``buckets`` time slots of
  ``bucket_s`` seconds each (default 60 x 10s = a 10-minute window).
  Each slot holds one sketch plus ok/error/degraded counts; observing
  writes to the slot owning "now", reading merges every slot still
  inside the requested horizon.  Expiry is lazy: a slot is reused when
  the clock wraps onto it, so there is no background thread and the
  memory bound is fixed at construction.

Everything takes an injectable ``clock`` so tests can step time
deterministically, and every structure serializes to plain JSON dicts so
windows can travel over the service protocol (the ``slo`` op and
``repro top`` both read them remotely).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: serialization tag of one sketch dict
SKETCH_SCHEMA = "repro.obs/sketch/v1"

#: smallest resolvable value (1 microsecond); anything below it lands in
#: bucket 0 rather than underflowing the log
SKETCH_MIN = 1e-6

#: geometric bucket growth; relative quantile error is GAMMA - 1
SKETCH_GAMMA = 1.2

#: bucket index cap: SKETCH_MIN * GAMMA**SKETCH_BUCKETS ~ 8e2 seconds,
#: far past any request the service would ever answer
SKETCH_BUCKETS = 112

#: the exposition ladder publishes a cumulative count at every
#: LADDER_STRIDE-th bucket bound: 19 rungs x2.99 apart from 1 us to
#: 356 s, seven of them sub-millisecond.  Rungs are bucket bounds, never
#: round numbers read through :meth:`LogBucketSketch.count_le` — its
#: midpoint rule misplaces up to a quarter of a rung's samples.
LADDER_STRIDE = 6

_LOG_GAMMA = math.log(SKETCH_GAMMA)


class LogBucketSketch:
    """A sparse geometric-bucket quantile sketch (not thread-safe; the
    owning window serializes access)."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @staticmethod
    def bucket_index(value: float) -> int:
        if value <= SKETCH_MIN:
            return 0
        index = int(math.log(value / SKETCH_MIN) / _LOG_GAMMA) + 1
        return min(index, SKETCH_BUCKETS)

    @staticmethod
    def bucket_upper(index: int) -> float:
        """The upper bound of bucket ``index`` (lower bound of 0 is 0)."""
        if index <= 0:
            return SKETCH_MIN
        return SKETCH_MIN * (SKETCH_GAMMA ** index)

    def observe(self, value: float) -> None:
        value = max(float(value), 0.0)
        index = self.bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "LogBucketSketch") -> None:
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        for name in ("min", "max"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if theirs is None:
                continue
            if mine is None:
                setattr(self, name, theirs)
            else:
                pick = min if name == "min" else max
                setattr(self, name, pick(mine, theirs))

    # -- reading ---------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Geometric-midpoint quantile estimate, clamped to observed
        min/max; ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = max(q * self.count, 1.0)
        cumulative = 0
        value: float = 0.0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= target:
                upper = self.bucket_upper(index)
                lower = self.bucket_upper(index - 1) if index > 0 else 0.0
                value = math.sqrt(upper * lower) if lower > 0 else upper
                break
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def count_le(self, threshold: float) -> int:
        """How many observed values were <= ``threshold`` (bucket
        resolution: the bucket containing the threshold counts in full
        when the threshold reaches its geometric midpoint)."""
        if self.count == 0 or threshold < 0:
            return 0
        if self.max is not None and threshold >= self.max:
            return self.count
        cut = self.bucket_index(threshold)
        total = 0
        for index, n in self.counts.items():
            if index < cut:
                total += n
            elif index == cut:
                upper = self.bucket_upper(index)
                lower = self.bucket_upper(index - 1) if index > 0 else 0.0
                mid = math.sqrt(upper * lower) if lower > 0 else upper
                if threshold >= mid:
                    total += n
        return total

    def quantiles(self) -> Dict[str, Optional[float]]:
        return {
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> Dict[str, Any]:
        """The series as the ``stats`` tree carries it: exact moments,
        cumulative ``le`` counts on :data:`LADDER`, sketch quantiles."""
        buckets = {
            label: sum(n for i, n in self.counts.items() if i <= rung)
            for label, rung in LADDER
        }
        buckets["+Inf"] = self.count
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
            "quantiles": self.quantiles(),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SKETCH_SCHEMA,
            "counts": {str(i): n for i, n in sorted(self.counts.items())},
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LogBucketSketch":
        if data.get("schema") != SKETCH_SCHEMA:
            raise ValueError(
                f"sketch schema must be {SKETCH_SCHEMA!r}, "
                f"got {data.get('schema')!r}"
            )
        sketch = cls()
        sketch.counts = {
            int(i): int(n) for i, n in data.get("counts", {}).items()
        }
        sketch.count = int(data.get("count", 0))
        sketch.total = float(data.get("sum", 0.0))
        sketch.min = data.get("min")
        sketch.max = data.get("max")
        return sketch


#: the ladder as ``(le label, bucket index)``, smallest rung first
LADDER = tuple(
    (f"{LogBucketSketch.bucket_upper(index):g}", index)
    for index in range(0, SKETCH_BUCKETS + 1, LADDER_STRIDE)
)

#: default ring geometry: 60 slots x 10 s = a 10-minute window
DEFAULT_BUCKET_S = 10.0
DEFAULT_BUCKET_COUNT = 60

#: default fast horizon for burn-rate style reads (seconds)
DEFAULT_FAST_S = 60.0


class _Slot:
    """One ring slot: the sketch plus outcome counters of one period."""

    __slots__ = ("period", "sketch", "ok", "errors", "degraded")

    def __init__(self, period: int = -1):
        self.reset(period)

    def reset(self, period: int) -> None:
        self.period = period
        self.sketch = LogBucketSketch()
        self.ok = 0
        self.errors = 0
        self.degraded = 0


class WindowedOpStats:
    """Sliding-window stats of one operation (thread-safe)."""

    def __init__(
        self,
        bucket_s: float = DEFAULT_BUCKET_S,
        buckets: int = DEFAULT_BUCKET_COUNT,
        clock: Callable[[], float] = time.monotonic,
    ):
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be > 0, got {bucket_s}")
        if buckets < 2:
            raise ValueError(f"need >= 2 buckets, got {buckets}")
        self.bucket_s = float(bucket_s)
        self.buckets = int(buckets)
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: List[_Slot] = [_Slot() for _ in range(self.buckets)]

    @property
    def window_s(self) -> float:
        return self.bucket_s * self.buckets

    def _slot_locked(self) -> _Slot:
        period = int(self._clock() // self.bucket_s)
        slot = self._ring[period % self.buckets]
        if slot.period != period:
            slot.reset(period)
        return slot

    def observe(self, seconds: float, ok: bool = True,
                degraded: bool = False) -> None:
        with self._lock:
            slot = self._slot_locked()
            slot.sketch.observe(seconds)
            if ok:
                slot.ok += 1
            else:
                slot.errors += 1
            if degraded:
                slot.degraded += 1

    def merged(
        self, horizon_s: Optional[float] = None
    ) -> Tuple[LogBucketSketch, int, int, float]:
        """Merge every live slot within ``horizon_s`` of now; returns
        ``(sketch, errors, degraded, covered_s)`` where ``covered_s`` is
        the horizon actually spanned (for rate denominators)."""
        horizon = self.window_s if horizon_s is None else min(
            float(horizon_s), self.window_s
        )
        merged = LogBucketSketch()
        errors = degraded = 0
        with self._lock:
            now_period = int(self._clock() // self.bucket_s)
            periods = max(int(math.ceil(horizon / self.bucket_s)), 1)
            for slot in self._ring:
                if slot.period < 0:
                    continue
                # The current period is still filling; count it and the
                # periods - 1 completed ones before it.
                if now_period - slot.period < periods:
                    merged.merge(slot.sketch)
                    errors += slot.errors
                    degraded += slot.degraded
        return merged, errors, degraded, periods * self.bucket_s

    def snapshot(self, horizon_s: Optional[float] = None) -> Dict[str, Any]:
        """One JSON-safe window view: counts, rates, quantiles, and the
        merged sketch for downstream SLO math."""
        merged, errors, degraded, covered = self.merged(horizon_s)
        count = merged.count
        return {
            "horizon_s": covered,
            "count": count,
            "errors": errors,
            "degraded": degraded,
            "qps": count / covered if covered > 0 else 0.0,
            "error_rate": errors / count if count else 0.0,
            "degraded_rate": degraded / count if count else 0.0,
            "mean_s": merged.mean,
            "quantiles": merged.quantiles(),
            "sketch": merged.to_dict(),
        }
