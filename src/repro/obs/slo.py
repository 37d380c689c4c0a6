"""The SLO engine: declarative objectives, error budgets, burn rates.

The paper frames the layout tool as an *interactive assistant* — its
value depends on predictable response time.  This module makes that a
checkable contract.  An **objective** declares a bound on one windowed
metric of one operation::

    {"name": "analyze-latency", "op": "analyze",
     "metric": "p99", "threshold_s": 0.25}
    {"name": "analyze-errors", "op": "analyze",
     "metric": "error_rate", "threshold": 0.01}

Latency objectives are *compliance* objectives: ``p99 < 250ms`` means
"at least 99% of requests complete within 250ms", so its **error
budget** is the 1% of requests allowed over the threshold.  Rate
objectives (``error_rate``, ``degraded_rate``) budget the rate bound
itself.  From the sliding windows of :mod:`repro.obs.window` the engine
computes, per objective:

- ``bad_fraction``     — the fraction of requests that spent budget;
- ``budget_remaining`` — ``1 - bad_fraction / budget`` over the full
  window (1.0 = untouched, 0.0 = exactly spent, negative = violated);
- **burn rates**       — ``bad_fraction / budget`` over a *fast* window
  (default 60s) and the *full* window.  Burn rate 1.0 spends the budget
  exactly as fast as allowed; the classic multiwindow alert rules fire
  ``fast_burn`` when both windows burn >= 14.4x (budget gone within
  ~1/14th of the period — page someone) and ``slow_burn`` when the full
  window burns >= 3x (trending toward violation — file a ticket).
  Requiring the *fast* window too keeps a long-past incident from
  paging after recovery.

An objective is **violated** when the full window's bad fraction
exceeds its budget — for latency objectives this is exactly "the
windowed quantile is over the threshold".  Empty windows are
``no-data`` and do not fail ``repro slo check`` (a healthy idle service
is not an outage); pass ``require_data=True`` to treat them as
failures in smoke tests.

Inputs come from a live service (the ``slo`` protocol op / ``stats``
window section) or offline from an event log via
:func:`window_from_events` — the same math either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .window import (
    DEFAULT_BUCKET_COUNT,
    DEFAULT_BUCKET_S,
    DEFAULT_FAST_S,
    LogBucketSketch,
    WindowedOpStats,
)

#: identifies the objectives-file format
SLO_SCHEMA = "repro.obs/slo/v1"

#: metrics an objective may bound
QUANTILE_METRICS = ("p50", "p95", "p99")
RATE_METRICS = ("error_rate", "degraded_rate")
METRICS = QUANTILE_METRICS + RATE_METRICS

#: compliance target implied by each quantile metric (p99 -> 0.99)
_QUANTILE_TARGET = {"p50": 0.50, "p95": 0.95, "p99": 0.99}

#: default multiwindow burn-rate alert thresholds (Google SRE workbook
#: scaling, adapted to the in-memory window)
FAST_BURN = 14.4
SLOW_BURN = 3.0


class SLOValidationError(ValueError):
    """An objectives file or objective dict is malformed."""


@dataclass(frozen=True)
class Objective:
    """One declarative objective over one op's sliding window."""

    name: str
    op: str = "analyze"
    metric: str = "p99"
    #: latency bound in seconds (quantile metrics only)
    threshold_s: Optional[float] = None
    #: rate bound in [0, 1] (rate metrics only)
    threshold: Optional[float] = None

    @property
    def budget(self) -> float:
        """The allowed bad fraction (error budget) of this objective."""
        if self.metric in _QUANTILE_TARGET:
            return 1.0 - _QUANTILE_TARGET[self.metric]
        return float(self.threshold)

    def describe(self) -> str:
        if self.metric in QUANTILE_METRICS:
            return (f"{self.op} {self.metric} < "
                    f"{self.threshold_s * 1e3:g}ms")
        return f"{self.op} {self.metric} < {self.threshold * 100:g}%"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name, "op": self.op, "metric": self.metric,
        }
        if self.threshold_s is not None:
            out["threshold_s"] = self.threshold_s
        if self.threshold is not None:
            out["threshold"] = self.threshold
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Objective":
        if not isinstance(data, Mapping):
            raise SLOValidationError("objective is not an object")
        unknown = set(data) - {"name", "op", "metric", "threshold_s",
                               "threshold"}
        if unknown:
            raise SLOValidationError(
                f"unknown objective fields: {sorted(unknown)}"
            )
        metric = data.get("metric", "p99")
        if metric not in METRICS:
            raise SLOValidationError(
                f"metric must be one of {METRICS}, got {metric!r}"
            )
        threshold_s = data.get("threshold_s")
        threshold = data.get("threshold")
        if metric in QUANTILE_METRICS:
            if threshold_s is None:
                raise SLOValidationError(
                    f"quantile objective needs 'threshold_s' (seconds)"
                )
            threshold_s = float(threshold_s)
            if threshold_s <= 0:
                raise SLOValidationError(
                    f"threshold_s must be > 0, got {threshold_s}"
                )
            threshold = None
        else:
            if threshold is None:
                raise SLOValidationError(
                    f"rate objective needs 'threshold' (a fraction)"
                )
            threshold = float(threshold)
            if not 0.0 < threshold < 1.0:
                raise SLOValidationError(
                    f"threshold must be in (0, 1), got {threshold}"
                )
            threshold_s = None
        name = data.get("name") or ""
        if not name:
            op = data.get("op", "analyze")
            name = f"{op}-{metric}"
        return cls(
            name=str(name),
            op=str(data.get("op", "analyze")),
            metric=metric,
            threshold_s=threshold_s,
            threshold=threshold,
        )


def load_objectives(path: str) -> List[Objective]:
    """Parse an objectives file (JSON, ``SLO_SCHEMA``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SLOValidationError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SLOValidationError(f"{path!r}: bad JSON: {exc}") from None
    if not isinstance(data, Mapping) or data.get("schema") != SLO_SCHEMA:
        raise SLOValidationError(
            f"{path!r}: top-level 'schema' must be {SLO_SCHEMA!r}"
        )
    raw = data.get("objectives")
    if not isinstance(raw, list) or not raw:
        raise SLOValidationError(
            f"{path!r}: 'objectives' must be a non-empty list"
        )
    objectives = [Objective.from_dict(entry) for entry in raw]
    names = [o.name for o in objectives]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise SLOValidationError(
            f"{path!r}: duplicate objective names: {dupes}"
        )
    return objectives


# ---------------------------------------------------------------------------
# Evaluation.


@dataclass
class ObjectiveResult:
    """The verdict of one objective over one window snapshot."""

    objective: Objective
    status: str  # "ok" | "violated" | "no-data"
    measured: Optional[float] = None  # windowed quantile or rate
    count: int = 0
    bad_fraction: float = 0.0
    budget_remaining: float = 1.0
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    alerts: List[str] = field(default_factory=list)

    @property
    def violated(self) -> bool:
        return self.status == "violated"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective.to_dict(),
            "describe": self.objective.describe(),
            "status": self.status,
            "measured": self.measured,
            "count": self.count,
            "bad_fraction": self.bad_fraction,
            "budget_remaining": self.budget_remaining,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "alerts": list(self.alerts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObjectiveResult":
        measured = data.get("measured")
        return cls(
            objective=Objective.from_dict(data.get("objective", {})),
            status=str(data.get("status", "no-data")),
            measured=(float(measured) if measured is not None else None),
            count=int(data.get("count", 0)),
            bad_fraction=float(data.get("bad_fraction", 0.0)),
            budget_remaining=float(data.get("budget_remaining", 1.0)),
            burn_fast=float(data.get("burn_fast", 0.0)),
            burn_slow=float(data.get("burn_slow", 0.0)),
            alerts=[str(a) for a in data.get("alerts", [])],
        )


@dataclass
class SLOReport:
    """All objective verdicts of one evaluation."""

    results: List[ObjectiveResult] = field(default_factory=list)
    window_s: float = 0.0
    fast_s: float = DEFAULT_FAST_S

    @property
    def ok(self) -> bool:
        return not any(r.violated for r in self.results)

    def violations(self) -> List[ObjectiveResult]:
        return [r for r in self.results if r.violated]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.obs/slo-report/v1",
            "ok": self.ok,
            "window_s": self.window_s,
            "fast_s": self.fast_s,
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SLOReport":
        """Rebuild a report from its wire form (the ``slo`` protocol
        op returns ``to_dict()``), so remote and local evaluations
        format and exit identically."""
        if not isinstance(data, Mapping):
            raise SLOValidationError("SLO report is not an object")
        return cls(
            results=[
                ObjectiveResult.from_dict(r)
                for r in data.get("results", [])
            ],
            window_s=float(data.get("window_s", 0.0)),
            fast_s=float(data.get("fast_s", DEFAULT_FAST_S)),
        )


def _window_entry(
    windows: Mapping[str, Any], op: str, horizon: str
) -> Optional[Mapping[str, Any]]:
    entry = windows.get("ops", {}).get(op)
    if entry is None:
        return None
    return entry.get(horizon)


def _bad_fraction(
    objective: Objective, view: Mapping[str, Any]
) -> Tuple[int, float, Optional[float]]:
    """``(count, bad_fraction, measured)`` of one window view."""
    count = int(view.get("count", 0))
    if count == 0:
        return 0, 0.0, None
    if objective.metric in QUANTILE_METRICS:
        measured = (view.get("quantiles") or {}).get(objective.metric)
        sketch = LogBucketSketch.from_dict(view["sketch"])
        good = sketch.count_le(objective.threshold_s)
        return count, 1.0 - good / count, measured
    rate = float(view.get(objective.metric, 0.0))
    return count, rate, rate


def evaluate_objectives(
    objectives: Sequence[Objective],
    windows: Mapping[str, Any],
    require_data: bool = False,
) -> SLOReport:
    """Evaluate objectives against one window snapshot (the service
    stats ``window`` section: ``{"window_s": ..., "fast_s": ...,
    "ops": {op: {"full": {...}, "fast": {...}}}}``)."""
    report = SLOReport(
        window_s=float(windows.get("window_s", 0.0)),
        fast_s=float(windows.get("fast_s", DEFAULT_FAST_S)),
    )
    for objective in objectives:
        full = _window_entry(windows, objective.op, "full")
        fast = _window_entry(windows, objective.op, "fast")
        if full is None or int(full.get("count", 0)) == 0:
            status = "violated" if require_data else "no-data"
            result = ObjectiveResult(objective=objective, status=status)
            if require_data:
                result.alerts.append("no-data")
            report.results.append(result)
            continue
        budget = objective.budget
        count, bad_full, measured = _bad_fraction(objective, full)
        _, bad_fast, _ = _bad_fraction(objective, fast or full)
        burn_slow_x = bad_full / budget if budget > 0 else math.inf
        burn_fast_x = bad_fast / budget if budget > 0 else math.inf
        result = ObjectiveResult(
            objective=objective,
            status="violated" if bad_full > budget else "ok",
            measured=measured,
            count=count,
            bad_fraction=bad_full,
            budget_remaining=1.0 - burn_slow_x,
            burn_fast=burn_fast_x,
            burn_slow=burn_slow_x,
        )
        if burn_fast_x >= FAST_BURN and burn_slow_x >= FAST_BURN:
            result.alerts.append("fast-burn")
        elif burn_slow_x >= SLOW_BURN:
            result.alerts.append("slow-burn")
        report.results.append(result)
    return report


# ---------------------------------------------------------------------------
# Offline evaluation: rebuild windows from a recorded event log.


def window_from_events(
    events: Sequence[Mapping[str, Any]],
    window_s: float = DEFAULT_BUCKET_S * DEFAULT_BUCKET_COUNT,
) -> Dict[str, Any]:
    """Replay ``service.request`` events into sliding windows anchored
    at the newest event, producing the same snapshot shape a live
    service serves — so ``repro slo check`` works on a dead service's
    log exactly as on a live one."""
    requests = [e for e in events if e.get("type") == "service.request"]
    now_us = max((int(e.get("ts_us", 0)) for e in requests), default=0)
    bucket_s = max(window_s / DEFAULT_BUCKET_COUNT, 1e-3)
    per_op: Dict[str, WindowedOpStats] = {}
    for event in requests:
        attrs = event.get("attrs", {})
        op = str(attrs.get("op", "analyze"))
        age_s = (now_us - int(event.get("ts_us", now_us))) / 1e6
        if age_s < 0 or age_s >= window_s:
            continue
        stats = per_op.get(op)
        if stats is None:
            # Pin the clock per observation: the ring places each event
            # by its own timestamp, then reads relative to "now".
            stats = per_op[op] = WindowedOpStats(
                bucket_s=bucket_s,
                buckets=DEFAULT_BUCKET_COUNT,
                clock=lambda: 0.0,
            )
        anchor = now_us / 1e6
        stats._clock = (lambda t=anchor - age_s: t)
        stats.observe(
            float(attrs.get("seconds", 0.0)),
            ok=bool(attrs.get("ok", True)),
            degraded=bool(attrs.get("degraded", False)),
        )
    ops: Dict[str, Any] = {}
    for op, stats in per_op.items():
        stats._clock = (lambda t=now_us / 1e6: t)
        ops[op] = {
            "full": stats.snapshot(),
            "fast": stats.snapshot(horizon_s=DEFAULT_FAST_S),
        }
    return {
        "window_s": window_s,
        "fast_s": DEFAULT_FAST_S,
        "bucket_s": bucket_s,
        "ops": ops,
    }


# ---------------------------------------------------------------------------
# Rendering.


def format_slo_report(report: SLOReport) -> str:
    """Human-readable verdict table."""
    lines = [
        f"SLO report over a {report.window_s:.0f}s window "
        f"(fast window {report.fast_s:.0f}s)",
    ]
    for result in report.results:
        objective = result.objective
        flag = {"ok": "OK  ", "violated": "FAIL", "no-data": "----"}[
            result.status
        ]
        if result.status == "no-data":
            detail = "no requests in window"
        elif result.measured is None:
            detail = f"over {result.count} requests"
        elif objective.metric in QUANTILE_METRICS:
            detail = (
                f"measured {result.measured * 1e3:8.2f}ms over "
                f"{result.count} requests"
            )
        else:
            detail = (
                f"measured {result.measured * 100:6.2f}% over "
                f"{result.count} requests"
            )
        lines.append(f"  [{flag}] {objective.describe():<32s} {detail}")
        if result.status != "no-data":
            burn = (
                f"         budget remaining {result.budget_remaining:+.2f}  "
                f"burn fast {result.burn_fast:.2f}x  "
                f"slow {result.burn_slow:.2f}x"
            )
            if result.alerts:
                burn += "  ALERT: " + ", ".join(result.alerts)
            lines.append(burn)
    lines.append(
        "all objectives met" if report.ok
        else f"{len(report.violations())} objective(s) VIOLATED"
    )
    return "\n".join(lines)
