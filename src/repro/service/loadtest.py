"""Open-loop load generation: the measurement half of overload proof.

A *closed-loop* client (send, wait, send again) slows down exactly when
the server does, so it physically cannot observe overload — offered
load collapses to match capacity and every latency number looks fine.
This generator is **open-loop** (wrk2-style): request *i* is due at
``t0 + i / rate`` no matter what happened to requests ``0..i-1``, and
latency is measured **from the scheduled arrival time**, so queueing
delay the server causes (or dispatch delay the generator suffers) is
charged to the request instead of silently omitted (the classic
coordinated-omission mistake).

Every completed request is classified into exactly one outcome:

==================  ====================================================
``served``          ``ok`` and, when comparable, identical to the
                    warm-up reference answer
``served-degraded`` ``ok`` with the ``degraded`` label (brownout or
                    deadline fallback — still a valid layout)
``shed``            typed ``overloaded`` / ``shutting-down`` rejection
``timed-out``       typed ``timeout`` from the server
``typed-error``     any other reply carrying an ``error_kind``
``wrong``           ``ok`` but disagrees with the reference — an
                    invariant violation
``untyped-error``   a failure reply with no ``error_kind`` — violation
``no-reply``        connection error, hang past the client timeout, or
                    empty reply — violation
==================  ====================================================

The report gates like ``repro bench gate``: zero violations, optional
p99 budget over admitted requests, optional goodput floor against a
baseline run, optional nonzero-shed requirement (a 2× overload run
that sheds nothing means admission control is not doing its job).
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..obs.log import get_logger
from .protocol import SHED_KINDS
from .server import DEFAULT_HOST, DEFAULT_PORT, send_request

SCHEMA = "repro.service/loadtest/v1"

#: outcomes that count toward goodput (a usable layout was returned)
GOOD_OUTCOMES = ("served", "served-degraded")

#: outcomes that are invariant violations under overload
VIOLATION_OUTCOMES = ("wrong", "untyped-error", "no-reply")

logger = get_logger("repro.service.loadtest")


@dataclass
class LoadtestConfig:
    """One open-loop run: ``rate`` arrivals/s for ``duration_s``."""

    rate: float
    duration_s: float
    request: Dict[str, Any] = field(default_factory=dict)
    timeout_s: float = 30.0
    workers: int = 256
    warmup: bool = True

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be > 0, got {self.timeout_s}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def total_requests(self) -> int:
        return max(int(math.ceil(self.rate * self.duration_s)), 1)

    @classmethod
    def from_profile(
        cls, data: Mapping[str, Any], **overrides: Any
    ) -> "LoadtestConfig":
        """Build from a JSON profile (``examples/loadtest.json``);
        keyword overrides (CLI flags) win over profile values."""
        known = {"rate", "duration_s", "request", "timeout_s",
                 "workers", "warmup"}
        unknown = set(data) - known - {"schema", "comment"}
        if unknown:
            raise ValueError(
                f"unknown loadtest profile fields: {sorted(unknown)}"
            )
        merged: Dict[str, Any] = {
            key: data[key] for key in known if key in data
        }
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
        if "rate" not in merged or "duration_s" not in merged:
            raise ValueError(
                "loadtest profile needs 'rate' and 'duration_s'"
            )
        return cls(**merged)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "duration_s": self.duration_s,
            "request": dict(self.request),
            "timeout_s": self.timeout_s,
            "workers": self.workers,
            "warmup": self.warmup,
        }


@dataclass
class _Sample:
    index: int
    outcome: str
    latency_s: float
    dispatch_lag_s: float
    error_kind: Optional[str] = None
    detail: str = ""


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact order-statistic percentile (no interpolation): the value
    at rank ``ceil(q * n)`` — matches how latency SLOs are stated."""
    if not sorted_values:
        return 0.0
    rank = max(int(math.ceil(q * len(sorted_values))), 1)
    return sorted_values[rank - 1]


@dataclass
class LoadtestReport:
    """The outcome of one run, JSON-serializable and gateable."""

    config: Dict[str, Any]
    duration_s: float
    counts: Dict[str, int]
    total: int
    offered_rate: float
    goodput_rps: float
    shed_rate: float
    latency: Dict[str, float]
    error_kinds: Dict[str, int]
    max_dispatch_lag_s: float
    violations: List[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "config": self.config,
            "duration_s": round(self.duration_s, 4),
            "counts": dict(self.counts),
            "total": self.total,
            "offered_rate": round(self.offered_rate, 4),
            "goodput_rps": round(self.goodput_rps, 4),
            "shed_rate": round(self.shed_rate, 6),
            "latency": {k: round(v, 6) for k, v in self.latency.items()},
            "error_kinds": dict(self.error_kinds),
            "max_dispatch_lag_s": round(self.max_dispatch_lag_s, 4),
            "violations": list(self.violations),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LoadtestReport":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"not a loadtest report (schema {data.get('schema')!r})"
            )
        return cls(
            config=dict(data.get("config", {})),
            duration_s=float(data["duration_s"]),
            counts=dict(data["counts"]),
            total=int(data["total"]),
            offered_rate=float(data["offered_rate"]),
            goodput_rps=float(data["goodput_rps"]),
            shed_rate=float(data["shed_rate"]),
            latency=dict(data["latency"]),
            error_kinds=dict(data.get("error_kinds", {})),
            max_dispatch_lag_s=float(data.get("max_dispatch_lag_s", 0.0)),
            violations=list(data.get("violations", [])),
        )

    def gate(
        self,
        p99_budget_s: Optional[float] = None,
        baseline: Optional["LoadtestReport"] = None,
        min_goodput_ratio: float = 0.8,
        require_shed: bool = False,
    ) -> List[str]:
        """Gate problems (empty list = pass), mirroring the acceptance
        bar: no violations, admitted p99 within budget, goodput within
        ``min_goodput_ratio`` of the baseline run, and — for the
        overload leg — a nonzero shed count proving admission control
        actually engaged."""
        problems = list(self.violations)
        if p99_budget_s is not None and self.latency.get("p99", 0.0) \
                > p99_budget_s:
            problems.append(
                f"admitted p99 {self.latency['p99']:.3f}s exceeds "
                f"budget {p99_budget_s:.3f}s"
            )
        if baseline is not None:
            floor = baseline.goodput_rps * min_goodput_ratio
            if self.goodput_rps < floor:
                problems.append(
                    f"goodput {self.goodput_rps:.2f} rps is below "
                    f"{min_goodput_ratio:.0%} of baseline "
                    f"{baseline.goodput_rps:.2f} rps"
                )
        if require_shed and self.counts.get("shed", 0) == 0:
            problems.append(
                "overload run shed nothing — admission control "
                "never engaged"
            )
        return problems

    def summary(self) -> str:
        lines = [
            f"loadtest: {self.total} requests at "
            f"{self.offered_rate:.1f}/s offered over "
            f"{self.duration_s:.1f}s",
            "  outcomes: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.counts.items())
                if count
            ),
            f"  goodput: {self.goodput_rps:.2f} rps   "
            f"shed rate: {self.shed_rate:.1%}",
            f"  admitted latency: p50={self.latency.get('p50', 0):.3f}s "
            f"p90={self.latency.get('p90', 0):.3f}s "
            f"p99={self.latency.get('p99', 0):.3f}s "
            f"max={self.latency.get('max', 0):.3f}s",
        ]
        if self.max_dispatch_lag_s > 0.05:
            lines.append(
                "  generator dispatch lagged schedule by up to "
                f"{self.max_dispatch_lag_s:.3f}s (raise --workers if "
                "this approaches the latency numbers)"
            )
        if self.violations:
            lines.append("  VIOLATIONS: " + "; ".join(self.violations))
        return "\n".join(lines)


def _comparable(resp: Mapping[str, Any]) -> Optional[tuple]:
    """The answer fingerprint used for wrong-answer detection; only
    non-degraded responses are comparable (degraded ones are allowed
    to differ — that is what the label is for)."""
    if not resp.get("ok") or resp.get("degraded"):
        return None
    layouts = resp.get("layouts")
    if layouts is None:
        return None
    return (
        resp.get("predicted_total_us"),
        json.dumps(layouts, sort_keys=True),
    )


def _classify(
    resp: Mapping[str, Any], reference: Optional[tuple]
) -> _Sample:
    """Outcome of one reply (index/latency filled in by the caller)."""
    if resp.get("ok"):
        fingerprint = _comparable(resp)
        if (reference is not None and fingerprint is not None
                and fingerprint != reference):
            return _Sample(0, "wrong", 0.0, 0.0,
                           detail="answer differs from reference")
        if resp.get("degraded"):
            return _Sample(0, "served-degraded", 0.0, 0.0)
        return _Sample(0, "served", 0.0, 0.0)
    kind = resp.get("error_kind")
    if kind in SHED_KINDS:
        return _Sample(0, "shed", 0.0, 0.0, error_kind=kind)
    if kind == "timeout":
        return _Sample(0, "timed-out", 0.0, 0.0, error_kind=kind)
    if kind:
        return _Sample(0, "typed-error", 0.0, 0.0, error_kind=kind)
    return _Sample(0, "untyped-error", 0.0, 0.0,
                   detail=str(resp.get("error", ""))[:200])


def run_loadtest(
    config: LoadtestConfig,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    send: Optional[Callable[..., Dict[str, Any]]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> LoadtestReport:
    """Drive one open-loop run and classify every outcome.

    ``send(payload, host=..., port=..., timeout=...)`` is injectable so
    tests can run against an in-process :class:`LayoutService` without
    a TCP server."""
    send_fn = send or send_request
    base = dict(config.request)
    base.setdefault("op", "analyze")

    reference: Optional[tuple] = None
    if config.warmup:
        # one uncounted request: establishes the reference answer for
        # wrong-detection and absorbs cold-start costs (imports, cache)
        warm = dict(base)
        warm["request_id"] = "loadtest-warmup"
        try:
            warm_resp = send_fn(
                warm, host=host, port=port, timeout=config.timeout_s
            )
            reference = _comparable(warm_resp)
            if not warm_resp.get("ok"):
                logger.warning(
                    "loadtest warmup failed (%s); wrong-answer "
                    "detection disabled", warm_resp.get("error_kind"),
                )
        except Exception as exc:
            raise RuntimeError(
                f"loadtest warmup could not reach the server: {exc}"
            ) from exc

    total = config.total_requests
    interval = 1.0 / config.rate
    samples: List[Optional[_Sample]] = [None] * total
    started = threading.Event()
    t0_box: List[float] = [0.0]

    def fire(index: int) -> None:
        started.wait()
        scheduled = t0_box[0] + index * interval
        delay = scheduled - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        lag = max(time.monotonic() - scheduled, 0.0)
        payload = dict(base)
        payload["request_id"] = f"loadtest-{index:06d}"
        try:
            resp = send_fn(
                payload, host=host, port=port, timeout=config.timeout_s
            )
        except Exception as exc:
            samples[index] = _Sample(
                index, "no-reply",
                latency_s=time.monotonic() - scheduled,
                dispatch_lag_s=lag,
                detail=f"{type(exc).__name__}: {exc}"[:200],
            )
            return
        sample = _classify(resp, reference)
        sample.index = index
        # open-loop latency: from the *scheduled* arrival, so both
        # server queueing and generator dispatch lag are charged
        sample.latency_s = time.monotonic() - scheduled
        sample.dispatch_lag_s = lag
        samples[index] = sample

    run_start = time.monotonic()
    with ThreadPoolExecutor(max_workers=config.workers) as executor:
        futures = [executor.submit(fire, i) for i in range(total)]
        t0_box[0] = time.monotonic()
        started.set()
        done = 0
        for future in futures:
            future.result()
            done += 1
            if progress and done % max(total // 10, 1) == 0:
                progress(f"{done}/{total} requests resolved")
    duration = time.monotonic() - run_start

    counts: Dict[str, int] = {}
    error_kinds: Dict[str, int] = {}
    good_latencies: List[float] = []
    max_lag = 0.0
    violations: List[str] = []
    for sample in samples:
        assert sample is not None  # every future resolved above
        counts[sample.outcome] = counts.get(sample.outcome, 0) + 1
        if sample.error_kind:
            error_kinds[sample.error_kind] = (
                error_kinds.get(sample.error_kind, 0) + 1
            )
        if sample.outcome in GOOD_OUTCOMES:
            good_latencies.append(sample.latency_s)
        max_lag = max(max_lag, sample.dispatch_lag_s)
    for outcome in VIOLATION_OUTCOMES:
        if counts.get(outcome, 0):
            example = next(
                s.detail for s in samples
                if s is not None and s.outcome == outcome
            )
            violations.append(
                f"{counts[outcome]} {outcome} response(s)"
                + (f" (e.g. {example})" if example else "")
            )
    good_latencies.sort()
    good = sum(counts.get(name, 0) for name in GOOD_OUTCOMES)
    shed = counts.get("shed", 0)
    return LoadtestReport(
        config=config.to_dict(),
        duration_s=duration,
        counts=counts,
        total=total,
        offered_rate=config.rate,
        goodput_rps=good / duration if duration > 0 else 0.0,
        shed_rate=shed / total if total else 0.0,
        latency={
            "p50": _percentile(good_latencies, 0.50),
            "p90": _percentile(good_latencies, 0.90),
            "p99": _percentile(good_latencies, 0.99),
            "max": good_latencies[-1] if good_latencies else 0.0,
        },
        error_kinds=error_kinds,
        max_dispatch_lag_s=max_lag,
        violations=violations,
    )
