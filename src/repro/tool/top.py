"""``repro top``: a live terminal dashboard over the stats snapshot.

Pure formatting — :func:`format_top` turns one ``stats`` response (plus
an optional SLO report) into a fixed-width text page, and ``repro top``
repaints it every ``--interval`` seconds with an ANSI home+clear.  The
formatter is side-effect free so tests can assert on the page without a
terminal, and ``--once`` prints a single page for CI logs.

Per-op QPS and quantiles come from the sliding windows ("now"); the
stage timings and the cache hit rate are lifetime (labelled as such),
breaker/pool state comes from their describe() blocks, and budget burn
from the SLO engine.  ``repro stats`` and ``repro service stats`` print
the same page.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from ..obs.slo import QUANTILE_METRICS, SLOReport

#: ANSI clear-screen-and-home, used between live repaints
CLEAR = "\x1b[2J\x1b[H"


def _ms(value: Optional[float]) -> str:
    """A latency cell: milliseconds, or ``-`` when unknown."""
    if value is None:
        return "      -"
    return f"{value * 1e3:7.1f}"


def _pct(value: Optional[float]) -> str:
    if value is None:
        return "    -"
    return f"{value * 100:4.1f}%"


def _uptime(seconds: float) -> str:
    seconds = max(int(seconds), 0)
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    return f"{hours:d}:{minutes:02d}:{secs:02d}"


def _ops_section(window: Mapping[str, Any]) -> List[str]:
    ops = window.get("ops", {})
    lines = [
        f"ops (last {window.get('window_s', 0):.0f}s window, "
        f"fast {window.get('fast_s', 0):.0f}s)",
        "  op        count    qps   p50 ms   p95 ms   p99 ms"
        "   err%   degr%",
    ]
    if not ops:
        lines.append("  (no requests in window)")
        return lines
    for op in sorted(ops):
        full = ops[op].get("full", {})
        q = full.get("quantiles") or {}
        lines.append(
            f"  {op:<9s} {full.get('count', 0):5d} "
            f"{full.get('qps', 0.0):6.2f}  "
            f"{_ms(q.get('p50'))}  {_ms(q.get('p95'))}  "
            f"{_ms(q.get('p99'))}  "
            f"{_pct(full.get('error_rate'))}  "
            f"{_pct(full.get('degraded_rate'))}"
        )
    return lines


def _stages_section(stats: Mapping[str, Any]) -> List[str]:
    stages = stats.get("stage_seconds") or {}
    if not stages:
        return []
    lines = [
        "stage timings (lifetime)",
        "  stage         count  mean ms   p95 ms   max ms",
    ]
    for stage in sorted(stages):
        series = stages[stage]
        lines.append(
            f"  {stage:<13s} {series.get('count', 0):5d}  "
            f"{_ms(series.get('mean'))}  "
            f"{_ms((series.get('quantiles') or {}).get('p95'))}  "
            f"{_ms(series.get('max'))}"
        )
    return lines + [""]


def _cache_section(stats: Mapping[str, Any]) -> List[str]:
    cache = stats.get("cache", {})
    hits = int(cache.get("hits", 0))
    misses = int(cache.get("misses", 0))
    total = hits + misses
    rate = f"{hits / total * 100:.1f}%" if total else "-"
    breaker = cache.get("breaker") or {}
    line = (
        f"cache     hit rate {rate} ({hits}/{total} lifetime)"
        f"   quarantined {cache.get('quarantined_total', 0)}"
    )
    if breaker:
        line += f"   disk breaker {breaker.get('state', '?')}"
    return [line]


def _pool_section(stats: Mapping[str, Any]) -> List[str]:
    pool = stats.get("pool") or {}
    if not pool:
        return []
    breaker = pool.get("breaker") or {}
    line = (
        f"pool      {pool.get('active_kind', '?')}"
        f" (requested {pool.get('requested_kind', '?')})"
        f" x{pool.get('max_workers', '?')}"
        f"   degradations {pool.get('degradations', 0)}"
    )
    if breaker:
        line += f"   breaker {breaker.get('state', '?')}"
    return [line]


def _admission_section(stats: Mapping[str, Any]) -> List[str]:
    admission = stats.get("admission") or {}
    if not admission:
        return []
    limiter = admission.get("limiter") or {}
    counters = admission.get("counters") or {}
    state = "draining" if admission.get("draining") else (
        "brownout" if admission.get("brownout") else "ok"
    )
    lines = [
        f"admission {state}"
        f"   in-flight {admission.get('in_flight', 0)}"
        f"/{limiter.get('limit', '?')}"
        f"   queued {admission.get('queue_depth', 0)}"
        f"/{admission.get('max_queue', '?')}"
    ]
    shed = admission.get("shed_total", 0)
    if shed or counters.get("rejected_draining", 0) \
            or counters.get("brownout_admitted", 0):
        lines.append(
            f"          shed {shed}"
            f" (deadline {counters.get('shed_deadline', 0)}"
            f", queue-full {counters.get('shed_queue_full', 0)}"
            f", wait-timeout {counters.get('shed_wait_timeout', 0)})"
            f"   drain-rejected {counters.get('rejected_draining', 0)}"
            f"   brownout-admitted "
            f"{counters.get('brownout_admitted', 0)}"
        )
    return lines


def _telemetry_section(stats: Mapping[str, Any]) -> List[str]:
    telemetry = stats.get("telemetry") or {}
    events = telemetry.get("events") or {}
    sampler = telemetry.get("sampler") or {}
    if not events and not sampler:
        return []
    kept = sampler.get("kept_total", 0)
    dropped = sampler.get("dropped_total", 0)
    total = kept + dropped
    kept_pct = f"{kept / total * 100:.1f}%" if total else "-"
    reasons = sampler.get("kept_by_reason") or {}
    reason_text = " ".join(
        f"{name}={count}" for name, count in sorted(reasons.items())
    ) or "-"
    return [
        f"events    {events.get('events_total', 0)} logged"
        f"   rotations {events.get('rotations_total', 0)}"
        f"   bad lines {events.get('bad_lines_total', 0)}"
        f"   syncs {events.get('syncs_total', 0)}"
        f" ({events.get('unsynced_lines', 0)} lines unsynced)"
        f"   joined {stats.get('counters', {}).get('requests_joined', 0)}",
        f"traces    kept {kept}/{total} ({kept_pct})   by reason: "
        f"{reason_text}",
    ]


def _slo_section(slo_report: Optional[Mapping[str, Any]]) -> List[str]:
    if not slo_report:
        return []
    try:
        report = SLOReport.from_dict(slo_report)
    except Exception:
        return ["slo       (unreadable report)"]
    lines = ["slo"]
    for result in report.results:
        objective = result.objective
        flag = {"ok": "OK  ", "violated": "FAIL", "no-data": "----"}[
            result.status
        ]
        if result.status == "no-data":
            detail = "no data"
        else:
            if objective.metric in QUANTILE_METRICS:
                measured = (
                    f"{result.measured * 1e3:.1f}ms"
                    if result.measured is not None else "-"
                )
            else:
                measured = (
                    f"{result.measured * 100:.2f}%"
                    if result.measured is not None else "-"
                )
            detail = (
                f"{measured}  budget {result.budget_remaining:+.2f}  "
                f"burn {result.burn_slow:.1f}x"
            )
            if result.alerts:
                detail += "  ALERT " + ",".join(result.alerts)
        lines.append(
            f"  [{flag}] {objective.describe():<30s} {detail}"
        )
    return lines


def format_top(
    stats: Mapping[str, Any],
    slo_report: Optional[Mapping[str, Any]] = None,
) -> str:
    """One dashboard page from a ``stats`` snapshot (and optionally the
    serialized SLO report from the ``slo`` op)."""
    counters = stats.get("counters", {})
    lines = [
        f"repro top    uptime {_uptime(stats.get('uptime_seconds', 0.0))}"
        f"    requests {counters.get('requests_total', 0)}"
        f"    failed {counters.get('requests_failed', 0)}"
        f"    degraded {counters.get('requests_degraded', 0)}",
        "",
    ]
    lines.extend(_ops_section(stats.get("window", {})))
    lines.append("")
    lines.extend(_stages_section(stats))
    lines.extend(_cache_section(stats))
    lines.extend(_pool_section(stats))
    lines.extend(_admission_section(stats))
    lines.extend(_telemetry_section(stats))
    slo_lines = _slo_section(slo_report)
    if slo_lines:
        lines.append("")
        lines.extend(slo_lines)
    return "\n".join(lines)
