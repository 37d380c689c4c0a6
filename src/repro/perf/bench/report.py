"""Bench result rendering and metrics export.

Text tables for the terminal, plus the bridge into the observability
stack: every repetition of every benchmark is folded into the service's
:class:`~repro.service.metrics.Metrics` registry as a
``bench_seconds``-family series (the same sketch as the request-path
``span_seconds`` aggregates), which then renders through the one
Prometheus exposition table in :mod:`repro.obs.prometheus`.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from ...obs.prometheus import render_prometheus
from ...service.metrics import Metrics
from .regress import RegressionReport
from .timer import Measurement

ResultLike = Union[Measurement, Mapping[str, Any]]


def _row(result: ResultLike) -> Mapping[str, Any]:
    return result.to_dict() if isinstance(result, Measurement) else result


def format_run(results: Mapping[str, ResultLike]) -> str:
    """Fixed-width table of one suite run."""
    width = max([32, *map(len, results)])
    lines = [
        f"{'benchmark':<{width}} {'min':>10} {'median':>10} {'mad':>9} "
        f"{'peak mem':>10} {'reps':>5}"
    ]
    for bench_id in sorted(results):
        row = _row(results[bench_id])
        lines.append(
            f"{bench_id:<{width}} {row['min_s'] * 1e3:>8.2f}ms "
            f"{row['median_s'] * 1e3:>8.2f}ms "
            f"{row['mad_s'] * 1e3:>7.2f}ms "
            f"{row.get('peak_bytes', 0) / 1024:>6.0f}KiB "
            f"{row['reps']:>5}"
        )
    return "\n".join(lines)


def format_compare(report: RegressionReport) -> str:
    """Comparison table plus a one-line gate verdict."""
    width = max([32, *(len(v.bench_id) for v in report.verdicts)])
    lines = [
        f"{'benchmark':<{width}} {'baseline':>10} {'current':>10} "
        f"{'ratio':>7}  status"
    ]
    for v in report.verdicts:
        base = f"{v.base_min_s * 1e3:.2f}ms" if v.base_min_s else "-"
        cur = f"{v.cur_min_s * 1e3:.2f}ms" if v.cur_min_s else "-"
        ratio = f"{v.ratio:.2f}x" if v.status not in (
            "new", "missing"
        ) else "-"
        lines.append(
            f"{v.bench_id:<{width}} {base:>10} {cur:>10} {ratio:>7}  "
            f"{v.status}"
        )
    regressions = report.regressions
    if regressions:
        lines.append("")
        for v in regressions:
            lines.append(f"REGRESSION {v.bench_id}: {v.detail}")
        lines.append(
            f"gate: FAIL ({len(regressions)} regression"
            f"{'s' if len(regressions) != 1 else ''})"
        )
    else:
        lines.append(f"gate: ok ({len(report.verdicts)} benchmarks)")
    return "\n".join(lines)


def results_to_metrics(
    results: Mapping[str, ResultLike], metrics: Optional[Metrics] = None
) -> Metrics:
    """Fold every repetition into ``bench_seconds`` series."""
    metrics = metrics or Metrics()
    for bench_id in sorted(results):
        row = _row(results[bench_id])
        for seconds in row.get("times_s", []):
            metrics.observe_bench(bench_id, float(seconds))
    return metrics


def render_bench_prometheus(results: Mapping[str, ResultLike]) -> str:
    """Bench results as Prometheus text exposition: the repetitions as
    ``bench_seconds`` series plus each result row under ``bench`` (its
    min and peak memory are table rows like any other signal).  The
    snapshot has no service section, so the exposition claims none."""
    return render_prometheus({
        "bench_seconds": results_to_metrics(results).snapshot()[
            "bench_seconds"
        ],
        "bench": {bench_id: _row(row) for bench_id, row in results.items()},
    })


__all__ = [
    "format_compare", "format_run", "render_bench_prometheus",
    "results_to_metrics",
]
