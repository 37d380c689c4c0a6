"""The regression detector: current run vs. stored baseline.

A benchmark *regresses* when all three of these hold for its min-of-N
timing (the minimum is the noise-floor estimate; see ``timer.py``):

1. **ratio** — ``cur_min > base_min * max_ratio`` (default 1.5x; the
   acceptance target is catching an injected 2x slowdown);
2. **noise** — the slowdown exceeds ``mad_sigmas`` times the larger of
   the two runs' MADs (a run whose repetitions scatter widely cannot
   produce a confident verdict from the ratio alone);
3. **floor** — the absolute slowdown exceeds ``min_slowdown_s``
   (sub-100µs deltas are timer jitter, whatever the ratio says).

Per-benchmark ratio overrides let inherently noisy benchmarks carry a
looser threshold without loosening the whole gate.  Improvements,
new benchmarks, and missing benchmarks are reported but never fail the
gate — only regressions do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Union

from .timer import Measurement

ResultLike = Union[Measurement, Mapping[str, Any]]


@dataclass(frozen=True)
class Thresholds:
    """Significance knobs of the detector (see module docstring)."""

    max_ratio: float = 1.5
    mad_sigmas: float = 4.0
    min_slowdown_s: float = 1e-4
    per_bench: Mapping[str, float] = field(default_factory=dict)

    def ratio_for(self, bench_id: str) -> float:
        return float(self.per_bench.get(bench_id, self.max_ratio))


@dataclass
class Verdict:
    """One benchmark's comparison outcome."""

    bench_id: str
    status: str  # "ok" | "regression" | "improved" | "new" | "missing"
    base_min_s: float = 0.0
    cur_min_s: float = 0.0
    ratio: float = 1.0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bench_id": self.bench_id,
            "status": self.status,
            "base_min_s": self.base_min_s,
            "cur_min_s": self.cur_min_s,
            "ratio": self.ratio,
            "detail": self.detail,
        }


@dataclass
class RegressionReport:
    """All verdicts of one comparison, plus the gate decision."""

    verdicts: List[Verdict] = field(default_factory=list)
    thresholds: Thresholds = field(default_factory=Thresholds)

    @property
    def regressions(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "regressions": len(self.regressions),
            "thresholds": {
                "max_ratio": self.thresholds.max_ratio,
                "mad_sigmas": self.thresholds.mad_sigmas,
                "min_slowdown_s": self.thresholds.min_slowdown_s,
                "per_bench": dict(self.thresholds.per_bench),
            },
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _as_stats(result: ResultLike) -> Dict[str, float]:
    if isinstance(result, Measurement):
        return {"min_s": result.min_s, "mad_s": result.mad_s}
    return {
        "min_s": float(result["min_s"]),
        "mad_s": float(result.get("mad_s", 0.0)),
    }


def compare_results(
    base: Mapping[str, ResultLike],
    current: Mapping[str, ResultLike],
    thresholds: Thresholds = Thresholds(),
) -> RegressionReport:
    """Compare two result mappings benchmark-by-benchmark."""
    report = RegressionReport(thresholds=thresholds)
    for bench_id in sorted(set(base) | set(current)):
        if bench_id not in current:
            b = _as_stats(base[bench_id])
            report.verdicts.append(Verdict(
                bench_id=bench_id, status="missing",
                base_min_s=b["min_s"],
                detail="present in baseline, absent in current run",
            ))
            continue
        if bench_id not in base:
            c = _as_stats(current[bench_id])
            report.verdicts.append(Verdict(
                bench_id=bench_id, status="new", cur_min_s=c["min_s"],
                detail="absent in baseline",
            ))
            continue
        b = _as_stats(base[bench_id])
        c = _as_stats(current[bench_id])
        base_min, cur_min = b["min_s"], c["min_s"]
        ratio = cur_min / base_min if base_min > 0 else float(
            "inf" if cur_min > 0 else 1.0
        )
        max_ratio = thresholds.ratio_for(bench_id)
        slowdown = cur_min - base_min
        noise = thresholds.mad_sigmas * max(b["mad_s"], c["mad_s"])
        if (ratio > max_ratio and slowdown > noise
                and slowdown > thresholds.min_slowdown_s):
            status = "regression"
            detail = (
                f"{ratio:.2f}x > {max_ratio:.2f}x threshold; slowdown "
                f"{slowdown * 1e3:.3f}ms exceeds noise band "
                f"{noise * 1e3:.3f}ms"
            )
        elif ratio < 1.0 / max_ratio and -slowdown > noise:
            status = "improved"
            detail = f"{ratio:.2f}x (faster than baseline)"
        else:
            status = "ok"
            detail = f"{ratio:.2f}x within threshold {max_ratio:.2f}x"
        report.verdicts.append(Verdict(
            bench_id=bench_id, status=status, base_min_s=base_min,
            cur_min_s=cur_min, ratio=ratio, detail=detail,
        ))
    return report


def parse_threshold_overrides(specs: List[str]) -> Dict[str, float]:
    """Parse CLI ``--threshold bench=ratio`` overrides."""
    out: Dict[str, float] = {}
    for spec in specs:
        bench_id, sep, value = spec.partition("=")
        if not sep or not bench_id:
            raise ValueError(
                f"bad threshold {spec!r}: expected <bench_id>=<ratio>"
            )
        ratio = float(value)
        if ratio <= 1.0:
            raise ValueError(
                f"bad threshold {spec!r}: ratio must be > 1.0"
            )
        out[bench_id] = ratio
    return out


__all__ = [
    "RegressionReport", "Thresholds", "Verdict", "compare_results",
    "parse_threshold_overrides",
]
