"""The open-loop load generator: config/profile handling, percentile
math, outcome classification, report gating, and full runs against both
a canned sender and a real in-process overloaded service."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.resilience.admission import (
    AdaptiveConcurrencyLimiter,
    AdmissionController,
)
from repro.service.loadtest import (
    GOOD_OUTCOMES,
    VIOLATION_OUTCOMES,
    LoadtestConfig,
    LoadtestReport,
    _percentile,
    run_loadtest,
)
from repro.service.pool import WorkerPool
from repro.service.server import LayoutService

PROFILE_PATH = Path(__file__).resolve().parent.parent / "examples" \
    / "loadtest.json"

#: the typed rejections: neither goodput nor a violation
TYPED_OUTCOMES = ("shed", "timed-out", "typed-error")

OK_RESPONSE = {
    "ok": True,
    "predicted_total_us": 1000.0,
    "layouts": {"0": "(block, *)"},
}


def _sender(reply_fn):
    """Adapt ``reply_fn(payload) -> dict`` to the send signature."""

    def send(payload, host=None, port=None, timeout=None):
        return reply_fn(payload)

    return send


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadtestConfig(rate=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            LoadtestConfig(rate=1.0, duration_s=0.0)
        with pytest.raises(ValueError):
            LoadtestConfig(rate=1.0, duration_s=1.0, workers=0)

    def test_total_requests_rounds_up(self):
        assert LoadtestConfig(rate=3.0, duration_s=1.5).total_requests == 5

    def test_from_profile_with_overrides(self):
        config = LoadtestConfig.from_profile(
            {"rate": 5.0, "duration_s": 10.0, "timeout_s": 7.0},
            rate=20.0, duration_s=None,
        )
        assert config.rate == 20.0        # override wins
        assert config.duration_s == 10.0  # None override is ignored
        assert config.timeout_s == 7.0

    def test_from_profile_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            LoadtestConfig.from_profile(
                {"rate": 1.0, "duration_s": 1.0, "qps": 5}
            )

    def test_from_profile_requires_rate_and_duration(self):
        with pytest.raises(ValueError, match="rate"):
            LoadtestConfig.from_profile({"duration_s": 1.0})

    def test_example_profile_parses(self):
        data = json.loads(PROFILE_PATH.read_text())
        config = LoadtestConfig.from_profile(data)
        assert config.rate == 10.0
        assert config.request["op"] == "analyze"
        assert config.request["use_cache"] is False


class TestPercentile:
    def test_order_statistic_ranks(self):
        values = [float(i) for i in range(1, 101)]
        assert _percentile(values, 0.50) == 50.0
        assert _percentile(values, 0.99) == 99.0
        assert _percentile(values, 1.00) == 100.0

    def test_single_and_empty(self):
        assert _percentile([], 0.99) == 0.0
        assert _percentile([7.0], 0.50) == 7.0


class TestRunClassification:
    def _run(self, reply_fn, rate=200.0, duration_s=0.05, warmup=True):
        config = LoadtestConfig(
            rate=rate, duration_s=duration_s, timeout_s=5.0,
            workers=16, warmup=warmup,
        )
        report = run_loadtest(config, send=_sender(reply_fn))
        # every request has one outcome, and every outcome is in exactly
        # one class: so zero violations leaves good + typed == total
        assert sum(report.counts.values()) == report.total
        classes = GOOD_OUTCOMES + TYPED_OUTCOMES + VIOLATION_OUTCOMES
        assert len(set(classes)) == len(classes)
        assert set(report.counts) <= set(classes), report.counts
        return report

    def test_all_served_clean_run(self):
        report = self._run(lambda payload: dict(OK_RESPONSE))
        assert report.counts == {"served": report.total}
        assert report.violations == []
        assert report.shed_rate == 0.0
        assert report.goodput_rps > 0
        assert report.gate() == []

    def test_typed_sheds_are_clean_not_violations(self):
        def reply(payload):
            if payload["request_id"] == "loadtest-warmup":
                return dict(OK_RESPONSE)
            index = int(payload["request_id"].rsplit("-", 1)[1])
            if index % 4 == 0:
                return {"ok": False, "error": "busy",
                        "error_kind": "overloaded", "retry_after_s": 0.1}
            if index % 4 == 1:
                return {"ok": False, "error": "late", "error_kind": "timeout"}
            if index % 4 == 2:
                return {"ok": False, "error": "no such program",
                        "error_kind": "bad-request"}
            return dict(OK_RESPONSE)

        report = self._run(reply)
        assert all(report.counts[outcome] > 0 for outcome in TYPED_OUTCOMES)
        assert report.violations == []
        assert report.error_kinds["overloaded"] == report.counts["shed"]
        assert report.gate(require_shed=True) == []

    def test_wrong_answer_is_a_violation(self):
        def reply(payload):
            if payload["request_id"] == "loadtest-warmup":
                return dict(OK_RESPONSE)
            return dict(OK_RESPONSE, predicted_total_us=999.0)

        report = self._run(reply)
        assert report.counts["wrong"] == report.total
        assert report.violations
        assert report.gate() != []

    def test_degraded_answers_may_differ_from_reference(self):
        def reply(payload):
            if payload["request_id"] == "loadtest-warmup":
                return dict(OK_RESPONSE)
            return dict(OK_RESPONSE, degraded=True,
                        predicted_total_us=2000.0)

        report = self._run(reply)
        assert report.counts["served-degraded"] == report.total
        assert report.violations == []

    def test_untyped_error_and_crash_are_violations(self):
        def reply(payload):
            if payload["request_id"] == "loadtest-warmup":
                return dict(OK_RESPONSE)
            index = int(payload["request_id"].rsplit("-", 1)[1])
            if index % 2 == 0:
                return {"ok": False, "error": "boom"}
            raise ConnectionResetError("peer vanished")

        report = self._run(reply)
        assert report.counts["untyped-error"] > 0
        assert report.counts["no-reply"] > 0
        assert len(report.violations) == 2

    def test_unreachable_warmup_raises(self):
        def reply(payload):
            raise ConnectionRefusedError("nobody listening")

        with pytest.raises(RuntimeError, match="warmup"):
            self._run(reply)


class TestReportGate:
    def _report(self, **overrides):
        base = dict(
            config={}, duration_s=1.0, counts={"served": 10}, total=10,
            offered_rate=10.0, goodput_rps=10.0, shed_rate=0.0,
            latency={"p50": 0.1, "p90": 0.2, "p99": 0.5, "max": 0.6},
            error_kinds={}, max_dispatch_lag_s=0.0, violations=[],
        )
        base.update(overrides)
        return LoadtestReport(**base)

    def test_p99_budget(self):
        report = self._report()
        assert report.gate(p99_budget_s=1.0) == []
        problems = report.gate(p99_budget_s=0.3)
        assert problems and "p99" in problems[0]

    def test_goodput_floor_against_baseline(self):
        baseline = self._report(goodput_rps=10.0)
        good = self._report(goodput_rps=9.0)
        bad = self._report(goodput_rps=5.0)
        assert good.gate(baseline=baseline) == []
        problems = bad.gate(baseline=baseline, min_goodput_ratio=0.8)
        assert problems and "goodput" in problems[0]

    def test_require_shed(self):
        quiet = self._report()
        problems = quiet.gate(require_shed=True)
        assert problems and "shed nothing" in problems[0]

    def test_round_trips_through_json(self):
        report = self._report()
        clone = LoadtestReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.goodput_rps == report.goodput_rps
        assert clone.counts == report.counts

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            LoadtestReport.from_dict({"schema": "something/else"})

    def test_summary_mentions_the_essentials(self):
        text = self._report(violations=["1 wrong response(s)"]).summary()
        assert "goodput" in text
        assert "VIOLATIONS" in text


class TestOverloadedServiceEndToEnd:
    def test_overload_sheds_cleanly_in_process(self, tmp_path):
        """2x-style overload against a real service with a tiny
        admission envelope: nothing hangs, nothing is untyped, every
        non-served request is a typed shed."""
        service = LayoutService(
            pool=WorkerPool(kind="thread", max_workers=2),
            use_cache=False,
            admission=AdmissionController(
                limiter=AdaptiveConcurrencyLimiter(
                    initial_limit=1, min_limit=1, max_limit=2
                ),
                max_queue=1,
                max_queue_wait_s=0.05,
            ),
        )
        lock = threading.Lock()

        def send(payload, host=None, port=None, timeout=None):
            if payload["request_id"] == "loadtest-warmup":
                # serialize the warmup so the burst starts from idle
                with lock:
                    return service.handle(payload)
            return service.handle(payload)

        config = LoadtestConfig(
            rate=300.0, duration_s=0.3, timeout_s=30.0, workers=64,
            request={"op": "analyze", "program": "adi", "size": 8,
                     "maxiter": 2, "procs": 4, "use_cache": False,
                     "deadline_s": 0.3},
        )
        try:
            report = run_loadtest(config, send=send)
        finally:
            service.close()
        assert report.violations == [], report.summary()
        assert report.counts.get("shed", 0) > 0, report.summary()
        good = (report.counts.get("served", 0)
                + report.counts.get("served-degraded", 0))
        assert good > 0, report.summary()
        accounted = good + report.counts.get("shed", 0) \
            + report.counts.get("timed-out", 0) \
            + report.counts.get("typed-error", 0)
        assert accounted == report.total, report.summary()
