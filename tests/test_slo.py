"""The SLO engine and its inputs: quantile sketches, sliding windows,
objective parsing, burn-rate evaluation, offline event-log replay, the
``repro slo`` / ``repro top`` CLI exit-code contract, and the live
``slo``/``events`` protocol ops."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.slo import (
    FAST_BURN,
    SLO_SCHEMA,
    SLOW_BURN,
    Objective,
    ObjectiveResult,
    SLOReport,
    SLOValidationError,
    evaluate_objectives,
    format_slo_report,
    load_objectives,
    window_from_events,
)
from repro.obs.window import (
    SKETCH_GAMMA,
    LogBucketSketch,
    WindowedOpStats,
)
from repro.tool.cli import main
from repro.tool.top import format_top


class TestLogBucketSketch:
    def test_quantiles_carry_bounded_relative_error(self):
        sketch = LogBucketSketch()
        # spans 4+ decades but stays under the sketch's ~800s cap
        values = [0.0002 * (1.05 ** i) for i in range(200)]
        for value in values:
            sketch.observe(value)
        values.sort()
        for q in (0.5, 0.9, 0.99):
            # the sketch's rank definition: smallest value whose
            # cumulative count reaches ceil(q * n)
            exact = values[int(math.ceil(q * len(values))) - 1]
            estimate = sketch.quantile(q)
            assert estimate is not None
            assert abs(estimate - exact) / exact <= SKETCH_GAMMA - 1.0

    def test_empty_sketch(self):
        sketch = LogBucketSketch()
        assert sketch.quantile(0.5) is None
        assert sketch.count_le(1.0) == 0
        assert sketch.mean == 0.0

    def test_quantile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            LogBucketSketch().quantile(1.5)

    def test_merge_equals_observing_both_streams(self):
        left, right, both = (
            LogBucketSketch(), LogBucketSketch(), LogBucketSketch()
        )
        a = [0.0004 * (1.3 ** i) for i in range(50)]
        b = [0.09 * (1.05 ** i) for i in range(50)]
        for value in a:
            left.observe(value)
            both.observe(value)
        for value in b:
            right.observe(value)
            both.observe(value)
        left.merge(right)
        assert left.counts == both.counts
        assert left.count == both.count
        assert left.total == pytest.approx(both.total)
        assert left.min == both.min and left.max == both.max
        for q in (0.1, 0.5, 0.95):
            assert left.quantile(q) == both.quantile(q)

    def test_merge_into_empty(self):
        target, source = LogBucketSketch(), LogBucketSketch()
        source.observe(0.25)
        target.merge(source)
        assert target.count == 1
        assert target.min == target.max == 0.25

    def test_dict_round_trip(self):
        sketch = LogBucketSketch()
        for value in (1e-7, 0.003, 0.25, 40.0):
            sketch.observe(value)
        clone = LogBucketSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict()))
        )
        assert clone.counts == sketch.counts
        assert clone.count == sketch.count
        assert clone.total == pytest.approx(sketch.total)
        assert clone.quantile(0.5) == sketch.quantile(0.5)

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            LogBucketSketch.from_dict({"schema": "nope"})

    def test_count_le_splits_on_threshold(self):
        sketch = LogBucketSketch()
        for _ in range(90):
            sketch.observe(0.010)
        for _ in range(10):
            sketch.observe(10.0)
        assert sketch.count_le(1.0) == 90
        assert sketch.count_le(100.0) == 100
        assert sketch.count_le(1e-9) == 0

    def test_underflow_lands_in_bucket_zero(self):
        sketch = LogBucketSketch()
        sketch.observe(0.0)
        sketch.observe(-1.0)  # clamped, never a math domain error
        assert sketch.counts == {0: 2}


class TestWindowedOpStats:
    def _window(self, start=0.0):
        clock = {"now": start}
        stats = WindowedOpStats(bucket_s=10.0, buckets=6,
                                clock=lambda: clock["now"])
        return stats, clock

    def test_snapshot_counts_and_rates(self):
        stats, clock = self._window()
        for i in range(8):
            stats.observe(0.1, ok=i % 4 != 0, degraded=i % 2 == 0)
        snap = stats.snapshot()
        assert snap["count"] == 8
        assert snap["errors"] == 2
        assert snap["degraded"] == 4
        assert snap["error_rate"] == pytest.approx(0.25)
        assert snap["qps"] == pytest.approx(8 / 60.0)
        assert snap["quantiles"]["p50"] == pytest.approx(0.1, rel=0.25)
        assert snap["sketch"]["count"] == 8

    def test_old_slots_expire_when_clock_wraps(self):
        stats, clock = self._window()
        stats.observe(0.1)
        clock["now"] = 65.0  # 6 x 10s ring: slot 0 is now stale
        stats.observe(0.2)
        assert stats.snapshot()["count"] == 1

    def test_fast_horizon_sees_only_recent_slots(self):
        stats, clock = self._window()
        stats.observe(1.0)
        clock["now"] = 45.0
        stats.observe(2.0)
        full = stats.snapshot()
        fast = stats.snapshot(horizon_s=10.0)
        assert full["count"] == 2
        assert fast["count"] == 1
        assert fast["horizon_s"] == pytest.approx(10.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            WindowedOpStats(bucket_s=0.0)
        with pytest.raises(ValueError):
            WindowedOpStats(buckets=1)


def _objectives_file(tmp_path, objectives):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps(
        {"schema": SLO_SCHEMA, "objectives": objectives}
    ))
    return str(path)


class TestObjectiveParsing:
    def test_quantile_objective(self):
        objective = Objective.from_dict(
            {"op": "analyze", "metric": "p99", "threshold_s": 0.25}
        )
        assert objective.name == "analyze-p99"
        assert objective.budget == pytest.approx(0.01)
        assert objective.describe() == "analyze p99 < 250ms"

    def test_rate_objective(self):
        objective = Objective.from_dict(
            {"name": "errs", "metric": "error_rate", "threshold": 0.05}
        )
        assert objective.budget == pytest.approx(0.05)
        assert "error_rate < 5%" in objective.describe()

    @pytest.mark.parametrize("raw", [
        {"metric": "p42", "threshold_s": 0.1},
        {"metric": "p99"},                                # no threshold_s
        {"metric": "p99", "threshold_s": 0.0},
        {"metric": "error_rate"},                         # no threshold
        {"metric": "error_rate", "threshold": 1.5},
        {"metric": "p99", "threshold_s": 0.1, "extra": 1},
    ])
    def test_rejects_malformed(self, raw):
        with pytest.raises(SLOValidationError):
            Objective.from_dict(raw)

    def test_dict_round_trip(self):
        objective = Objective.from_dict(
            {"name": "lat", "op": "slo", "metric": "p95",
             "threshold_s": 0.5}
        )
        assert Objective.from_dict(objective.to_dict()) == objective

    def test_load_objectives(self, tmp_path):
        path = _objectives_file(tmp_path, [
            {"op": "analyze", "metric": "p99", "threshold_s": 0.25},
            {"metric": "error_rate", "threshold": 0.01},
        ])
        objectives = load_objectives(path)
        assert [o.name for o in objectives] == \
            ["analyze-p99", "analyze-error_rate"]

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"objectives": []}))
        with pytest.raises(SLOValidationError):
            load_objectives(str(path))

    def test_load_rejects_duplicates_and_missing_file(self, tmp_path):
        path = _objectives_file(tmp_path, [
            {"name": "same", "metric": "p99", "threshold_s": 0.1},
            {"name": "same", "metric": "p95", "threshold_s": 0.1},
        ])
        with pytest.raises(SLOValidationError, match="duplicate"):
            load_objectives(path)
        with pytest.raises(SLOValidationError):
            load_objectives(str(tmp_path / "absent.json"))


def _windows(seconds_list, op="analyze", fast=None, window_s=600.0):
    """A stats-shaped window snapshot built from explicit latencies."""

    def view(values):
        sketch = LogBucketSketch()
        for value in values:
            sketch.observe(value)
        return {
            "count": sketch.count,
            "error_rate": 0.0,
            "degraded_rate": 0.0,
            "quantiles": sketch.quantiles(),
            "sketch": sketch.to_dict(),
        }

    return {
        "window_s": window_s,
        "fast_s": 60.0,
        "ops": {op: {
            "full": view(seconds_list),
            "fast": view(fast if fast is not None else seconds_list),
        }},
    }


class TestEvaluateObjectives:
    P99 = Objective(name="lat", op="analyze", metric="p99",
                    threshold_s=0.25)

    def test_healthy_window_is_ok(self):
        report = evaluate_objectives(
            [self.P99], _windows([0.01] * 200)
        )
        result = report.results[0]
        assert report.ok and result.status == "ok"
        assert result.bad_fraction == 0.0
        assert result.budget_remaining == pytest.approx(1.0)
        assert result.alerts == []

    def test_budget_overspend_is_violated(self):
        # 5% of requests over threshold >> the 1% p99 budget
        latencies = [0.01] * 95 + [1.0] * 5
        report = evaluate_objectives([self.P99], _windows(latencies))
        result = report.results[0]
        assert result.status == "violated"
        assert result.bad_fraction == pytest.approx(0.05)
        assert result.budget_remaining < 0
        assert not report.ok
        assert [r.objective.name for r in report.violations()] == ["lat"]

    def test_no_data_does_not_fail_unless_required(self):
        report = evaluate_objectives([self.P99], _windows([]))
        assert report.results[0].status == "no-data"
        assert report.ok
        strict = evaluate_objectives(
            [self.P99], _windows([]), require_data=True
        )
        assert strict.results[0].status == "violated"
        assert strict.results[0].alerts == ["no-data"]

    def test_fast_burn_needs_both_horizons(self):
        bad = [0.01] * 70 + [1.0] * 30  # 30x the 1% budget
        report = evaluate_objectives([self.P99], _windows(bad, fast=bad))
        assert report.results[0].alerts == ["fast-burn"]
        assert report.results[0].burn_fast >= FAST_BURN
        # the same full-window burn with a *recovered* fast window must
        # not page: the incident is over
        recovered = evaluate_objectives(
            [self.P99], _windows(bad, fast=[0.01] * 50)
        )
        assert recovered.results[0].alerts == ["slow-burn"]

    def test_slow_burn_alert(self):
        # 5% bad = 5x budget: over SLOW_BURN, under FAST_BURN
        latencies = [0.01] * 95 + [1.0] * 5
        report = evaluate_objectives(
            [self.P99], _windows(latencies, fast=[0.01] * 20)
        )
        result = report.results[0]
        assert result.burn_slow == pytest.approx(5.0)
        assert SLOW_BURN <= result.burn_slow < FAST_BURN
        assert result.alerts == ["slow-burn"]

    def test_rate_objective_uses_reported_rate(self):
        objective = Objective(name="errs", metric="error_rate",
                              threshold=0.10)
        windows = _windows([0.01] * 10)
        windows["ops"]["analyze"]["full"]["error_rate"] = 0.25
        report = evaluate_objectives([objective], windows)
        result = report.results[0]
        assert result.status == "violated"
        assert result.measured == pytest.approx(0.25)

    def test_quantile_fallback_without_sketch(self):
        windows = _windows([0.01] * 98 + [1.0] * 2)
        del windows["ops"]["analyze"]["full"]["sketch"]
        report = evaluate_objectives([self.P99], windows)
        # binary verdict from the reported p99, which 2 in 100 drag
        # over the 250ms threshold
        assert report.results[0].status == "violated"

    def test_missing_op_is_no_data(self):
        other = Objective(name="x", op="ping", metric="p99",
                          threshold_s=0.1)
        report = evaluate_objectives([other], _windows([0.01]))
        assert report.results[0].status == "no-data"

    def test_report_wire_round_trip(self):
        latencies = [0.01] * 95 + [1.0] * 5
        report = evaluate_objectives([self.P99], _windows(latencies))
        clone = SLOReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.ok == report.ok
        assert clone.window_s == report.window_s
        assert [r.to_dict() for r in clone.results] == \
            [r.to_dict() for r in report.results]

    def test_report_from_dict_rejects_non_object(self):
        with pytest.raises(SLOValidationError):
            SLOReport.from_dict("not a report")

    def test_format_mentions_verdicts_and_alerts(self):
        latencies = [0.01] * 95 + [1.0] * 5
        report = evaluate_objectives([self.P99], _windows(latencies))
        text = format_slo_report(report)
        assert "FAIL" in text
        assert "analyze p99 < 250ms" in text
        assert "slow-burn" in text
        assert "1 objective(s) VIOLATED" in text
        healthy = format_slo_report(
            evaluate_objectives([self.P99], _windows([0.01] * 50))
        )
        assert "all objectives met" in healthy


def _event(seq, ts_us, seconds, ok=True, degraded=False, op="analyze"):
    return {
        "schema": "repro.obs/event/v1", "seq": seq, "ts_us": ts_us,
        "type": "service.request",
        "attrs": {"op": op, "seconds": seconds, "ok": ok,
                  "degraded": degraded},
    }


class TestWindowFromEvents:
    def test_replay_matches_event_stream(self):
        now = 1_000_000_000_000_000
        events = [
            _event(i, now - i * 1_000_000, 0.010) for i in range(100)
        ]
        windows = window_from_events(events, window_s=600.0)
        full = windows["ops"]["analyze"]["full"]
        assert full["count"] == 100
        assert full["quantiles"]["p99"] == pytest.approx(0.010, rel=0.25)

    def test_events_outside_window_are_dropped(self):
        now = 1_000_000_000_000_000
        events = [
            _event(1, now, 0.010),
            _event(2, now - int(700e6), 5.0),  # older than the window
            {"schema": "repro.obs/event/v1", "seq": 3, "ts_us": now,
             "type": "trace.kept", "attrs": {}},  # not a request
        ]
        windows = window_from_events(events, window_s=600.0)
        assert windows["ops"]["analyze"]["full"]["count"] == 1

    def test_ops_split_and_errors_counted(self):
        now = 1_000_000_000_000_000
        events = [
            _event(1, now, 0.01),
            _event(2, now, 0.01, ok=False, op="slo"),
        ]
        windows = window_from_events(events)
        assert set(windows["ops"]) == {"analyze", "slo"}
        assert windows["ops"]["slo"]["full"]["errors"] == 1

    def test_empty_log_yields_no_ops(self):
        assert window_from_events([])["ops"] == {}


class TestSLOCommandOffline:
    """``repro slo`` against a recorded event log (no service)."""

    def _seeded_log(self, tmp_path, seconds):
        from repro.obs.telemetry import EventLog

        events_dir = tmp_path / "events"
        with EventLog(events_dir, fsync=False) as log:
            for value in seconds:
                log.record("service.request", {
                    "op": "analyze", "seconds": value, "ok": True,
                    "degraded": False,
                })
        return str(events_dir)

    def _objectives(self, tmp_path):
        return _objectives_file(tmp_path, [
            {"op": "analyze", "metric": "p99", "threshold_s": 0.25},
        ])

    def test_check_healthy_log_exits_zero(self, tmp_path, capsys):
        events = self._seeded_log(tmp_path, [0.01] * 50)
        code = main(["slo", "check",
                     "--objectives", self._objectives(tmp_path),
                     "--events", events])
        assert code == 0
        assert "all objectives met" in capsys.readouterr().out

    def test_check_violating_log_exits_one(self, tmp_path, capsys):
        events = self._seeded_log(tmp_path, [0.01] * 5 + [1.0] * 45)
        code = main(["slo", "check",
                     "--objectives", self._objectives(tmp_path),
                     "--events", events])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_report_never_fails_on_violation(self, tmp_path, capsys):
        events = self._seeded_log(tmp_path, [1.0] * 50)
        code = main(["slo", "report",
                     "--objectives", self._objectives(tmp_path),
                     "--events", events, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["results"][0]["status"] == "violated"

    def test_require_data_fails_empty_log(self, tmp_path):
        events = self._seeded_log(tmp_path, [])
        code = main(["slo", "check", "--require-data",
                     "--objectives", self._objectives(tmp_path),
                     "--events", events])
        assert code == 1

    def test_missing_event_log_is_input_error(self, tmp_path):
        code = main(["slo", "check",
                     "--objectives", self._objectives(tmp_path),
                     "--events", str(tmp_path / "nowhere")])
        assert code == 2

    def test_bad_objectives_file_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{не json")
        code = main(["slo", "check", "--objectives", str(bad),
                     "--events", str(tmp_path)])
        assert code == 2

    def test_unreachable_service_is_input_error(self, tmp_path):
        code = main(["slo", "check",
                     "--objectives", self._objectives(tmp_path),
                     "--port", "1"])  # nothing listens there
        assert code == 2


@pytest.fixture(scope="module")
def live_endpoint(tmp_path_factory):
    """A served LayoutService fed only cheap ops (ping/stats/slo), so
    the windowed-op plumbing is exercised without running the pipeline."""
    from repro.service import (
        LayoutServer, LayoutService, WorkerPool, send_request,
    )

    service = LayoutService(pool=WorkerPool(kind="serial"))
    server = LayoutServer(("127.0.0.1", 0), service)
    server.serve_background()
    for _ in range(5):
        send_request({"op": "ping"}, "127.0.0.1", server.port)
    yield "127.0.0.1", server.port
    server.shutdown()
    server.server_close()
    service.close()


class TestLiveSLOAndTop:
    def _objectives(self, tmp_path, op="ping"):
        return _objectives_file(tmp_path, [
            {"op": op, "metric": "p99", "threshold_s": 5.0},
        ])

    def test_slo_op_over_the_wire(self, live_endpoint):
        from repro.service import send_request

        host, port = live_endpoint
        resp = send_request({
            "op": "slo",
            "objectives": [{"op": "ping", "metric": "p99",
                            "threshold_s": 5.0}],
        }, host, port)
        assert resp["ok"]
        report = SLOReport.from_dict(resp["report"])
        assert report.ok
        assert report.results[0].status == "ok"
        assert report.results[0].count >= 5

    def test_slo_op_without_objectives_is_bad_request(self, live_endpoint):
        from repro.service import send_request

        host, port = live_endpoint
        resp = send_request({"op": "slo"}, host, port)
        assert not resp["ok"]
        assert resp["error_kind"] == "bad-request"

    def test_slo_op_refuses_an_op_the_protocol_lacks(self, live_endpoint):
        """A misspelled op names a window that can never fill: it read
        ``no-data`` — and passed — forever."""
        from repro.service import send_request
        from repro.service.protocol import OPS

        host, port = live_endpoint
        resp = send_request({
            "op": "slo",
            "objectives": [{"op": "analyse", "metric": "p99",
                            "threshold_s": 0.001}],
        }, host, port)
        assert not resp["ok"]
        assert resp["error_kind"] == "bad-request"
        assert "'analyse'" in resp["error"]
        assert all(op in resp["error"] for op in OPS)

    def test_serve_refuses_a_misspelled_objective_at_startup(
        self, tmp_path, monkeypatch
    ):
        from repro.service import LayoutServer

        def must_not_serve(*args, **kwargs):
            raise AssertionError("serve started with a dead objective")

        monkeypatch.setattr(LayoutServer, "__init__", must_not_serve)
        code = main(["serve", "--port", "0", "--slo-file",
                     self._objectives(tmp_path, op="analyse")])
        assert code == 2

    def test_offline_check_takes_its_ops_from_the_log(self, tmp_path):
        # unchanged: an event log may carry ops this build does not serve
        (tmp_path / "events").mkdir()
        code = main(["slo", "check",
                     "--objectives", self._objectives(tmp_path, "analyse"),
                     "--events", str(tmp_path / "events")])
        assert code == 0

    def test_events_op_returns_tail(self, live_endpoint):
        from repro.service import send_request

        host, port = live_endpoint
        resp = send_request(
            {"op": "events", "type": "service.request"}, host, port
        )
        assert resp["ok"]
        assert resp["events"]
        assert all(e["type"] == "service.request"
                   for e in resp["events"])
        assert resp["telemetry"]["events"]["events_total"] > 0

    def test_slo_cli_against_live_service(
        self, live_endpoint, tmp_path, capsys
    ):
        host, port = live_endpoint
        code = main(["slo", "check",
                     "--objectives", self._objectives(tmp_path),
                     "--host", host, "--port", str(port)])
        assert code == 0
        assert "ping p99" in capsys.readouterr().out

    def test_top_once_against_live_service(
        self, live_endpoint, tmp_path, capsys
    ):
        host, port = live_endpoint
        code = main(["top", "--once",
                     "--objectives", self._objectives(tmp_path),
                     "--host", host, "--port", str(port)])
        assert code == 0
        page = capsys.readouterr().out
        assert "repro top" in page
        assert "ping" in page
        assert "slo" in page

    def test_top_unreachable_service_exits_one(self, capsys):
        assert main(["top", "--once", "--port", "1"]) == 1


class TestFormatTop:
    def _stats(self):
        return {
            "uptime_seconds": 3723.0,
            "counters": {"requests_total": 12, "requests_failed": 1,
                         "requests_degraded": 2},
            "cache": {"hits": 3, "misses": 1,
                      "quarantined_total": 0,
                      "breaker": {"state": "closed"}},
            "pool": {"requested_kind": "process",
                     "active_kind": "thread", "max_workers": 4,
                     "degradations": 1,
                     "breaker": {"state": "closed"}},
            "telemetry": {
                "events": {"events_total": 40, "rotations_total": 2,
                           "bad_lines_total": 1},
                "sampler": {"kept_total": 3, "dropped_total": 7,
                            "kept_by_reason": {"slow": 2, "error": 1}},
            },
            "window": {
                "window_s": 600.0, "fast_s": 60.0,
                "ops": {"analyze": {"full": {
                    "count": 10, "qps": 0.5,
                    "error_rate": 0.1, "degraded_rate": 0.2,
                    "quantiles": {"p50": 0.010, "p95": 0.020,
                                  "p99": 0.040},
                }}},
            },
        }

    def test_page_sections(self):
        page = format_top(self._stats())
        assert "uptime 1:02:03" in page
        assert "requests 12" in page
        assert "analyze" in page and "10" in page
        assert "hit rate 75.0%" in page
        assert "thread (requested process)" in page
        assert "40 logged" in page and "bad lines 1" in page
        assert "kept 3/10" in page and "slow=2" in page

    def test_empty_window_and_missing_sections(self):
        page = format_top({"counters": {}, "window": {"ops": {}}})
        assert "(no requests in window)" in page

    def test_slo_section(self):
        report = evaluate_objectives(
            [Objective(name="lat", op="analyze", metric="p99",
                       threshold_s=0.25)],
            _windows([0.01] * 95 + [1.0] * 5),
        )
        page = format_top(self._stats(), report.to_dict())
        assert "[FAIL]" in page
        assert "ALERT" in page
        assert "analyze p99 < 250ms" in page

    def test_unreadable_slo_report(self):
        page = format_top(self._stats(), {"results": ["garbage"]})
        assert "unreadable" in page


class TestChaosEventAccounting:
    """Chaos verdicts flow through the event log (satellite S3)."""

    def test_case_results_carry_fault_observation(self):
        from repro.resilience.chaos import CaseResult
        from repro.resilience.faults import FaultPlan

        case = CaseResult(
            index=0, seed=1, program="adi", plan=FaultPlan(),
            outcome="ok", faults_fired=2, faults_observed=2,
        )
        data = case.to_dict()
        assert data["faults_fired"] == 2
        assert data["faults_observed"] == 2

    def test_campaign_writes_events(self, tmp_path, monkeypatch):
        from repro.obs.telemetry import read_event_log
        from repro.resilience import chaos

        from repro.resilience.faults import FaultPlan

        def fake_run_case(index, seed, program, reference, case_timeout_s):
            return chaos.CaseResult(
                index=index, seed=seed, program=program,
                plan=FaultPlan(seed=seed), outcome="ok",
                faults_fired=1, faults_observed=1,
            )

        monkeypatch.setattr(chaos, "run_case", fake_run_case)
        monkeypatch.setattr(
            chaos, "_reference_response", lambda *a, **k: {"ok": True}
        )
        events_dir = tmp_path / "chaos-events"
        report = chaos.run_chaos(
            cases=3, seed=7, events_dir=str(events_dir)
        )
        assert len(report.cases) == 3
        events, bad = read_event_log(events_dir)
        assert bad == 0
        cases = [e for e in events if e["type"] == "chaos.case"]
        assert len(cases) == 3
        assert [e["attrs"]["seed"] for e in cases] == [7, 8, 9]
        campaign = [e for e in events if e["type"] == "chaos.campaign"]
        assert len(campaign) == 1
        assert campaign[0]["attrs"]["total"] == 3
        assert campaign[0]["attrs"]["ok"] == 3
        assert campaign[0]["attrs"]["violations"] == []
