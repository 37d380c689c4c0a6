"""The telemetry plane: NDJSON event log (rotation, crash recovery,
corrupt-line tolerance), the sink registry, tail-based trace sampling,
detail-gated always-on tracing, trace-stamped log lines, and the
Prometheus exposition of the new window/telemetry families."""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time

import pytest

from repro.obs import tracing
from repro.obs.log import TraceContextFilter
from repro.obs.prometheus import render_prometheus
from repro.obs.telemetry import (
    CURRENT_SEGMENT,
    EVENT_SCHEMA,
    SYNC_COALESCE_S,
    EventLog,
    EventValidationError,
    emit,
    install_sink,
    make_event,
    read_event_log,
    remove_sink,
    validate_event,
)
from repro.obs.window import LADDER, LogBucketSketch
from repro.service.metrics import Metrics
from repro.service.telemetry import ServiceTelemetry, TailSampler

from .event_log_validator import validate_event_log
from .prometheus_parser import parse_prometheus_text


class TestEventSchema:
    def test_make_event_is_valid(self):
        event = make_event("service.request", {"op": "analyze"}, seq=1)
        validate_event(event)
        assert event["schema"] == EVENT_SCHEMA
        assert event["type"] == "service.request"
        assert "trace_id" not in event  # no trace active

    def test_make_event_stamps_active_trace(self):
        tracer = tracing.Tracer(name="t")
        with tracing.activate(tracer):
            with tracing.span("work"):
                event = make_event("x", seq=1)
        assert event["trace_id"] == tracer.trace_id
        assert event["span_id"]
        validate_event(event)

    @pytest.mark.parametrize("mutation", [
        {"schema": "nope"},
        {"type": ""},
        {"type": 7},
        {"seq": -1},
        {"seq": True},
        {"ts_us": "yesterday"},
        {"attrs": "not-a-dict"},
        {"trace_id": ""},
    ])
    def test_validate_rejects(self, mutation):
        event = make_event("ok", seq=1)
        event.update(mutation)
        with pytest.raises(EventValidationError):
            validate_event(event)

    def test_validate_rejects_unserializable_attrs(self):
        event = make_event("ok", seq=1)
        event["attrs"] = {"bad": object()}
        with pytest.raises(EventValidationError):
            validate_event(event)


class TestEventLog:
    def test_memory_only_tail(self):
        log = EventLog()  # no root: pure in-memory ring
        for i in range(5):
            log.record("tick", {"i": i})
        tail = log.tail()
        assert [e["attrs"]["i"] for e in tail] == list(range(5))
        assert [e["seq"] for e in tail] == [1, 2, 3, 4, 5]
        assert log.describe()["dir"] is None

    def test_tail_limit_and_type_filter(self):
        log = EventLog()
        for i in range(4):
            log.record("a", {"i": i})
            log.record("b", {"i": i})
        assert len(log.tail(limit=3)) == 3
        only_b = log.tail(type="b")
        assert {e["type"] for e in only_b} == {"b"}
        assert len(only_b) == 4

    def test_persists_ndjson(self, tmp_path):
        with EventLog(tmp_path, fsync=False) as log:
            log.record("one", {"k": 1})
            log.record("two", {"k": 2})
        lines = (tmp_path / CURRENT_SEGMENT).read_text().splitlines()
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        for event in events:
            validate_event(event)
        assert [e["type"] for e in events] == ["one", "two"]

    def test_rotation_keeps_every_event_in_order(self, tmp_path):
        with EventLog(tmp_path, max_bytes=1024, max_files=100,
                      fsync=False) as log:
            for i in range(100):
                log.record("tick", {"i": i, "pad": "x" * 40})
            assert log.rotations_total > 0
        events, bad = read_event_log(tmp_path)
        assert bad == 0
        assert [e["seq"] for e in events] == list(range(1, 101))
        segments = [n for n in os.listdir(tmp_path)
                    if n.startswith("events-")]
        assert len(segments) == log.rotations_total

    def test_rotation_prunes_old_segments(self, tmp_path):
        with EventLog(tmp_path, max_bytes=1024, max_files=2,
                      fsync=False) as log:
            for i in range(200):
                log.record("tick", {"i": i, "pad": "x" * 40})
        segments = sorted(n for n in os.listdir(tmp_path)
                          if n.startswith("events-"))
        assert len(segments) == 2
        # the survivors are the newest segments, and the live tail
        # continues past them
        events, _ = read_event_log(tmp_path)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 200

    def test_reopen_continues_sequence(self, tmp_path):
        with EventLog(tmp_path, fsync=False) as log:
            for i in range(3):
                log.record("tick", {"i": i})
        with EventLog(tmp_path, fsync=False) as log:
            assert log.bad_lines_total == 0
            event = log.record("tick", {"i": 3})
        assert event["seq"] == 4
        events, bad = read_event_log(tmp_path)
        assert bad == 0
        assert [e["seq"] for e in events] == [1, 2, 3, 4]

    def test_torn_tail_is_counted_never_raised(self, tmp_path):
        with EventLog(tmp_path, fsync=False) as log:
            log.record("tick", {"i": 0})
            log.record("tick", {"i": 1})
        # simulate a crash mid-write: a torn, unparseable final line
        with open(tmp_path / CURRENT_SEGMENT, "a") as handle:
            handle.write('{"schema": "repro.obs/eve')
        events, bad = read_event_log(tmp_path)
        assert bad == 1
        assert [e["seq"] for e in events] == [1, 2]
        # recovery resumes the sequence and keeps counting bad lines
        with EventLog(tmp_path, fsync=False) as log:
            assert log.bad_lines_total == 1
            assert log.record("tick", {"i": 2})["seq"] == 3

    def test_schema_invalid_line_is_skipped(self, tmp_path):
        with EventLog(tmp_path, fsync=False) as log:
            log.record("tick")
        with open(tmp_path / CURRENT_SEGMENT, "a") as handle:
            handle.write('{"schema": "wrong/schema", "seq": 2}\n')
            handle.write("\n")  # blank lines are not bad lines
        events, bad = read_event_log(tmp_path)
        assert bad == 1
        assert len(events) == 1

    def test_validate_event_log_summary(self, tmp_path):
        with EventLog(tmp_path, fsync=False) as log:
            log.record("a")
            log.record("a")
            log.record("b")
        summary = validate_event_log(tmp_path)
        assert summary == {
            "events_total": 3,
            "bad_lines_total": 0,
            "types": {"a": 2, "b": 1},
        }

    def test_single_file_read(self, tmp_path):
        with EventLog(tmp_path, fsync=False) as log:
            log.record("a")
        events, bad = read_event_log(tmp_path / CURRENT_SEGMENT)
        assert bad == 0 and len(events) == 1

    def test_rejects_tiny_max_bytes(self):
        with pytest.raises(ValueError):
            EventLog(max_bytes=10)


class TestSyncBehind:
    """Durable logs: the line is flushed before ``record`` returns, the
    fsync follows on the syncer thread, ``sync()`` is the barrier."""

    @pytest.fixture()
    def fsyncs(self, monkeypatch):
        """Thread idents of every ``os.fsync`` the event log makes."""
        calls = []
        real = os.fsync

        def counted(fd):
            calls.append(threading.get_ident())
            return real(fd)

        monkeypatch.setattr("repro.obs.telemetry.os.fsync", counted)
        return calls

    @staticmethod
    def _unsynced(log) -> int:
        return log.describe()["unsynced_lines"]

    def _wait_synced(self, log, within_s: float) -> float:
        start = time.perf_counter()
        while self._unsynced(log):
            assert time.perf_counter() - start < within_s, "never synced"
            time.sleep(0.001)
        return time.perf_counter() - start

    def test_record_never_fsyncs_on_the_callers_thread(
        self, tmp_path, fsyncs
    ):
        with EventLog(tmp_path) as log:
            for i in range(50):
                log.record("tick", {"i": i})
                # flushed: a reader (or a kill -9) finds it at once
            events, bad = read_event_log(tmp_path)
            assert bad == 0 and len(events) == 50
            assert threading.get_ident() not in fsyncs
            self._wait_synced(log, 5.0)
        # nothing was owed at close, so that synced nothing either
        assert fsyncs and threading.get_ident() not in fsyncs

    def test_an_idle_line_is_synced_within_the_bound(self, tmp_path, fsyncs):
        assert 0 < SYNC_COALESCE_S <= 0.05
        with EventLog(tmp_path) as log:
            log.record("lonely")
            assert self._unsynced(log) == 1
            # the coalescing interval plus one fsync (and CI slack)
            self._wait_synced(log, SYNC_COALESCE_S + 1.0)
            assert log.describe()["syncs_total"] == 1
            # nothing written since: the syncer sleeps
            time.sleep(3 * SYNC_COALESCE_S)
            assert len(fsyncs) == 1

    def test_a_burst_shares_its_fsyncs(self, tmp_path):
        with EventLog(tmp_path) as log:
            for i in range(200):
                log.record("tick", {"i": i})
            self._wait_synced(log, SYNC_COALESCE_S + 1.0)
            assert 1 <= log.describe()["syncs_total"] <= 50

    def test_sync_is_a_barrier(self, tmp_path, fsyncs):
        with EventLog(tmp_path) as log:
            for i in range(5):
                log.record("tick", {"i": i})
            log.sync()
            assert self._unsynced(log) == 0
            assert threading.get_ident() in fsyncs
            before = len(fsyncs)
            log.sync()  # nothing owed: no fsync
            assert len(fsyncs) == before

    def test_close_syncs_and_ends_the_syncer(self, tmp_path, fsyncs):
        threads = threading.active_count()
        log = EventLog(tmp_path)
        log.record("last words")
        assert threading.active_count() == threads + 1
        log.close()
        assert self._unsynced(log) == 0
        assert len(fsyncs) == 1
        assert threading.active_count() == threads
        # a late record reopens the log, syncer included
        log.record("afterthought")
        log.close()
        assert self._unsynced(log) == 0
        assert threading.active_count() == threads
        events, bad = read_event_log(tmp_path)
        assert bad == 0
        assert [e["type"] for e in events] == ["last words", "afterthought"]

    def test_rotation_syncs_the_segment_it_renames(
        self, tmp_path, monkeypatch
    ):
        owed_at_rename = []
        real = os.replace

        def checked(src, dst):
            owed_at_rename.append(log._written - log._synced)
            return real(src, dst)

        monkeypatch.setattr("repro.obs.telemetry.os.replace", checked)
        with EventLog(tmp_path, max_bytes=1024, max_files=100) as log:
            for i in range(100):
                log.record("tick", {"i": i, "pad": "x" * 40})
            assert log.rotations_total > 0
            assert owed_at_rename == [0] * log.rotations_total
        assert self._unsynced(log) == 0
        events, bad = read_event_log(tmp_path)
        assert bad == 0
        assert [e["seq"] for e in events] == list(range(1, 101))

    def test_memory_only_and_fsync_false_start_no_thread(self, tmp_path):
        threads = threading.active_count()
        with EventLog() as ring, EventLog(tmp_path, fsync=False) as log:
            for i in range(10):
                ring.record("tick", {"i": i})
                log.record("tick", {"i": i})
            assert threading.active_count() == threads
            for described in (ring.describe(), log.describe()):
                assert described["unsynced_lines"] == 0
                assert described["syncs_total"] == 0
            ring.sync()
            log.sync()

    def test_writers_and_barriers_at_once_lose_nothing(self, tmp_path):
        """More writers than cores, switching often, against explicit
        barriers and rotation: every event is on disk exactly once and
        nothing is left owed."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        log = EventLog(tmp_path, max_bytes=4096, max_files=1000)
        try:
            def write(worker: int) -> None:
                for i in range(100):
                    log.record("tick", {"w": worker, "i": i})
                    if i % 25 == 0:
                        log.sync()

            writers = [threading.Thread(target=write, args=(w,))
                       for w in range(6)]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            log.close()
        assert self._unsynced(log) == 0
        events, bad = read_event_log(tmp_path)
        assert bad == 0
        assert [e["seq"] for e in events] == list(range(1, 601))
        assert {(e["attrs"]["w"], e["attrs"]["i"]) for e in events} == {
            (w, i) for w in range(6) for i in range(100)
        }

    def test_drain_leaves_nothing_unsynced(self, tmp_path):
        from repro.service.pool import WorkerPool
        from repro.service.server import LayoutService

        request = {"op": "analyze", "program": "adi", "size": 8,
                   "maxiter": 2, "procs": 4}
        with LayoutService(
            pool=WorkerPool(kind="serial"),
            telemetry=ServiceTelemetry(events_dir=str(tmp_path)),
        ) as service:
            for _ in range(3):
                assert service.handle(dict(request))["ok"]
            service.drain(deadline_s=5.0)
            described = service.telemetry.events.describe()
            assert described["unsynced_lines"] == 0
            assert described["syncs_total"] >= 1
            events, bad = read_event_log(tmp_path)
        assert bad == 0
        assert events[-1]["type"] == "service.drain"
        assert events[-1]["attrs"]["phase"] == "end"
        assert [e["attrs"]["tier"] for e in events
                if e["type"] == "service.request"] == \
            ["compute", "answer", "answer"]


class TestSinkRegistry:
    def test_emit_reaches_installed_sink_only_while_installed(self):
        seen = []
        sink = lambda type_, attrs: seen.append((type_, attrs))
        emit("before.install", x=1)
        install_sink(sink)
        try:
            emit("during", x=2)
        finally:
            remove_sink(sink)
        emit("after.remove", x=3)
        assert seen == [("during", {"x": 2})]

    def test_sink_exceptions_never_escape(self):
        def broken(type_, attrs):
            raise RuntimeError("sink died")

        install_sink(broken)
        try:
            emit("anything")  # must not raise
        finally:
            remove_sink(broken)

    def test_double_install_is_idempotent(self):
        seen = []
        sink = lambda type_, attrs: seen.append(type_)
        install_sink(sink)
        install_sink(sink)
        try:
            emit("once")
        finally:
            remove_sink(sink)
        assert seen == ["once"]


class TestTailSampler:
    def test_error_degraded_slow_always_kept(self):
        sampler = TailSampler(slow_s=0.25, sample_every=1000)
        assert sampler.decide("1", 0.01, ok=False) == "error"
        assert sampler.decide("1", 0.01, degraded=True) == "degraded"
        assert sampler.decide("1", 0.30) == "slow"

    def test_healthy_sampling_is_deterministic_on_trace_id(self):
        sampler = TailSampler(sample_every=20)
        kept = {f"{i:x}" for i in range(200)
                if sampler.decide(f"{i:x}", 0.01) == "sampled"}
        assert kept == {f"{i:x}" for i in range(0, 200, 20)}
        # same ids, same verdicts — no RNG state involved
        again = {f"{i:x}" for i in range(200)
                 if sampler.decide(f"{i:x}", 0.01) == "sampled"}
        assert again == kept

    def test_decide_is_pure(self):
        sampler = TailSampler()
        sampler.decide("0", 9.9)
        assert sampler.describe()["kept_total"] == 0

    def test_offer_serializes_only_kept_traces(self):
        sampler = TailSampler(sample_every=2)

        class ExplodingTracer(tracing.Tracer):
            def to_dict(self):
                raise AssertionError("dropped trace was serialized")

        dropped = ExplodingTracer()
        # force a non-sampled id (odd hex) so the drop path runs
        dropped.trace_id = "1"
        reason, trace = sampler.offer(dropped, 0.01)
        assert reason is None and trace is None

        kept = tracing.Tracer()
        kept.trace_id = "2"
        reason, trace = sampler.offer(kept, 0.01)
        assert reason == "sampled"
        assert trace["trace_id"] == "2"
        stats = sampler.describe()
        assert stats["kept_total"] == 1
        assert stats["dropped_total"] == 1
        assert stats["kept_by_reason"] == {"sampled": 1}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TailSampler(slow_s=0.0)
        with pytest.raises(ValueError):
            TailSampler(sample_every=0)


class TestServiceTelemetry:
    def test_record_request_writes_event_and_keeps_error_trace(self):
        with ServiceTelemetry() as telemetry:
            tracer = tracing.Tracer()
            with tracing.activate(tracer):
                with tracing.span("request"):
                    pass
            telemetry.record_request(
                "analyze", 0.05, ok=False, error_kind="timeout",
                request_id="r-1", tracer=tracer,
            )
        types = [e["type"] for e in telemetry.events.tail()]
        assert types == ["service.request", "trace.kept"]
        request = telemetry.events.tail(type="service.request")[0]
        assert request["attrs"]["op"] == "analyze"
        assert request["attrs"]["error_kind"] == "timeout"
        assert request["attrs"]["trace_id"] == tracer.trace_id
        kept = telemetry.events.tail(type="trace.kept")[0]
        assert kept["attrs"]["reason"] == "error"
        assert kept["attrs"]["trace"]["trace_id"] == tracer.trace_id

    def test_untraced_request_records_no_trace(self):
        with ServiceTelemetry() as telemetry:
            telemetry.record_request("stats", 0.001)
        assert [e["type"] for e in telemetry.events.tail()] == \
            ["service.request"]

    def test_installed_sink_receives_resilience_emissions(self):
        with ServiceTelemetry() as telemetry:
            emit("breaker.transition", name="disk", to="open")
        event = telemetry.events.tail(type="breaker.transition")[0]
        assert event["attrs"] == {"name": "disk", "to": "open"}

    def test_close_uninstalls_sink(self):
        telemetry = ServiceTelemetry().install()
        telemetry.close()
        emit("after.close", x=1)
        assert telemetry.events.tail(type="after.close") == []


class TestDetailGating:
    """Tracing has one mode: a tracer records spans and their summary
    attributes, and the pipeline's decisions live on its result."""

    def test_a_traced_run_records_no_decision_events(self):
        from repro.perf.bench.suite import TIED_SEED
        from repro.programs.registry import PROGRAMS
        from repro.qa.generator import GeneratorConfig, generate_program
        from repro.tool.assistant import AssistantConfig, run_assistant

        sources = {name: PROGRAMS[name].source(n=32, maxiter=2)
                   for name in sorted(PROGRAMS)}
        sources["tied"] = generate_program(
            TIED_SEED, GeneratorConfig()).source
        for name, source in sources.items():
            tracer = tracing.Tracer()
            with tracing.activate(tracer):
                run_assistant(source, AssistantConfig(nprocs=4))
            trace = tracer.to_dict()
            events = {event["name"] for span in trace["spans"]
                      for event in span["events"]}
            events |= {event["name"] for event in trace["events"]}
            assert {event for event in events if not event.startswith(
                ("resilience.", "fault."))} == set(), name
        assert not hasattr(tracing, "detail_active")

    def test_span_without_tracer_is_null(self):
        with tracing.span("nothing", k=1) as sp:
            sp.set_attr("ignored", True)  # must be a silent no-op
        assert not tracing.active()


class TestTraceContextFilter:
    def _record(self):
        return logging.LogRecord(
            "repro.service", logging.INFO, __file__, 1, "hello", (), None
        )

    def test_no_trace_renders_dash(self):
        record = self._record()
        assert TraceContextFilter().filter(record)
        assert record.trace == "-"
        assert record.trace_id == ""

    def test_active_trace_stamps_ids(self):
        tracer = tracing.Tracer()
        with tracing.activate(tracer):
            with tracing.span("work"):
                record = self._record()
                TraceContextFilter().filter(record)
        assert record.trace_id == tracer.trace_id
        assert record.trace == f"{tracer.trace_id}/{record.span_id}"

    def test_trace_outside_span_renders_bare_id(self):
        tracer = tracing.Tracer()
        with tracing.activate(tracer):
            record = self._record()
            TraceContextFilter().filter(record)
        assert record.trace == tracer.trace_id


class TestSubMillisecondHistograms:
    def test_sub_ms_bounds_present_and_sorted(self):
        rungs = [LogBucketSketch.bucket_upper(index) for _, index in LADDER]
        assert rungs[0] < 1e-3
        assert sum(1 for rung in rungs if rung < 1e-3) >= 5
        assert rungs == sorted(rungs)
        # a label is its rung at six significant digits
        assert [float(label) for label, _ in LADDER] == pytest.approx(
            rungs, rel=1e-5)

    def test_fast_stages_land_in_distinct_buckets(self):
        metrics = Metrics()
        for value in (2e-5, 8e-5, 4e-4, 8e-4):
            metrics.observe_stage("fast", value)
        buckets = metrics.snapshot()["stage_seconds"]["fast"]["buckets"]
        # cumulative counts must differ across the sub-ms rungs — a
        # ladder without them would put all four into one
        sub_ms = [count for bound, count in buckets.items()
                  if bound != "+Inf" and float(bound) <= 1e-3]
        assert len(set(sub_ms)) > 2

    def test_prometheus_round_trip_with_telemetry_families(self):
        metrics = Metrics()
        metrics.inc("requests_total")
        metrics.observe_stage("parse", 4e-4)
        metrics.observe_op("analyze", 0.012)
        stats = metrics.snapshot()
        stats["telemetry"] = {
            "events": {"events_total": 7, "rotations_total": 1,
                       "bad_lines_total": 0},
            "sampler": {"kept_total": 2, "dropped_total": 9,
                        "kept_by_reason": {"slow": 1, "sampled": 1}},
        }
        text = render_prometheus(stats)
        samples = parse_prometheus_text(text)
        # the syncer and the join table, where the old counters are
        stats["telemetry"]["events"].update(
            syncs_total=5, unsynced_lines=2
        )
        stats["counters"]["requests_joined"] = 3
        grown = render_prometheus(stats)
        new_samples = parse_prometheus_text(grown)
        assert new_samples[("repro_eventlog_syncs_total", ())] == 5.0
        assert new_samples[("repro_eventlog_unsynced_lines", ())] == 2.0
        assert new_samples[("repro_requests_joined_total", ())] == 3.0
        # ...and every other line is what it was, byte for byte
        added = ("repro_eventlog_syncs_total", "repro_requests_joined_total",
                 "repro_eventlog_unsynced_lines",
                 'repro_counter_total{name="requests_joined"}')

        def others(exposition: str) -> list:
            return [line for line in exposition.splitlines()
                    if not any(name in line for name in added)]

        assert others(grown) == others(text)
        assert samples[("repro_eventlog_events_total", ())] == 7.0
        assert samples[("repro_trace_kept_total", ())] == 2.0
        assert samples[
            ("repro_trace_kept_by_reason_total", (("reason", "slow"),))
        ] == 1.0
        assert any(name == "repro_window_qps"
                   for name, _ in samples)
        assert any(name == "repro_window_seconds_quantile"
                   for name, _ in samples)
        # a sub-ms stage histogram bound survives the round trip
        sub_ms_bounds = {
            dict(labels).get("le")
            for name, labels in samples
            if name == "repro_stage_seconds_bucket"
        } - {None, "+Inf"}
        assert any(float(b) < 1e-3 for b in sub_ms_bounds)
