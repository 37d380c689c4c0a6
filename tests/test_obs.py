"""The observability layer: tracing, exporters, Prometheus exposition,
decision provenance, series quantiles, and the explain/stats CLI.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.obs import tracing
from repro.obs.chrome import to_chrome_trace, validate_chrome_trace
from repro.obs.events import (
    TraceValidationError,
    iter_events,
    load_trace,
    spans_by_name,
    validate_trace,
    write_trace,
)
from repro.obs.log import configure_logging, get_logger
from repro.obs.prometheus import FAMILIES, parse_prometheus_text
from repro.obs.provenance import build_provenance, format_provenance
from repro.obs.window import LADDER, LogBucketSketch
from repro.programs.registry import PROGRAMS
from repro.service.metrics import Metrics
from repro.service.pool import WorkerPool
from repro.service.protocol import LayoutRequest
from repro.service.server import LayoutService
from repro.tool.assistant import AssistantConfig, run_assistant
from repro.tool.cli import main as cli_main


def traced_square(x):
    """Module-level pool job (picklable) that records its own span."""
    with tracing.span("job.work", x=x):
        tracing.add_event("job.event", x=x)
        return x * x


# ---------------------------------------------------------------------------
# Series edge cases: every lifetime distribution is a LogBucketSketch
# behind Metrics (the fixed-bucket Histogram these cases were written
# against is gone; what they pinned survives and is checked here)


def _series(*values):
    """The snapshot of one stage series fed ``values`` through Metrics."""
    metrics = Metrics()
    for value in values:
        metrics.observe_stage("s", value)
    return metrics.snapshot()["stage_seconds"]["s"]


class TestHistogramEdgeCases:
    def test_empty_histogram(self):
        assert Metrics().snapshot()["stage_seconds"] == {}
        snap = LogBucketSketch().snapshot()
        assert snap["count"] == 0
        assert snap["sum"] == 0.0
        assert snap["mean"] == 0.0
        assert snap["min"] is None and snap["max"] is None
        assert snap["quantiles"] == {"p50": None, "p95": None, "p99": None}
        assert set(snap["buckets"].values()) == {0}

    def test_value_exactly_on_bucket_bound(self):
        first, second = LADDER[0][0], LADDER[1][0]
        snap = _series(float(first))  # `le`: the bound value lands inside
        assert snap["buckets"][first] == 1
        assert snap["buckets"][second] == 1
        assert snap["buckets"]["+Inf"] == 1

    def test_min_max_mean(self):
        snap = _series(0.002, 0.004, 0.09)
        assert snap["min"] == 0.002
        assert snap["max"] == 0.09
        assert snap["mean"] == pytest.approx(0.096 / 3)

    def test_quantiles_single_observation(self):
        # the estimate clamps to the observed min/max
        quantiles = _series(0.007)["quantiles"]
        assert quantiles["p50"] == 0.007
        assert quantiles["p99"] == 0.007

    def test_quantile_order_and_bounds(self):
        quantiles = _series(*(i / 100.0 for i in range(1, 101)))["quantiles"]
        p50, p95, p99 = (quantiles[k] for k in ("p50", "p95", "p99"))
        assert 0.01 <= p50 <= p95 <= p99 <= 1.0
        assert p50 == pytest.approx(0.5, rel=0.1)

    def test_quantile_above_largest_bucket(self):
        # past the last rung (356 s) only +Inf counts it, and the best
        # answer is the observed max
        snap = _series(5000.0)
        finite = [n for le, n in snap["buckets"].items() if le != "+Inf"]
        assert set(finite) == {0} and snap["buckets"]["+Inf"] == 1
        assert snap["quantiles"]["p50"] == 5000.0

    def test_quantile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            LogBucketSketch().quantile(1.5)

    def test_metrics_gauges_and_span_seconds(self):
        metrics = Metrics()
        metrics.observe_span("pipeline", 0.25)
        snap = metrics.snapshot()
        # no gauges mirror: a component's numbers sit in its own
        # describe() block of LayoutService.stats(), once
        assert "gauges" not in snap
        assert snap["span_seconds"]["pipeline"]["count"] == 1

    def test_cache_totals_matches_snapshot(self):
        metrics = Metrics()
        metrics.record_cache("frontend", True)
        metrics.record_cache("frontend", False)
        metrics.record_cache("selection", False)
        hits, misses = metrics.cache_totals()
        snap = metrics.snapshot()
        assert (hits, misses) == (1, 2)
        assert snap["cache"]["hits"] == hits
        assert snap["cache"]["misses"] == misses


# ---------------------------------------------------------------------------
# Span tracing core


class TestTracing:
    def test_disabled_tracing_is_a_noop(self):
        assert not tracing.active()
        with tracing.span("anything", k=1) as sp:
            sp.set_attr("x", 2)  # NULL_SPAN swallows everything
            tracing.add_event("ev")
        assert tracing.active_tracer() is None

    def test_span_nesting_parents(self):
        tracing.start_trace("t")
        try:
            with tracing.span("outer") as outer:
                with tracing.span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                assert tracing.current_span_id() == outer.span_id
        finally:
            trace = tracing.finish_trace()
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        validate_trace(trace)

    def test_events_attach_to_open_span(self):
        tracing.start_trace("t")
        try:
            with tracing.span("holder"):
                tracing.add_event("marker", value=7)
        finally:
            trace = tracing.finish_trace()
        (pair,) = list(iter_events(trace, "marker"))
        span, event = pair
        assert span["name"] == "holder"
        assert event["attrs"]["value"] == 7

    def test_duration_is_measured(self):
        tracing.start_trace("t")
        try:
            with tracing.span("timed"):
                pass
        finally:
            trace = tracing.finish_trace()
        (span,) = spans_by_name(trace, "timed")
        assert span["duration_us"] >= 0

    def test_validate_rejects_bad_traces(self):
        with pytest.raises(TraceValidationError):
            validate_trace({"schema": "wrong"})
        tracing.start_trace("t")
        with tracing.span("a"):
            pass
        trace = tracing.finish_trace()
        broken = json.loads(json.dumps(trace))
        broken["spans"][0]["parent_id"] = "no-such-span"
        with pytest.raises(TraceValidationError):
            validate_trace(broken)

    def test_write_and_load_roundtrip(self, tmp_path):
        tracing.start_trace("t")
        with tracing.span("a", n=1):
            pass
        trace = tracing.finish_trace()
        path = str(tmp_path / "trace.json")
        write_trace(trace, path)
        assert load_trace(path) == trace

    def test_start_us_immune_to_wall_clock_steps(self, monkeypatch):
        """The wall clock is sampled once per trace: a clock step after
        tracer creation must not skew later spans' start_us (satellite:
        timestamp skew fix)."""
        import time as time_mod

        tracer = tracing.Tracer(name="t")
        anchor = tracer.created_us
        # A wall-clock step of -1000s mid-trace...
        monkeypatch.setattr(
            time_mod, "time", lambda: (anchor / 1e6) - 1000.0
        )
        record = tracer.begin("late", None, {})
        tracer.finish(record)
        # ...does not drag start_us back before the trace anchor.
        assert record.start_us >= anchor

    def test_span_starts_are_monotonic_within_a_trace(self):
        tracing.start_trace("t")
        try:
            with tracing.span("first"):
                pass
            with tracing.span("second"):
                pass
        finally:
            trace = tracing.finish_trace()
        (first,) = spans_by_name(trace, "first")
        (second,) = spans_by_name(trace, "second")
        assert second["start_us"] >= first["start_us"]
        # children can never start before their trace's anchor
        for span in trace["spans"]:
            assert span["start_us"] >= trace["created_us"]

    def test_metrics_uptime_uses_monotonic_clock(self):
        """Uptime must survive wall-clock adjustments (satellite:
        monotonic uptime fix)."""
        metrics = Metrics()
        # A wall-clock step would previously have poisoned uptime; the
        # wall-clock field is now display-only.
        metrics.started_at += 1e9
        uptime = metrics.snapshot()["uptime_seconds"]
        assert uptime >= 0.0
        assert uptime < 60.0


# ---------------------------------------------------------------------------
# Trace propagation through the worker pool (satellite 4)


class TestPoolTracePropagation:
    @pytest.mark.parametrize("kind", ["process", "thread", "serial"])
    def test_jobs_report_into_one_trace(self, kind):
        tracer = tracing.start_trace("pool-test")
        try:
            with WorkerPool(kind=kind, max_workers=2) as pool:
                values = pool.run_jobs(
                    traced_square, [(i,) for i in range(4)]
                )
        finally:
            trace = tracing.finish_trace()
        assert values == [0, 1, 4, 9]
        validate_trace(trace)
        job_spans = spans_by_name(trace, "job.work")
        assert len(job_spans) == 4
        (pool_span,) = spans_by_name(trace, "pool:traced_square")
        for span in job_spans:
            # worker spans hang off the pool span via prefixed IDs
            assert span["span_id"].startswith("w")
            parent = span["parent_id"]
            while parent is not None and parent != pool_span["span_id"]:
                parent = next(
                    s["parent_id"] for s in trace["spans"]
                    if s["span_id"] == parent
                )
            assert parent == pool_span["span_id"]
        assert {s["attrs"]["x"] for s in job_spans} == {0, 1, 2, 3}
        assert trace["trace_id"] == tracer.trace_id

    def test_untraced_pool_runs_identically(self):
        with WorkerPool(kind="serial") as pool:
            assert pool.run_jobs(traced_square, [(3,)]) == [9]

    def test_span_ids_unique_across_fanouts(self):
        tracing.start_trace("t")
        try:
            with WorkerPool(kind="serial") as pool:
                pool.run_jobs(traced_square, [(1,), (2,)])
                pool.run_jobs(traced_square, [(3,)])
        finally:
            trace = tracing.finish_trace()
        ids = [s["span_id"] for s in trace["spans"]]
        assert len(ids) == len(set(ids))
        validate_trace(trace)


# ---------------------------------------------------------------------------
# Pipeline instrumentation + determinism


@pytest.fixture(scope="module")
def traced_run():
    spec_source = __import__(
        "repro.programs.registry", fromlist=["PROGRAMS"]
    ).PROGRAMS["adi"].source_fn(n=32, dtype="real", maxiter=2)
    config = AssistantConfig.from_dict({"nprocs": 4})
    untraced = run_assistant(spec_source, config)
    tracing.start_trace("test")
    try:
        traced = run_assistant(spec_source, config)
    finally:
        trace = tracing.finish_trace()
    return untraced, traced, trace


class TestPipelineInstrumentation:
    def test_traced_results_identical(self, traced_run):
        untraced, traced, _ = traced_run
        assert traced.selection.selection == untraced.selection.selection
        assert traced.selection.objective == untraced.selection.objective

    def test_all_stages_have_spans(self, traced_run):
        _, _, trace = traced_run
        names = {s["name"] for s in trace["spans"]}
        for stage in ("frontend", "partition", "alignment",
                      "distribution", "estimation", "selection"):
            assert f"stage:{stage}" in names
        assert "pipeline" in names

    def test_ilp_solves_carry_model_sizes(self, traced_run):
        _, _, trace = traced_run
        solves = spans_by_name(trace, "ilp.solve")
        for span in solves:
            assert span["attrs"]["variables"] > 0
            assert span["attrs"]["constraints"] > 0
            assert span["attrs"]["status"] == "optimal"
        # With graph presolve on (the default) the selection model may
        # collapse entirely before any backend runs; the presolve span
        # then carries the reduction evidence instead of ilp.solve.
        presolves = spans_by_name(trace, "ilp.presolve")
        assert solves or presolves
        for span in presolves:
            assert span["attrs"]["variables"] > 0
            assert span["attrs"]["fixed"] + span["attrs"]["components"] > 0

    def test_selection_span_has_model_shape(self, traced_run):
        _, traced, trace = traced_run
        (span,) = spans_by_name(trace, "selection.solve")
        assert span["attrs"]["variables"] >= traced.graph.num_nodes()
        assert span["attrs"]["constraints"] > 0
        assert span["attrs"]["objective_us"] == pytest.approx(
            traced.selection.objective
        )

    def test_distribution_counts(self, traced_run):
        _, traced, trace = traced_run
        phases = spans_by_name(trace, "distribution.phase")
        kept = sum(s["attrs"]["kept"] for s in phases)
        assert kept == traced.layout_spaces.total_candidates()
        for span in phases:
            assert (span["attrs"]["generated"]
                    == span["attrs"]["pruned"] + span["attrs"]["kept"])

    def test_selection_choice_events(self, traced_run):
        """Each phase's choice is read from the selection: its position,
        and its node cost within the cost vector it won against."""
        _, traced, trace = traced_run
        choices = build_provenance(traced, trace)["phases"]
        assert len(choices) == len(traced.selection.selection)
        for choice in choices:
            sel = traced.selection.selection[choice["phase"]]
            assert choice["position"] == sel
            assert choice["candidate_costs_us"][choice["position"]] == \
                choice["node_cost_us"]

    def test_chrome_export(self, traced_run):
        _, _, trace = traced_run
        chrome = to_chrome_trace(trace)
        validate_chrome_trace(chrome)
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(trace["spans"])

    def test_provenance_report(self, traced_run):
        _, traced, trace = traced_run
        report = build_provenance(traced, trace)
        assert report["objective_us"] == pytest.approx(
            traced.selection.objective
        )
        assert len(report["phases"]) == len(traced.selection.selection)
        text = format_provenance(report)
        assert "decision provenance" in text
        assert "phase 0" in text

    def test_provenance_accounts_for_alignment_without_a_solver_span(self):
        """tomcatv's two conflict resolutions start no solver; the
        report names how each cut was decided from the
        ``alignment.resolve`` span alone."""
        source = PROGRAMS["tomcatv"].source(n=32, maxiter=2)
        tracing.start_trace("test")
        try:
            result = run_assistant(source, AssistantConfig(nprocs=4))
        finally:
            trace = tracing.finish_trace()
        assert spans_by_name(trace, "ilp.solve") == []
        report = build_provenance(result, trace)
        assert report["ilp_solves"] == []
        assert len(report["conflicts"]) == 2
        for conflict in report["conflicts"]:
            assert conflict["path"] == "direct"
            assert conflict["optima"] == 1
            assert conflict["assignments"] > 0
        text = format_provenance(report)
        assert text.count("unique optimum by enumeration") == 2

    def test_provenance_names_a_solver_decided_tie(self):
        """Generated seed 1251's ``phase1`` resolution ties: the report
        names the solver's pick and the solve behind it."""
        from repro.perf.bench.suite import TIED_SEED
        from repro.qa.generator import GeneratorConfig, generate_program

        source = generate_program(TIED_SEED, GeneratorConfig()).source
        tracing.start_trace("test")
        try:
            result = run_assistant(source, AssistantConfig(nprocs=4))
        finally:
            trace = tracing.finish_trace()
        report = build_provenance(result, trace)
        (tie,) = [c for c in report["conflicts"] if c["path"] == "tie"]
        assert tie["name"] == "phase1"
        assert [s["name"] for s in report["ilp_solves"]] == ["phase1"]
        text = format_provenance(report)
        assert "phase1: cut" in text
        assert "chosen by the 0-1 solver among 6 tied optimal cuts" in text


# ---------------------------------------------------------------------------
# Prometheus exposition


class TestPrometheus:
    def _stats(self):
        with LayoutService(
            pool=WorkerPool(kind="serial"), use_cache=False
        ) as service:
            request = LayoutRequest.from_dict(
                {"program": "adi", "size": 32, "procs": 4, "maxiter": 2}
            )
            response = service.analyze(request)
            assert response.ok
            return service.stats(), service.prometheus()

    def test_render_parses_back(self):
        stats, text = self._stats()
        samples = parse_prometheus_text(text)
        assert samples[("repro_counter_total",
                        (("name", "requests_ok"),))] == 1.0
        assert samples[("repro_pool_active_kind",
                        (("kind", "serial"),))] == 1.0
        assert ("repro_uptime_seconds", ()) in samples

    def test_stage_and_span_histograms_present(self):
        _stats, text = self._stats()
        samples = parse_prometheus_text(text)
        names = {name for name, _labels in samples}
        assert "repro_stage_seconds_bucket" in names
        assert "repro_stage_seconds_quantile" in names
        assert "repro_span_seconds_bucket" in names
        # every histogram ends with the +Inf bucket equal to _count
        count = samples[("repro_stage_seconds_count",
                         (("stage", "frontend"),))]
        inf = samples[("repro_stage_seconds_bucket",
                       (("le", "+Inf"), ("stage", "frontend")))]
        assert inf == count

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line at all {")


# ---------------------------------------------------------------------------
# CLI: explain / stats / analyze --trace (satellite coverage)


class TestObservabilityCLI:
    def test_analyze_trace_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        chrome_path = tmp_path / "c.json"
        rc = cli_main([
            "analyze", "--program", "adi", "--size", "32", "--procs", "4",
            "--trace", str(trace_path),
            "--trace-chrome", str(chrome_path),
        ])
        assert rc == 0
        trace = load_trace(str(trace_path))
        assert spans_by_name(trace, "pipeline")
        names = {s["name"] for s in trace["spans"]}
        for stage in ("frontend", "partition", "alignment",
                      "distribution", "estimation", "selection"):
            assert f"stage:{stage}" in names, f"missing stage:{stage}"
        # neither 0-1 program of a paper program at 1-D BLOCK starts a
        # solver: the model sizes ride on selection.solve (and
        # alignment.resolve), ilp.solve only where one ran
        assert spans_by_name(trace, "selection.solve")
        for name in ("selection.solve", "alignment.resolve", "ilp.solve"):
            for span in spans_by_name(trace, name):
                assert span["attrs"]["variables"] > 0, span
                assert span["attrs"]["constraints"] > 0, span
        validate_chrome_trace(json.loads(chrome_path.read_text()))

    def test_explain_text(self, capsys):
        rc = cli_main([
            "explain", "--program", "adi", "--size", "32", "--procs", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decision provenance" in out
        assert "phase 0" in out

    def test_explain_json(self, capsys):
        rc = cli_main([
            "explain", "--program", "adi", "--size", "32", "--procs", "4",
            "--json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.obs/provenance/v1"
        assert report["phases"]
        assert report["objective_us"] is not None

    def test_stats_prometheus(self, capsys):
        rc = cli_main([
            "stats", "--program", "adi", "--size", "32", "--procs", "4",
            "--prometheus",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        samples = parse_prometheus_text(text)
        assert ("repro_counter_total",
                (("name", "requests_total"),)) in samples
        assert samples[("repro_counter_total",
                        (("name", "requests_ok"),))] == 1.0
        names = {name for name, _ in samples}
        assert "repro_stage_seconds_bucket" in names
        assert "repro_span_seconds_quantile" in names
        # one table, one sketch: nothing is exposed that is not a
        # FAMILIES row, the gauges mirror is gone, and the buckets sit
        # on the sketch's own ladder
        assert "repro_gauge" not in names
        families = set(re.findall(r"^# TYPE (\S+) ", text, flags=re.M))
        assert families <= {family.name for family in FAMILIES}
        rungs = {dict(labels)["le"] for name, labels in samples
                 if name == "repro_stage_seconds_bucket"}
        assert rungs == {le for le, _ in LADDER} | {"+Inf"}

    def test_log_level_flag_accepted(self, capsys):
        rc = cli_main([
            "--log-level", "error",
            "analyze", "--program", "adi", "--size", "32", "--procs", "4",
        ])
        assert rc == 0


# ---------------------------------------------------------------------------
# Logging plumbing (satellite 3)


class TestLogging:
    def test_get_logger_prefixes(self):
        assert get_logger("service").name == "repro.service"
        assert get_logger("repro.cli").name == "repro.cli"

    def test_configure_is_idempotent(self):
        first = configure_logging("info")
        second = configure_logging("debug")
        assert first is second
        assert len(second.handlers) == 1
