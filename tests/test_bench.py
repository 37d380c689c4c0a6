"""Benchmark harness tests: timer protocol, baseline store schema,
regression detector, ``repro bench`` CLI gate exits, metrics export.

The detector tests run on synthetic timing series (no real timing in the
assertions), so they are deterministic; the CLI tests run a real but
tiny suite (one program, two cheap stages) against a temp directory.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

import repro.perf.training as training
from repro.machine.params import IPSC860
from repro.obs import tracing
from repro.obs.events import spans_by_name
from repro.perf.bench import baseline
from repro.perf.bench.baseline import (
    BENCH_PREFIX,
    BENCH_SCHEMA,
    BenchInputError,
    BenchValidationError,
    append_run,
    bench_path,
    latest_results,
    load_bench_file,
    load_latest_results,
    new_run,
    validate_bench_file,
)
from repro.perf.bench.profiling import profile_call
from repro.perf.bench.regress import (
    Thresholds,
    compare_results,
    parse_threshold_overrides,
)
from repro.perf.bench.report import render_bench_prometheus, results_to_metrics
from repro.perf.bench.suite import (
    BENCH_SIZES,
    GRAPH_STAGE,
    HANDLE_LAYER,
    RUNNER_LAYER,
    SETUP_LAYER,
    STAGE_NAMES,
    _handle_service,
    _process_pool,
    build_suite,
    run_suite,
)
from repro.perf.bench.timer import Measurement, mad, measure, median
from repro.service.metrics import Metrics
from repro.tool.cli import main as cli_main

from .helpers import counter, load_trace
from .prometheus_parser import parse_prometheus_text
from .summary_grid_validator import validate_summary_grid

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def discover(root: str) -> dict:
    """Every ``BENCH_<label>.json`` file under ``root``, label -> path."""
    out = {}
    for entry in sorted(os.listdir(root)):
        if entry.startswith(BENCH_PREFIX) and entry.endswith(".json"):
            label = entry[len(BENCH_PREFIX):-len(".json")]
            if baseline._LABEL_RE.match(label):
                out[label] = os.path.join(root, entry)
    return out


def _measurement(name, times, peak=1024, warmup=1):
    return Measurement(name=name, times_s=list(times), warmup=warmup,
                       peak_bytes=peak)


# ---------------------------------------------------------------------------
# Timer protocol


class TestTimer:
    def test_median_and_mad(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 9.0]) == 1.0

    def test_measure_counts_warmup_and_reps(self):
        calls = []
        result = measure("t", lambda: calls.append(1), repeats=3,
                         warmup=2, memory=False)
        # 2 warmup + 3 timed, no memory repetition
        assert len(calls) == 5
        assert result.reps == 3
        assert result.warmup == 2
        assert result.peak_bytes == 0

    def test_measure_memory_repetition(self):
        sink = []
        result = measure("t", lambda: sink.append(bytearray(256 * 1024)),
                         repeats=1, warmup=0, memory=True)
        assert result.peak_bytes >= 256 * 1024

    def test_measure_with_fake_timer_is_exact(self):
        ticks = iter([0.0, 1.0, 10.0, 12.0, 20.0, 23.0])
        result = measure("t", lambda: None, repeats=3, warmup=0,
                         memory=False, timer=lambda: next(ticks))
        assert result.times_s == [1.0, 2.0, 3.0]
        assert result.min_s == 1.0
        assert result.median_s == 2.0
        assert result.mad_s == 1.0

    def test_measurement_round_trip(self):
        m = _measurement("x", [0.5, 0.25, 0.75], peak=4096, warmup=2)
        data = m.to_dict()
        back = Measurement.from_dict("x", data)
        assert back.to_dict() == data
        assert back.min_s == 0.25

    def test_measure_rejects_bad_args(self):
        with pytest.raises(ValueError):
            measure("t", lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure("t", lambda: None, warmup=-1)


# ---------------------------------------------------------------------------
# Baseline store


class TestBaselineStore:
    def test_append_creates_and_extends_trajectory(self, tmp_path):
        results = {"stage:parse/adi": _measurement("stage:parse/adi",
                                                   [0.01, 0.02])}
        path = append_run(results, "test", root=str(tmp_path))
        assert path == bench_path("test", str(tmp_path))
        path2 = append_run(results, "test", root=str(tmp_path))
        assert path2 == path
        data = load_bench_file(path)
        assert data["schema"] == BENCH_SCHEMA
        assert [run["run_id"] for run in data["runs"]] == [1, 2]
        assert latest_results(data)["stage:parse/adi"]["min_s"] == 0.01

    def test_trajectory_cap_drops_oldest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(baseline, "MAX_RUNS", 3)
        results = {"b": _measurement("b", [0.01])}
        for _ in range(5):
            append_run(results, "cap", root=str(tmp_path))
        data = load_bench_file(bench_path("cap", str(tmp_path)))
        assert [run["run_id"] for run in data["runs"]] == [3, 4, 5]

    def test_append_creates_missing_root_directory(self, tmp_path):
        root = tmp_path / "nested" / "bench"
        results = {"stage:parse/adi": _measurement("stage:parse/adi",
                                                   [0.01, 0.02])}
        path = append_run(results, "fresh", root=str(root))
        assert load_bench_file(path)["runs"][0]["run_id"] == 1

    def test_discover_finds_labels(self, tmp_path):
        append_run({"b": _measurement("b", [0.01])}, "one",
                   root=str(tmp_path))
        append_run({"b": _measurement("b", [0.01])}, "two",
                   root=str(tmp_path))
        (tmp_path / "not_a_bench.json").write_text("{}")
        assert sorted(discover(str(tmp_path))) == ["one", "two"]

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            bench_path("../evil")

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(schema="nope"), "schema"),
        (lambda d: d.update(runs=[]), "non-empty"),
        (lambda d: d["runs"][0].update(run_id="1"), "run_id"),
        (lambda d: d["runs"][0]["results"].clear(), "results"),
        (lambda d: d["runs"][0]["results"]["b"].pop("min_s"), "min_s"),
        (lambda d: d["runs"][0]["results"]["b"].update(times_s=[1.0]),
         "times_s"),
        (lambda d: d["runs"][0]["results"]["b"].update(peak_bytes=-1),
         "peak_bytes"),
    ])
    def test_validation_rejects_malformed(self, mutate, message):
        data = {
            "schema": BENCH_SCHEMA,
            "label": "ok",
            "runs": [new_run({"b": _measurement("b", [0.01, 0.02])})],
        }
        validate_bench_file(data)  # sane before mutation
        mutate(data)
        with pytest.raises(BenchValidationError, match=message):
            validate_bench_file(data)

    def test_committed_bench_files_validate(self):
        """Schema/round-trip check on every BENCH_*.json at the repo
        root (there is at least the committed baseline)."""
        found = discover(REPO_ROOT)
        assert "baseline" in found, "no committed BENCH_baseline.json"
        for label, path in found.items():
            data = load_bench_file(path)  # validates
            rerendered = json.loads(json.dumps(data))
            validate_bench_file(rerendered)

    def test_committed_baseline_covers_stages_and_programs(self):
        data = load_bench_file(bench_path("baseline", REPO_ROOT))
        results = latest_results(data)
        for program in sorted(BENCH_SIZES):
            for stage in STAGE_NAMES:
                bench_id = f"stage:{stage}/{program}"
                assert bench_id in results, f"missing {bench_id}"
                record = results[bench_id]
                assert record["reps"] >= 3
                assert record["min_s"] > 0
                assert record["mad_s"] >= 0
                assert record["peak_bytes"] > 0
            assert f"e2e/{program}" in results
        assert "e2e/qa-corpus" in results


# ---------------------------------------------------------------------------
# Regression detector (synthetic series)


class TestRegressionDetector:
    BASE = {"b": _measurement("b", [0.100, 0.101, 0.102])}

    def test_injected_2x_slowdown_flagged(self):
        current = {"b": _measurement("b", [0.200, 0.202, 0.201])}
        report = compare_results(self.BASE, current)
        assert not report.ok
        [verdict] = report.regressions
        assert verdict.bench_id == "b"
        assert verdict.ratio == pytest.approx(2.0, rel=0.05)

    def test_noop_rerun_passes(self):
        current = {"b": _measurement("b", [0.101, 0.100, 0.103])}
        report = compare_results(self.BASE, current)
        assert report.ok
        assert report.verdicts[0].status == "ok"

    def test_noisy_series_not_flagged(self):
        # 2x on the min, but the repetitions scatter so widely that the
        # slowdown sits inside the noise band.
        base = {"b": _measurement("b", [0.100, 0.400, 0.900])}
        current = {"b": _measurement("b", [0.200, 0.600, 1.100])}
        report = compare_results(base, current)
        assert report.ok

    def test_sub_jitter_slowdown_ignored(self):
        # 3x ratio but a 20µs absolute delta: below the jitter floor.
        base = {"b": _measurement("b", [0.00001, 0.00001])}
        current = {"b": _measurement("b", [0.00003, 0.00003])}
        report = compare_results(base, current)
        assert report.ok

    def test_improvement_reported_not_failed(self):
        current = {"b": _measurement("b", [0.040, 0.041, 0.040])}
        report = compare_results(self.BASE, current)
        assert report.ok
        assert report.verdicts[0].status == "improved"

    def test_new_and_missing_do_not_fail(self):
        base = {"gone": _measurement("gone", [0.1])}
        current = {"fresh": _measurement("fresh", [0.1])}
        report = compare_results(base, current)
        assert report.ok
        assert {v.status for v in report.verdicts} == {"new", "missing"}

    def test_per_bench_override_loosens_one_threshold(self):
        current = {"b": _measurement("b", [0.200, 0.201, 0.202])}
        thresholds = Thresholds(per_bench={"b": 3.0})
        report = compare_results(self.BASE, current, thresholds)
        assert report.ok
        strict = compare_results(self.BASE, current, Thresholds())
        assert not strict.ok

    def test_report_round_trips_to_dict(self):
        current = {"b": _measurement("b", [0.200, 0.202, 0.201])}
        report = compare_results(self.BASE, current)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is False
        assert data["regressions"] == 1
        assert data["verdicts"][0]["status"] == "regression"

    def test_threshold_override_parsing(self):
        assert parse_threshold_overrides(["a=2.0", "b/c=1.5"]) == {
            "a": 2.0, "b/c": 1.5,
        }
        with pytest.raises(ValueError):
            parse_threshold_overrides(["missing-ratio"])
        with pytest.raises(ValueError):
            parse_threshold_overrides(["a=0.9"])


# ---------------------------------------------------------------------------
# Suite construction (real, but tiny problem sizes)


class TestSuite:
    def test_suite_covers_seven_stages(self):
        cases = build_suite(programs=["tomcatv"], sizes={"tomcatv": 32},
                            include_e2e=False, include_qa=False)
        stages = {c.stage for c in cases}
        # ... and the layout-graph build, a part of selection_ilp
        assert stages == set(STAGE_NAMES) | {GRAPH_STAGE}
        assert len(STAGE_NAMES) == 7
        assert all(c.bench_id.startswith("stage:") for c in cases)

    def test_layout_graph_stage_selects_programs_and_the_hot_loop(self):
        cases = build_suite(programs=["adi"], sizes={"adi": 32},
                            stages=[GRAPH_STAGE])
        assert [c.bench_id for c in cases] == [
            "e2e/adi", "e2e/qa-corpus",
            "stage:layout_graph/adi", "stage:layout_graph/qa-hotloop",
        ]
        results = run_suite(cases[2:], repeats=1, warmup=0, memory=False)
        assert all(m.min_s > 0 for m in results.values())

    def test_alignment_stage_adds_the_tied_generated_case(self):
        cases = build_suite(programs=["tomcatv"], stages=["alignment_ilp"],
                            include_e2e=False)
        assert [c.bench_id for c in cases] == [
            "stage:alignment_ilp/qa-tied", "stage:alignment_ilp/tomcatv",
        ]
        traces = []
        for case in cases:
            tracing.start_trace("test")
            try:
                case.fn()
            finally:
                traces.append(tracing.finish_trace())
        tied, tomcatv = traces
        # the case is what it says: phase1's resolution is handed over on
        # a tie, the two import resolutions are answered by enumeration
        assert [
            (s["attrs"]["name"], s["attrs"]["path"], s["attrs"]["optima"])
            for s in spans_by_name(tied, "alignment.resolve")
        ] == [
            ("phase1", "tie", 6),
            ("import:class1->class0", "direct", 1),
            ("import:class0->class1", "direct", 1),
        ]
        assert len(spans_by_name(tied, "ilp.solve")) == 1
        # ...where tomcatv's, at its bench size, starts no solver
        assert {s["attrs"]["path"] for s in
                spans_by_name(tomcatv, "alignment.resolve")} == {"direct"}
        assert not spans_by_name(tomcatv, "ilp.solve")

    def test_handle_layer_times_the_three_cache_paths(self):
        """...and, since there is one, the served hit, the event log
        record it waits for, and a duplicate pair."""
        cases = build_suite(programs=["adi"], sizes={"adi": 32},
                            stages=[HANDLE_LAYER], include_qa=False)
        assert [c.bench_id for c in cases] == [
            "e2e/adi",
            "layer:eventlog.record/durable",
            "layer:eventlog.record/memory",
        ] + [
            f"layer:service.handle/{path}/adi"
            for path in ("cold-served", "cold", "warm-disk", "warm-mem",
                         "warm-served")
        ] + ["layer:service.join/adi"]
        layer = [c for c in cases if c.kind == "layer"]
        assert not build_suite(programs=["adi"], sizes={"adi": 32},
                               stages=[HANDLE_LAYER], include_e2e=False)
        # any order, any subset: each thunk checks it got its own path
        results = run_suite(layer[::-1] + layer[1:2], repeats=2, warmup=0,
                            memory=False)
        durable, memory, cold_served, cold, disk, mem, served, join = (
            results[c.bench_id].min_s for c in layer
        )
        assert cold > disk and cold > mem > 0
        assert cold_served > served > memory > 0 and durable > 0
        # a duplicate joins the compute in flight: one compute, not two.
        # Counted: each cold request and each duplicate pair is admitted
        # once.  Timed: on the min over more repetitions of the pair.
        _, service = _handle_service("adi")
        admitted = service.admission.describe()["counters"]["admitted"]
        repeats = 6
        pair = run_suite([layer[3], layer[7]], repeats=repeats, warmup=0,
                         memory=False)
        assert service.admission.describe()["counters"]["admitted"] == \
            admitted + 2 * repeats
        cold = min(cold, pair[layer[3].bench_id].min_s)
        join = min(join, pair[layer[7].bench_id].min_s)
        assert join < 1.7 * cold
        # cold is one miss and one store: the answer, nothing beside it
        assert service.cache.entry_count() == {"answer": 1}
        assert service.admission.describe()["counters"]["admitted"] == \
            service.metrics.snapshot()["cache"]["per_stage"]["answer"][
                "misses"] - counter(service.metrics, "requests_joined")
        # the served hit: named program, event log on disk, no ticket
        _, served_service = _handle_service("adi", served=True)
        assert served_service.telemetry.events.root is not None
        tickets = served_service.admission.describe()["counters"]
        layer[6].fn()
        assert served_service.admission.describe()["counters"] == tickets
        # the served miss takes one, and is computed where the default
        # puts it: nobody hands these engines a pool
        layer[2].fn()
        assert served_service.admission.describe()["counters"][
            "admitted"] == tickets["admitted"] + 1
        assert served_service.pool.requested_kind == "serial"
        assert served_service.pool._executor is None

    def test_runner_layer_times_estimation_both_ways(self):
        cases = build_suite(programs=["adi"], sizes={"adi": 32},
                            stages=[RUNNER_LAYER], include_qa=False)
        assert [c.bench_id for c in cases] == [
            "e2e/adi",
            "layer:estimation.runner/in-thread/adi",
            "layer:estimation.runner/process/adi",
        ]
        assert not build_suite(programs=["adi"], sizes={"adi": 32},
                               stages=[RUNNER_LAYER], include_e2e=False)
        # the pool is warm before anything is timed, and is the one pool
        pool = _process_pool()
        assert pool.active_kind == "process" and pool._executor is not None
        tracing.start_trace("test")
        try:
            for case in cases[1:]:
                case.fn()
        finally:
            trace = tracing.finish_trace()
        assert [
            (s["attrs"]["parallel"], s["attrs"]["jobs"])
            for s in spans_by_name(trace, "estimation.fanout")
        ] == [(False, 9), (True, 5)]
        assert len(spans_by_name(trace, "pool:estimate_phase_batch")) == 1
        assert _process_pool() is pool and pool.degradations == 0

    def test_setup_layer_selects_the_cold_process_cases(self):
        cases = build_suite(programs=["adi"], sizes={"adi": 32},
                            stages=[SETUP_LAYER], include_qa=False)
        assert [c.bench_id for c in cases] == [
            "e2e/adi", "layer:setup.first_tie", "layer:setup.import",
            "layer:setup.training_db",
        ]
        assert not build_suite(programs=["adi"], sizes={"adi": 32},
                               stages=[SETUP_LAYER], include_e2e=False)

    def test_training_db_case_reads_the_table_as_a_cold_process(
        self, monkeypatch
    ):
        (case,) = [c for c in build_suite(
            programs=["adi"], sizes={"adi": 32}, stages=[SETUP_LAYER],
            include_qa=False,
        ) if c.bench_id == "layer:setup.training_db"]

        def refuse(*args):
            raise AssertionError("the shipped machine was simulated")

        before = training.cached_training_database(IPSC860)
        monkeypatch.setattr(training, "_microbenchmark", refuse)
        case.fn()
        after = training.cached_training_database(IPSC860)
        assert after is not before  # the cache was emptied first
        assert after.sets == before.sets and \
            after.op_costs == before.op_costs

    def test_suite_ids_are_sorted_and_deterministic(self):
        cases = build_suite(programs=["tomcatv"], sizes={"tomcatv": 32})
        ids = [c.bench_id for c in cases]
        assert ids == sorted(ids)
        again = [c.bench_id for c in build_suite(
            programs=["tomcatv"], sizes={"tomcatv": 32})]
        assert ids == again

    def test_run_suite_produces_measurements(self):
        cases = build_suite(programs=["tomcatv"], sizes={"tomcatv": 32},
                            stages=["parse", "cag_build"],
                            include_e2e=False, include_qa=False)
        results = run_suite(cases, repeats=2, warmup=1, memory=True)
        assert set(results) == {c.bench_id for c in cases}
        for m in results.values():
            assert m.reps == 2
            assert m.min_s > 0
            assert m.peak_bytes > 0

    def test_unknown_stage_or_program_rejected(self):
        with pytest.raises(ValueError, match="unknown stages"):
            build_suite(programs=["adi"], stages=["nope"])
        with pytest.raises(ValueError, match="unknown program"):
            build_suite(programs=["nope"])


# ---------------------------------------------------------------------------
# Profiling hooks


class TestProfiling:
    def test_profile_attaches_hot_functions(self):
        def workload():
            return sorted(range(2000), key=lambda x: -x)

        result = profile_call("w", workload, limit=5)
        assert result.hot, "no hot functions captured"
        assert len(result.hot) <= 5
        assert result.total_s >= 0
        data = result.to_dict()
        assert data["hot"][0]["cumtime_s"] >= data["hot"][-1]["cumtime_s"]

    def test_profile_records_span_event(self):
        from repro.obs import tracing

        tracing.start_trace("t")
        try:
            profile_call("w", lambda: sum(range(100)))
        finally:
            trace = tracing.finish_trace()
        spans = [s for s in trace["spans"] if s["name"] == "bench.profile"]
        assert spans
        events = [e for e in spans[0]["events"]
                  if e["name"] == "profile.hot"]
        assert events and events[0]["attrs"]["functions"]


# ---------------------------------------------------------------------------
# Metrics / Prometheus export


class TestBenchMetricsExport:
    RESULTS = {
        "stage:parse/adi": _measurement("stage:parse/adi",
                                        [0.010, 0.012, 0.011]),
        "e2e/adi": _measurement("e2e/adi", [0.5, 0.6]),
    }

    def test_results_fold_into_bench_seconds(self):
        metrics = results_to_metrics(self.RESULTS)
        snap = metrics.snapshot()
        assert snap["bench_seconds"]["stage:parse/adi"]["count"] == 3
        assert snap["bench_seconds"]["e2e/adi"]["count"] == 2

    def test_prometheus_exposition_parses(self):
        text = render_bench_prometheus(self.RESULTS)
        samples = parse_prometheus_text(text)
        names = {name for name, _ in samples}
        assert "repro_bench_seconds_bucket" in names
        assert samples[(
            "repro_bench_seconds_count", (("bench", "e2e/adi"),)
        )] == 2.0
        assert samples[(
            "repro_bench_min_seconds", (("bench", "stage:parse/adi"),)
        )] == pytest.approx(0.010)
        assert samples[(
            "repro_bench_peak_bytes", (("bench", "e2e/adi"),)
        )] == 1024.0

    def test_exposition_claims_no_service(self):
        """A bench run measured no uptime, no requests, no cache: its
        exposition is the four bench families and nothing else."""
        text = render_bench_prometheus(self.RESULTS)
        families = {line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE ")}
        assert families == {
            "repro_bench_seconds", "repro_bench_seconds_quantile",
            "repro_bench_min_seconds", "repro_bench_peak_bytes",
        }
        assert "repro_uptime_seconds" not in text
        # one header per family: both gauges are rows of the one table
        assert text.count("# HELP ") == 4

    def test_observe_bench_in_service_metrics(self):
        metrics = Metrics()
        metrics.observe_bench("b", 0.25)
        series = metrics.snapshot()["bench_seconds"]["b"]
        # the same sketch-backed series as a stage or a span
        assert series["count"] == 1
        assert series["min"] == series["max"] == 0.25
        assert series["quantiles"]["p50"] == 0.25
        assert series["buckets"]["+Inf"] == 1


# ---------------------------------------------------------------------------
# CLI: run / compare / gate / profile (tiny suite, temp root)


def _run_args(tmp_path, *extra, repeats=2):
    return [
        "--log-level", "error", "bench", *extra,
        "--programs", "tomcatv",
        "--stages", "parse", "alignment_ilp",
        "--repeats", str(repeats), "--warmup", "1",
        "--no-e2e", "--no-qa", "--root", str(tmp_path),
    ]


#: repeats behind both runs of the real no-op rerun.  The gate compares
#: minima; beside a process burning a core, 15 passed ten consecutive
#: runs where 5 did not.  No count removes the rest: a shared two-core
#: VM's speed can move by ~1.7x for seconds at a time, so a rerun can
#: still land in a slow spell its baseline missed (the verbatim-copy
#: twin below is the deterministic check of the gate itself)
NOOP_RERUN_REPEATS = 15


class TestBenchCLI:
    def test_run_writes_trajectory(self, tmp_path, capsys):
        rc = cli_main(_run_args(tmp_path, "run", "--label", "t"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage:alignment_ilp/tomcatv" in out
        data = load_bench_file(bench_path("t", str(tmp_path)))
        assert len(data["runs"]) == 1
        assert data["runs"][0]["meta"]["repeats"] == 2

    def test_run_json_output(self, tmp_path, capsys):
        rc = cli_main(_run_args(tmp_path, "run", "--label", "t",
                                "--json"))
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert "stage:parse/tomcatv" in record["results"]

    def test_gate_passes_on_noop_rerun(self, tmp_path, capsys):
        assert cli_main(_run_args(
            tmp_path, "run", "--label", "t", repeats=NOOP_RERUN_REPEATS
        )) == 0
        capsys.readouterr()
        rc = cli_main(_run_args(
            tmp_path, "gate", "--baseline", "t", repeats=NOOP_RERUN_REPEATS
        ))
        assert rc == 0
        assert "gate: ok" in capsys.readouterr().out

    def test_gate_passes_on_a_verbatim_copy(self, tmp_path, capsys):
        """The no-op rerun's deterministic twin: a recorded run gated
        against a byte-for-byte copy of its own file, so every ratio is
        exactly 1.0 whatever the machine is doing."""
        assert cli_main(_run_args(tmp_path, "run", "--label", "t")) == 0
        current = tmp_path / "copy" / "BENCH_t.json"
        current.parent.mkdir()
        shutil.copyfile(bench_path("t", str(tmp_path)), current)
        capsys.readouterr()
        rc = cli_main(_run_args(
            tmp_path, "gate", "--baseline", "t", "--current", str(current)
        ))
        assert rc == 0
        assert "gate: ok" in capsys.readouterr().out

    def test_gate_fails_on_seeded_alignment_regression(self, tmp_path,
                                                       capsys):
        """Acceptance: a 2x slowdown injected into the alignment-ILP
        stage must trip the gate."""
        assert cli_main(_run_args(tmp_path, "run", "--label", "t")) == 0
        path = bench_path("t", str(tmp_path))
        # Gate the recorded run against a halved copy of itself: ratio
        # is exactly 2.0 regardless of machine load, and a zeroed MAD on
        # the doctored bench keeps the noise band from masking it.
        current = str(tmp_path / "current.json")
        cur_data = json.load(open(path))
        # Hand-edited files drop the integrity stamp (absent stamp ->
        # schema-only validation, the documented escape hatch).
        cur_data.pop("integrity", None)
        cur_rec = cur_data["runs"][-1]["results"]
        cur_rec["stage:alignment_ilp/tomcatv"]["mad_s"] = 0.0
        json.dump(cur_data, open(current, "w"))
        data = json.load(open(path))
        data.pop("integrity", None)
        record = data["runs"][-1]["results"]["stage:alignment_ilp/tomcatv"]
        for key in ("min_s", "median_s", "mean_s"):
            record[key] /= 2.0
        record["times_s"] = [t / 2.0 for t in record["times_s"]]
        record["mad_s"] = 0.0
        json.dump(data, open(path, "w"))
        capsys.readouterr()
        rc = cli_main(_run_args(
            tmp_path, "gate", "--baseline", "t", "--current", current
        ))
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION stage:alignment_ilp/tomcatv" in out

    def test_gate_against_recorded_current_file(self, tmp_path, capsys):
        assert cli_main(_run_args(tmp_path, "run", "--label", "t")) == 0
        current = str(tmp_path / "BENCH_t.json")
        rc = cli_main(_run_args(
            tmp_path, "gate", "--baseline", "t", "--current", current
        ))
        # identical files: every ratio is exactly 1.0
        assert rc == 0
        capsys.readouterr()
        report_rc = cli_main(_run_args(
            tmp_path, "compare", "--baseline", "t", "--current", current,
            "--json",
        ))
        assert report_rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_profile_subcommand(self, tmp_path, capsys):
        rc = cli_main(_run_args(tmp_path, "profile", "--bench",
                                "stage:parse", "--limit", "3"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage:parse/tomcatv" in out
        assert "cumtime" in out

    def test_run_emits_trace_and_prometheus(self, tmp_path, capsys):
        trace_path = str(tmp_path / "bench.trace.json")
        prom_path = str(tmp_path / "bench.prom")
        rc = cli_main(_run_args(
            tmp_path, "run", "--label", "t", "--no-write",
            "--trace", trace_path, "--prometheus", prom_path,
        ))
        assert rc == 0

        trace = load_trace(trace_path)
        names = {s["name"] for s in trace["spans"]}
        assert {"bench.prepare", "bench.case", "bench.measure"} <= names
        samples = parse_prometheus_text(open(prom_path).read())
        assert any(name == "repro_bench_seconds_bucket"
                   for name, _ in samples)


# ---------------------------------------------------------------------------
# CLI: missing / malformed compare inputs (typed error, exit 2)


class TestBenchInputErrors:
    def test_load_latest_results_missing_file(self, tmp_path):
        path = str(tmp_path / "BENCH_none.json")
        with pytest.raises(BenchInputError) as err:
            load_latest_results(path)
        assert err.value.kind == "missing"
        assert err.value.path == path
        assert "repro bench run" in str(err.value)

    def test_load_latest_results_invalid_json(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchInputError) as err:
            load_latest_results(str(path), role="current")
        assert err.value.kind == "invalid-json"
        assert "current" in str(err.value)

    def test_load_latest_results_schema_mismatch(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(
            json.dumps({"schema": "other/v0", "label": "bad", "runs": []}),
            encoding="utf-8",
        )
        with pytest.raises(BenchInputError) as err:
            load_latest_results(str(path))
        assert err.value.kind == "schema"
        assert BENCH_SCHEMA in str(err.value)

    def test_load_latest_results_tampered_integrity(self, tmp_path):
        path = append_run(
            {"b": _measurement("b", [0.1, 0.2])}, "t", root=str(tmp_path)
        )
        data = json.load(open(path))
        data["runs"][0]["results"]["b"]["min_s"] += 1.0  # stamp now stale
        json.dump(data, open(path, "w"))
        with pytest.raises(BenchInputError) as err:
            load_latest_results(path)
        assert err.value.kind == "corrupt"

    def test_compare_missing_baseline_exits_2(self, tmp_path, capsys):
        rc = cli_main(_run_args(tmp_path, "compare", "--baseline",
                                "nosuch"))
        assert rc == 2
        assert "no such baseline file" in capsys.readouterr().err

    def test_gate_missing_baseline_exits_2(self, tmp_path):
        rc = cli_main(_run_args(tmp_path, "gate", "--baseline", "nosuch"))
        assert rc == 2

    def test_gate_schema_mismatch_emits_json_error_object(self, tmp_path,
                                                          capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"schema": "x"}), encoding="utf-8")
        rc = cli_main(_run_args(tmp_path, "gate", "--baseline", str(bad),
                                "--json"))
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "bench-input/schema"
        assert payload["error"]["path"] == str(bad)

    def test_compare_bad_current_exits_2(self, tmp_path, capsys):
        append_run(
            {"b": _measurement("b", [0.1, 0.2])}, "t", root=str(tmp_path)
        )
        bad = tmp_path / "current.json"
        bad.write_text("{", encoding="utf-8")
        rc = cli_main(_run_args(tmp_path, "compare", "--baseline", "t",
                                "--current", str(bad)))
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Summary-grid consistency (satellite)


class TestSummaryGrid:
    def _payload(self):
        return [{
            "case": "adi/real/200/p2",
            "tool_optimal": False,
            "loss_percent": 10.0,
            "best": "row",
            "schemes": {
                "row": {"est_us": 90.0, "meas_us": 100.0},
                "column": {"est_us": 130.0, "meas_us": 140.0},
                "tool": {"est_us": 90.0, "meas_us": 110.0},
            },
        }]

    def test_valid_payload_builds_rows(self):
        [row] = validate_summary_grid(self._payload())
        assert row.program == "adi"
        assert row.cases == 1
        assert row.tool_optimal == 0
        assert row.worst_loss_percent == pytest.approx(10.0)
        assert row.best_scheme_counts == {"row": 1}
        assert row.rankings_correct == 1

    @pytest.mark.parametrize("mutate", [
        lambda p: p[0].update(best="column"),       # not measured-best
        lambda p: p[0].update(loss_percent=55.0),   # inconsistent loss
        lambda p: p[0].update(tool_optimal=True),   # optimal with loss
        lambda p: p[0]["schemes"].pop("tool"),      # tool row required
        lambda p: p[0].update(case="nocase"),       # malformed label
    ])
    def test_inconsistent_payload_rejected(self, mutate):
        payload = self._payload()
        mutate(payload)
        with pytest.raises(ValueError):
            validate_summary_grid(payload)

    def test_committed_grid_consistent_with_report(self):
        from repro.tool.report import format_summary

        path = os.path.join(REPO_ROOT, "results", "summary_grid.json")
        payload = json.load(open(path))
        rows = validate_summary_grid(payload)
        assert sum(r.cases for r in rows) == len(payload)
        table = format_summary(rows)
        assert "TOTAL" in table
        for row in rows:
            assert row.program in table
