"""The metrics spine: one snapshot tree, one sketch type behind every
distribution in it, one table (``obs.prometheus.FAMILIES``) declaring it
for exposition.

- the golden: ``tests/golden/snapshot.json`` rendered by the renderer as
  it was *before* the table (hand-enumerated families, PR 19) is checked
  in as ``tests/golden/exposition.prom``; the table walk must reproduce
  it byte for byte, ``repro_gauge`` lines and the rows added since
  (``ADDED_SINCE_GOLDEN``, each pinned to its three lines) aside;
- through ``Metrics``: moments exact, every ladder rung's cumulative
  count exact, quantiles within the sketch's error bound;
- a live service's scrape names only table rows, and the README's
  "Exposed metrics" table is the table.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import pytest

from repro.obs.prometheus import (
    FAMILIES,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.window import LADDER, LogBucketSketch
from repro.service.metrics import Metrics
from repro.service.server import LayoutService
from repro.tool.top import format_top

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

REQUEST = {"op": "analyze", "program": "adi", "size": 32, "procs": 4,
           "maxiter": 2}

#: the four streams the fixed-bucket histogram misread (medians of a
#: sub-ms stage, a warm stage, a cold paper program, a slow request)
STREAM_MEDIANS_S = (30e-6, 2e-3, 20e-3, 0.3)


def _stream(median_s: float, n: int = 20000) -> list:
    rng = random.Random(f"stream-{median_s}")
    return [rng.lognormvariate(math.log(median_s), 0.6) for _ in range(n)]


def _exact_quantile(values: list, q: float) -> float:
    """The sketch's rank definition on the raw values."""
    ordered = sorted(values)
    return ordered[max(int(math.ceil(q * len(ordered))), 1) - 1]


#: rows added to the table after the golden was taken; on the golden
#: snapshot each renders its HELP and TYPE lines and one 0 sample (a
#: missing leaf under a present section)
ADDED_SINCE_GOLDEN = ("repro_connections_total",)


def _family_names(text: str) -> set:
    return set(re.findall(r"^# TYPE (\S+) ", text, flags=re.M))


def _family_of(line: str) -> str:
    if line.startswith("# "):
        return line.split()[2]
    return re.match(r"[^{\s]+", line).group(0)


# ---------------------------------------------------------------------------
# (a) the golden


class TestGoldenExposition:
    def test_table_walk_reproduces_the_hand_written_renderer(self):
        snapshot = json.loads((GOLDEN / "snapshot.json").read_text())
        golden = (GOLDEN / "exposition.prom").read_text()
        assert 'repro_gauge{name="admission_limit"} 8' in golden
        expected = "".join(
            line for line in golden.splitlines(keepends=True)
            if "repro_gauge" not in line
        )
        rendered = render_prometheus(snapshot).splitlines(keepends=True)
        assert "".join(
            line for line in rendered
            if _family_of(line) not in ADDED_SINCE_GOLDEN
        ) == expected
        added = [line for line in rendered
                 if _family_of(line) in ADDED_SINCE_GOLDEN]
        assert [line for line in added if not line.startswith("#")] == [
            f"{name} 0\n" for name in ADDED_SINCE_GOLDEN
        ]
        assert len(added) == 3 * len(ADDED_SINCE_GOLDEN)

    def test_golden_covers_every_service_family(self):
        # every row but the bench harness's two gauges (not a service
        # signal) and pool_max_workers (null in the snapshot: no sample)
        golden = _family_names((GOLDEN / "exposition.prom").read_text())
        absent = {f.name for f in FAMILIES} - golden
        assert absent == {"repro_bench_min_seconds",
                          "repro_bench_peak_bytes",
                          "repro_pool_max_workers",
                          *ADDED_SINCE_GOLDEN}

    def test_a_family_needs_its_section(self):
        assert render_prometheus({}) == "\n"
        only_pool = render_prometheus({"pool": {"active_kind": "thread"}})
        assert _family_names(only_pool) == {
            "repro_pool_degradations_total", "repro_pool_active_kind",
            "repro_pool_max_workers",
        }
        # a missing leaf under a present section reads 0
        assert "repro_pool_degradations_total 0\n" in only_pool
        assert 'repro_pool_active_kind{kind="thread"} 1\n' in only_pool


# ---------------------------------------------------------------------------
# (b) one sketch behind every series, read through Metrics


class TestSeriesThroughMetrics:
    @pytest.mark.parametrize("median_s", STREAM_MEDIANS_S)
    def test_moments_rungs_and_quantiles(self, median_s):
        values = _stream(median_s)
        metrics = Metrics()
        for value in values:
            metrics.observe_stage("s", value)
        snap = metrics.snapshot()["stage_seconds"]["s"]
        assert snap["count"] == len(values)
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["mean"] == pytest.approx(sum(values) / len(values))
        assert snap["min"] == min(values) and snap["max"] == max(values)
        # every rung is one of the sketch's own bucket bounds, so its
        # cumulative count is exact
        assert list(snap["buckets"]) == [le for le, _ in LADDER] + ["+Inf"]
        for le, index in LADDER:
            rung = LogBucketSketch.bucket_upper(index)
            assert snap["buckets"][le] == sum(v <= rung for v in values), le
        assert snap["buckets"]["+Inf"] == snap["count"]
        # the fixed-bucket histogram read these +13 .. +170% high
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert snap["quantiles"][key] == pytest.approx(
                _exact_quantile(values, q), rel=0.10
            ), key

    def test_the_three_families_share_one_observe(self):
        metrics = Metrics()
        metrics.observe_stage("x", 0.002)
        metrics.observe_span("x", 0.004)
        metrics.observe_bench("x", 0.008)
        snap = metrics.snapshot()
        for family, value in (("stage_seconds", 0.002),
                              ("span_seconds", 0.004),
                              ("bench_seconds", 0.008)):
            series = snap[family]["x"]
            assert set(series) == {"count", "sum", "mean", "min", "max",
                                   "buckets", "quantiles"}
            assert series["count"] == 1 and series["max"] == value

    def test_scraped_quantiles_of_a_known_stream(self):
        values = _stream(20e-3, n=5000)
        metrics = Metrics()
        for value in values:
            metrics.observe_stage("known", value)
            metrics.observe_span("known", value)
        samples = parse_prometheus_text(
            render_prometheus(metrics.snapshot())
        )
        for family, label in (("repro_stage_seconds_quantile", "stage"),
                              ("repro_span_seconds_quantile", "span")):
            for q in ("0.5", "0.95", "0.99"):
                scraped = samples[family, tuple(sorted(
                    {label: "known", "quantile": q}.items()
                ))]
                assert scraped == pytest.approx(
                    _exact_quantile(values, float(q)), rel=0.10
                )


# ---------------------------------------------------------------------------
# the live tree: nothing copied, nothing outside the table


class TestLiveSnapshot:
    @pytest.fixture(scope="class")
    def live(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("spine-cache"))
        with LayoutService(cache_dir=cache_dir) as service:
            assert service.handle(dict(REQUEST))["ok"]   # compute
            assert service.handle(dict(REQUEST))["ok"]   # hit
            assert service.handle({"op": "ping"})["ok"]
            return service.stats(), service.prometheus()

    def test_top_level_keys(self, live):
        stats, _ = live
        assert set(stats) == {
            "uptime_seconds", "counters", "cache", "stage_seconds",
            "span_seconds", "bench_seconds", "window", "admission",
            "telemetry", "pool",
        }
        assert set(stats["cache"]) == {
            "hits", "misses", "per_stage", "disk_entries", "dir",
            "breaker", "quarantined_total",
        }
        assert stats["cache"]["disk_entries"] == {"answer": 1}

    def test_every_scraped_family_is_a_table_row(self, live):
        _, text = live
        scraped = _family_names(text)
        assert scraped <= {family.name for family in FAMILIES}
        assert "repro_gauge" not in text
        # everything a live service has to say: the bench rows and the
        # null pool_max_workers are the only silent ones (and the
        # sampler's per-reason row until it keeps a trace: a warm
        # process computes adi too fast to count as slow)
        silent = {f.name for f in FAMILIES} - scraped
        assert silent - {"repro_trace_kept_by_reason_total"} == {
            "repro_bench_seconds", "repro_bench_seconds_quantile",
            "repro_bench_min_seconds", "repro_bench_peak_bytes",
            "repro_pool_max_workers",
        }

    def test_scrape_round_trips_and_sits_on_the_ladder(self, live):
        _, text = live
        samples = parse_prometheus_text(text)
        sample_lines = [line for line in text.splitlines()
                        if line and not line.startswith("#")]
        assert len(samples) == len(sample_lines)
        rungs = {dict(labels)["le"] for name, labels in samples
                 if name == "repro_stage_seconds_bucket"}
        assert rungs == {le for le, _ in LADDER} | {"+Inf"}

    def test_top_page_carries_stage_timings(self, live):
        stats, _ = live
        page = format_top(stats)
        assert "stage timings (lifetime)" in page
        block = page.split("stage timings (lifetime)")[1].split("\n\n")[0]
        for stage in stats["stage_seconds"]:
            assert f"  {stage:<13s}" in block
        # no series, no block
        assert "stage timings" not in format_top(
            {"counters": {}, "window": {"ops": {}}}
        )


# ---------------------------------------------------------------------------
# the mechanisms are gone, not shimmed


class TestOneOfEach:
    SOURCES = sorted((ROOT / "src").rglob("*.py"))

    def _grep(self, pattern: str) -> list:
        regex = re.compile(pattern)
        return [
            f"{path.relative_to(ROOT)}:{number}"
            for path in self.SOURCES
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if regex.search(line)
        ]

    def test_removed_mechanisms_stay_removed(self):
        assert self._grep(
            r"class Histogram|DEFAULT_BUCKETS|set_gauge|\"gauges\""
            r"|repro_gauge|format_service_stats"
        ) == []

    def test_one_distribution_type_one_exposition_writer(self):
        assert [hit.split(":")[0] for hit in self._grep(r"def quantile\(")] \
            == ["src/repro/obs/window.py"]
        writers = {hit.split(":")[0] for hit in self._grep(r"# (HELP|TYPE) ")}
        assert writers == {"src/repro/obs/prometheus.py"}


# ---------------------------------------------------------------------------
# the README's "Exposed metrics" table is generated from FAMILIES

BEGIN = "<!-- exposed-metrics:begin (generated from obs.prometheus.FAMILIES) -->"
END = "<!-- exposed-metrics:end -->"


def families_markdown() -> str:
    rows = [
        "| family | type | labels | help | snapshot path |",
        "|---|---|---|---|---|",
    ]
    for family in FAMILIES:
        paths = ", ".join(f"`{path}`" for _, path in family.paths)
        labels = ", ".join(f"`{label}`" for label in family.labels)
        rows.append(
            f"| `{family.name}` | {family.type} | {labels} "
            f"| {family.help} | {paths} |"
        )
    return "\n".join(rows)


class TestReadmeTable:
    def test_readme_table_is_the_families_table(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert BEGIN in readme and END in readme
        checked_in = readme.split(BEGIN)[1].split(END)[0].strip()
        assert checked_in == families_markdown(), (
            "README 'Exposed metrics' drifted from FAMILIES; the table "
            "should read:\n" + families_markdown()
        )

    def test_family_names_are_unique_and_typed(self):
        names = [family.name for family in FAMILIES]
        assert len(names) == len(set(names))
        assert {family.type for family in FAMILIES} == {
            "counter", "gauge", "histogram"
        }
