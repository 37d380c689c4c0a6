"""Prometheus text exposition of the service observability snapshot.

The ``stats`` snapshot tree (:meth:`LayoutService.stats`) is the one
place a signal lives; :data:`FAMILIES` is the one place it is declared
for exposition — name, type, help, where in the tree, which label — and
:func:`render_prometheus` is a walk over that table.  A family is
emitted iff the top-level section its path starts in is present, so a
snapshot that carries only ``bench_seconds`` (the ``repro bench``
harness) claims nothing about a service; under a present section a
missing leaf reads 0 and a ``None`` one emits no sample.  The output is
what the service's ``metrics`` protocol op, ``stats --prometheus`` and
``bench run --prometheus`` print.

Quantiles cannot ride on a histogram family in the text format, so they
are sibling ``*_quantile`` gauge families
(``repro_stage_seconds_quantile{stage="frontend",quantile="0.95"}``),
read from the same :class:`~repro.obs.window.LogBucketSketch` that
counted the buckets.

:func:`parse_prometheus_text` is a small reference parser used by the
tests to prove the exposition stays parseable.
"""

from __future__ import annotations

import math
import re
from typing import (
    Any, Dict, Iterator, List, Mapping, NamedTuple, Tuple, Union,
)

_METRIC_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: quantiles exposed for every distribution
QUANTILE_KEYS = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

#: the candidates of the one-hot ``repro_pool_active_kind``
POOL_KINDS = ("process", "thread", "serial")

#: how a breaker's state reads as a number
BREAKER_STATE = {"closed": 0.0, "half-open": 0.5, "open": 1.0}


class Family(NamedTuple):
    """One exposition family and where its samples sit in the snapshot.

    ``path`` is dotted; a ``*`` key fans out over the section's sorted
    keys and binds ``label`` to each.  A tuple of paths reads several
    places; a ``{label value: path}`` mapping enumerates ``label``.
    ``label`` written ``breaker=name`` takes its value from the leaf's
    sibling ``name``.  ``shape`` says how the leaf becomes samples:
    ``value`` as is, ``sketch`` a series' buckets / sum / count,
    ``quantiles`` one sample per :data:`QUANTILE_KEYS`, ``one-hot`` a
    1 beside the matching :data:`POOL_KINDS`, ``state`` through
    :data:`BREAKER_STATE`."""

    name: str
    type: str
    help: str
    path: Union[str, Tuple[str, ...], Mapping[str, str]]
    label: str = ""
    shape: str = "value"

    @property
    def labels(self) -> Tuple[str, ...]:
        """Every label name a sample of this family carries."""
        own = (self.label.partition("=")[0],) if self.label else ()
        extra = {"sketch": ("le",), "quantiles": ("quantile",)}
        return own + extra.get(self.shape, ())

    @property
    def paths(self) -> Tuple[Tuple[Any, str], ...]:
        """``(enumerated label value or None, dotted path)`` pairs."""
        if isinstance(self.path, str):
            return ((None, self.path),)
        if isinstance(self.path, Mapping):
            return tuple(self.path.items())
        return tuple((None, path) for path in self.path)


def _series(name: str, what: str, section: str, label: str) -> List[Family]:
    """A sketch section's histogram family and its quantile sibling."""
    return [
        Family(name, "histogram", f"Wall time of {what} (seconds)",
               f"{section}.*", label, "sketch"),
        Family(f"{name}_quantile", "gauge",
               f"Bucket-derived quantiles of {name}",
               f"{section}.*.quantiles", label, "quantiles"),
    ]


_BREAKERS = ("pool.breaker", "cache.breaker")

FAMILIES: Tuple[Family, ...] = (
    Family("repro_uptime_seconds", "gauge",
           "Seconds since the metrics registry was created",
           "uptime_seconds"),
    Family("repro_counter_total", "counter", "Service event counters",
           "counters.*", "name"),
    # first-class beside the generic counter row, to alert on directly
    Family("repro_degraded_total", "counter",
           "Requests answered with a labeled-degraded (non-optimal) result",
           "counters.requests_degraded"),
    Family("repro_requests_joined_total", "counter",
           "Requests answered by waiting for another's compute of the "
           "same answer key", "counters.requests_joined"),
    Family("repro_connections_total", "counter",
           "Client connections accepted (a client keeps one per thread "
           "across its requests)", "counters.connections_total"),
    Family("repro_cache_hits_total", "counter",
           "Stage cache hits (all stages)", "cache.hits"),
    Family("repro_cache_misses_total", "counter",
           "Stage cache misses (all stages)", "cache.misses"),
    Family("repro_stage_cache_hits_total", "counter",
           "Stage cache hits per stage", "cache.per_stage.*.hits", "stage"),
    Family("repro_stage_cache_misses_total", "counter",
           "Stage cache misses per stage", "cache.per_stage.*.misses",
           "stage"),
    Family("repro_cache_disk_entries", "gauge",
           "Persisted cache entries per stage", "cache.disk_entries.*",
           "stage"),
    *_series("repro_stage_seconds", "pipeline stages", "stage_seconds",
             "stage"),
    *_series("repro_span_seconds", "trace spans", "span_seconds", "span"),
    *_series("repro_bench_seconds", "benchmark repetitions",
             "bench_seconds", "bench"),
    Family("repro_bench_min_seconds", "gauge", "Min-of-N benchmark time",
           "bench.*.min_s", "bench"),
    Family("repro_bench_peak_bytes", "gauge",
           "Peak allocation delta of one repetition",
           "bench.*.peak_bytes", "bench"),
    # the sliding windows: what the series above never forget, these do
    Family("repro_window_qps", "gauge",
           "Requests per second over the sliding window, per op",
           "window.ops.*.full.qps", "op"),
    Family("repro_window_requests", "gauge",
           "Requests observed inside the sliding window, per op",
           "window.ops.*.full.count", "op"),
    Family("repro_window_error_rate", "gauge",
           "Error fraction over the sliding window, per op",
           "window.ops.*.full.error_rate", "op"),
    Family("repro_window_degraded_rate", "gauge",
           "Labeled-degraded fraction over the sliding window, per op",
           "window.ops.*.full.degraded_rate", "op"),
    Family("repro_window_seconds_quantile", "gauge",
           "Sketch-derived latency quantiles over the sliding window",
           "window.ops.*.full.quantiles", "op", "quantiles"),
    Family("repro_eventlog_events_total", "counter",
           "Events written to the structured event log",
           "telemetry.events.events_total"),
    Family("repro_eventlog_rotations_total", "counter",
           "Event-log segment rotations", "telemetry.events.rotations_total"),
    Family("repro_eventlog_bad_lines_total", "counter",
           "Corrupt or truncated event-log lines skipped on read",
           "telemetry.events.bad_lines_total"),
    Family("repro_eventlog_syncs_total", "counter",
           "fsyncs of the event log (each covers a burst of lines)",
           "telemetry.events.syncs_total"),
    Family("repro_eventlog_unsynced_lines", "gauge",
           "Event-log lines flushed to the OS that no fsync covers yet",
           "telemetry.events.unsynced_lines"),
    Family("repro_trace_kept_total", "counter",
           "Traces retained by the tail sampler",
           "telemetry.sampler.kept_total"),
    Family("repro_trace_dropped_total", "counter",
           "Traces discarded by the tail sampler",
           "telemetry.sampler.dropped_total"),
    Family("repro_trace_kept_by_reason_total", "counter",
           "Traces retained by the tail sampler, per retention reason",
           "telemetry.sampler.kept_by_reason.*", "reason"),
    Family("repro_pool_degradations_total", "counter",
           "Worker pool degradations (process -> thread -> serial)",
           "pool.degradations"),
    Family("repro_pool_active_kind", "gauge",
           "1 for the worker pool kind currently active",
           "pool.active_kind", "kind", "one-hot"),
    Family("repro_pool_max_workers", "gauge", "Configured worker count",
           "pool.max_workers"),
    Family("repro_breaker_state", "gauge",
           "Circuit breaker state (0 closed, 0.5 half-open, 1 open)",
           tuple(f"{b}.state" for b in _BREAKERS), "breaker=name", "state"),
    Family("repro_breaker_opens_total", "counter",
           "Times each circuit breaker tripped open",
           tuple(f"{b}.opens_total" for b in _BREAKERS), "breaker=name"),
    Family("repro_breaker_rejections_total", "counter",
           "Calls rejected by an open circuit breaker",
           tuple(f"{b}.rejections_total" for b in _BREAKERS),
           "breaker=name"),
    Family("repro_cache_quarantined_total", "counter",
           "Corrupt cache entries moved aside (self-healing)",
           "cache.quarantined_total"),
    Family("repro_admission_in_flight", "gauge",
           "Requests currently admitted and executing",
           "admission.in_flight"),
    Family("repro_admission_queue_depth", "gauge",
           "Requests waiting in the bounded admission queue",
           "admission.queue_depth"),
    Family("repro_admission_limit", "gauge",
           "Current AIMD concurrency limit", "admission.limiter.limit"),
    Family("repro_admission_draining", "gauge",
           "1 while the service refuses new work to drain",
           "admission.draining"),
    Family("repro_admission_brownout", "gauge",
           "1 while admitted requests run with a clamped "
           "(labeled-degraded) budget", "admission.brownout"),
    Family("repro_admission_shed_total", "counter",
           "Requests shed with a typed overloaded error, by reason",
           {"deadline": "admission.counters.shed_deadline",
            "queue-full": "admission.counters.shed_queue_full",
            "wait-timeout": "admission.counters.shed_wait_timeout"},
           "reason"),
    Family("repro_admission_rejected_draining_total", "counter",
           "Requests refused with a typed shutting-down error",
           "admission.counters.rejected_draining"),
    Family("repro_admission_brownout_admitted_total", "counter",
           "Requests admitted under brownout (clamped budget)",
           "admission.counters.brownout_admitted"),
    Family("repro_admission_limit_changes_total", "counter",
           "AIMD limit adjustments, by direction",
           {"increase": "admission.limiter.increases_total",
            "decrease": "admission.limiter.decreases_total"}, "direction"),
)


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: Any) -> str:
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _sample(name: str, labels: Mapping[str, Any], value: Any) -> str:
    inner = ",".join(
        f'{key}="{_escape(labels[key])}"' for key in sorted(labels)
    )
    return f"{name}{'{' + inner + '}' if inner else ''} {_fmt_value(value)}"


def _leaves(
    node: Mapping[str, Any], keys: List[str], label: str,
    labels: Dict[str, Any],
) -> Iterator[Tuple[Dict[str, Any], Mapping[str, Any], Any]]:
    """Every ``(labels, section, leaf)`` that ``keys`` reaches under
    ``node``; a ``*`` key binds ``label`` to each key it fans out over."""
    key, rest = keys[0], keys[1:]
    if key == "*":
        children = [({**labels, label: k}, v) for k, v in sorted(node.items())]
    else:
        children = [(labels, node.get(key, 0))]
    for child_labels, child in children:
        if not rest:
            yield child_labels, node, child
        elif isinstance(child, Mapping):
            yield from _leaves(child, rest, label, child_labels)


def _samples(
    family: Family, stats: Mapping[str, Any]
) -> Iterator[Tuple[str, Dict[str, Any], Any]]:
    """``(suffix, labels, value)`` of every sample of one family."""
    label, _, sibling = family.label.partition("=")
    for fixed, path in family.paths:
        keys = path.split(".")
        if keys[0] not in stats:
            continue
        enumerated = {} if fixed is None else {label: fixed}
        for labels, section, leaf in _leaves(stats, keys, label, enumerated):
            if leaf is None:
                continue
            if sibling:
                labels = {**labels, label: section.get(sibling, "")}
            if family.shape == "sketch":
                for le, cumulative in leaf.get("buckets", {}).items():
                    yield "_bucket", {**labels, "le": le}, cumulative
                yield "_sum", labels, leaf.get("sum", 0.0)
                yield "_count", labels, leaf.get("count", 0)
            elif family.shape == "quantiles":
                for quantile, key in QUANTILE_KEYS:
                    if leaf.get(key) is not None:
                        yield "", {**labels, "quantile": quantile}, leaf[key]
            elif family.shape == "one-hot":
                for kind in POOL_KINDS:
                    yield "", {**labels, label: kind}, int(leaf == kind)
            elif family.shape == "state":
                yield "", labels, BREAKER_STATE.get(leaf, 0.0)
            else:
                yield "", labels, leaf


def render_prometheus(stats: Mapping[str, Any]) -> str:
    """Render a :meth:`LayoutService.stats` snapshot as Prometheus text:
    one walk over :data:`FAMILIES`."""
    lines: List[str] = []
    for family in FAMILIES:
        samples = [
            _sample(family.name + suffix, labels, value)
            for suffix, labels, value in _samples(family, stats)
        ]
        if samples:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.type}")
            lines.extend(samples)
    return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, labels): value}``.

    A deliberately strict reference parser: any non-comment, non-blank
    line that does not match the exposition grammar raises
    ``ValueError``.  Used by the tests.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _METRIC_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: unparseable {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            labels = [(k, v) for k, v in _LABEL_RE.findall(raw)]
        value_txt = match.group("value")
        if value_txt == "NaN":
            value = float("nan")
        elif value_txt in ("+Inf", "-Inf"):
            value = float(value_txt.replace("Inf", "inf"))
        else:
            value = float(value_txt)
        out[(match.group("name"), tuple(labels))] = value
    return out
