"""The three library workloads: one thread, closed loop, one
``run_assistant`` per op, whole cycles over the workload's population
until ``--seconds`` have passed."""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.machine.params import IPSC860
from repro.perf.training import cached_training_database
from repro.selection.ilp import select_layouts
from repro.selection.layout_graph import build_layout_graph
from repro.tool.assistant import (
    AssistantResult,
    run_assistant,
    stage_alignment,
    stage_distribution,
    stage_estimation,
    stage_frontend,
    stage_partition,
)

import expected
import inputs
from calibration import Timeline
from common import SetupClock, mean, percentile, self_peak_rss_mb
from spans import SpanRecorder

#: work counts are taken over this many cycles from the start of the
#: traced run (one cycle is the whole population, except on tool-paper,
#: where a cycle is four draws from the grid), never over however many
#: cycles happened to fit in the time
COUNT_CYCLES = {"tool-paper": 25}

#: span name per stage, in pipeline order
STAGE_SPANS = (
    "frontend", "analysis", "alignment", "distribution",
    "perf.estimation", "selection.graph", "selection.ilp",
)


class OpLimit(Exception):
    """Raised in the main thread when an op runs past its limit."""


def _on_alarm(signum, frame):
    raise OpLimit()


class Sample:
    """One op's outcome.  ``seconds`` and ``cpu_s`` are as measured;
    ``scale`` is the machine-speed factor at the time (see
    ``calibration``), filled in once the run's timeline is complete."""

    __slots__ = ("op", "seconds", "cpu_s", "at", "scale", "answer", "error")

    def __init__(self, op: inputs.LibOp):
        self.op = op
        self.seconds = 0.0
        self.cpu_s = 0.0
        self.at = 0.0
        self.scale = 1.0
        self.answer: Optional[expected.Answer] = None
        self.error: Optional[str] = None


def set_up(workload: str, seed: int, clock: SetupClock):
    with clock.segment("training_db"):
        cached_training_database(IPSC860)
    with clock.segment("inputs"):
        cycles = inputs.tool_cycles(workload, seed)
        digest = inputs.digest([op for cycle in cycles for op in cycle])
    # Lazy imports and the solver's first-call set-up are paid here, as
    # a user's second call would find them; the ops are the same for
    # every seed, so that set-up time does not depend on the draw.
    with clock.segment("warmup"):
        for op in inputs.warmup_ops(workload):
            expected.answer_of_result(run_assistant(op.source, op.config))
    return cycles, digest


def _setup_scale(timeline: Timeline) -> float:
    """The machine-speed factor for set-up: from the kernel samples the
    run took before its imports and the one taken now."""
    timeline.sample()
    return timeline.factor_between(0.0, perf_counter())


def set_up_only(workload: str, seed: int, clock: SetupClock,
                timeline: Timeline) -> float:
    """What a set-up probe runs: everything before the first timed op.
    Returns the factor to scale the clock's total by."""
    set_up(workload, seed, clock)
    return _setup_scale(timeline)


def _timed_op(op: inputs.LibOp, limit_s: float, call) -> Sample:
    """Run ``call(op)`` under the op limit; the answer is read inside
    the timed region, as a caller would read it."""
    sample = Sample(op)
    cpu_start = process_time()
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        sample.answer = expected.answer_of_result(call(op))
    except OpLimit:
        sample.error = "op-limit"
    except Exception as exc:  # the op failed; the run goes on
        sample.error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = perf_counter()
    sample.seconds = end - start
    sample.cpu_s = process_time() - cpu_start
    sample.at = (start + end) / 2
    if sample.error == "op-limit":
        sample.seconds = limit_s
    elif sample.error is None and sample.seconds > limit_s:
        sample.error = "op-limit"
    return sample


def _run_cycle(cycle, limit_s: float, call, timeline: Timeline
               ) -> List[Sample]:
    samples = []
    for op in cycle:
        samples.append(_timed_op(op, limit_s, call))
        timeline.sample_if_due()
    return samples


def _scale(samples: List[Sample], timeline: Timeline) -> None:
    for sample in samples:
        sample.scale = timeline.factor(sample.at)


def _plain(op: inputs.LibOp):
    return run_assistant(op.source, op.config)


def run(workload: str, seed: int, seconds: float, clock: SetupClock,
        timeline: Timeline, setup_probes: List[float]) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric."""
    signal.signal(signal.SIGALRM, _on_alarm)
    cycles, digest = set_up(workload, seed, clock)
    setup_s = median(
        setup_probes + [clock.total_s * _setup_scale(timeline)]
    )
    limit_s = inputs.OP_LIMIT_S[workload]

    done: List[List[Sample]] = []
    begin = perf_counter()
    while not done or perf_counter() - begin < seconds:
        done.append(_run_cycle(
            cycles[len(done) % len(cycles)], limit_s, _plain, timeline
        ))
    peak_rss_mb = self_peak_rss_mb()

    samples = [s for cycle in done for s in cycle]
    _scale(samples, timeline)
    failed, wrong, reasons = expected.verify(samples)
    # An input's *typical* latency (and CPU) is its median over the
    # run's repetitions of it.  Every op counts with its input's typical
    # values, so a slow spell of the machine that hit one repetition
    # does not move the percentiles or the rate.
    by_input: Dict[str, List[Sample]] = {}
    for sample in samples:
        by_input.setdefault(sample.op.key, []).append(sample)
    typical_s = {key: median(s.seconds * s.scale for s in group)
                 for key, group in by_input.items()}
    typical_cpu_s = {key: median(s.cpu_s * s.scale for s in group)
                     for key, group in by_input.items()}
    latencies_ms = [typical_s[s.op.key] * 1e3 for s in samples]
    good_share = 1 - failed / len(samples)
    wall_s = sum(s.seconds for s in samples)
    return {
        "digest": digest,
        "attempted": len(samples),
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons,
        "metrics": {
            "setup_s": setup_s,
            "throughput_ops_s":
                len(samples) / (sum(latencies_ms) / 1e3) * good_share,
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p90_ms": percentile(latencies_ms, 90),
            "cpu_ms_per_op": mean(
                [typical_cpu_s[s.op.key] for s in samples]
            ) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        },
        "notes": {
            "cycles": len(done),
            "latency_samples": len(samples),
            "distinct_inputs": len(by_input),
            "machine_scale_median": median(s.scale for s in samples),
            "raw_throughput_ops_s": len(samples) / wall_s * good_share,
            "raw_latency_p50_ms": percentile(
                [s.seconds * 1e3 for s in samples], 50
            ),
            "raw_latency_p90_ms": percentile(
                [s.seconds * 1e3 for s in samples], 90
            ),
            "raw_cpu_ms_per_op": mean([s.cpu_s for s in samples]) * 1e3,
            "raw_setup_s": clock.total_s,
            "setup_segments": clock.segments,
        },
    }


# -- the traced run --------------------------------------------------------


class Counts:
    """Work counts, summed over the ops of the first traced cycles."""

    NAMES = (
        "frontend.source_bytes", "analysis.phases", "analysis.pcfg_edges",
        "alignment.resolutions", "alignment.candidates",
        "distribution.candidates", "perf.estimation.candidates_priced",
        "selection.graph.edges", "selection.ilp.variables",
        "selection.ilp.constraints",
    )

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.NAMES, 0)
        self.ops = 0
        self.open = True

    def add(self, values: Dict[str, int]) -> None:
        for name, value in values.items():
            self.totals[name] += value
        self.ops += 1


def _composer(rec: SpanRecorder, counts: Counts
              ) -> Callable[[inputs.LibOp], AssistantResult]:
    """``run_assistant`` taken apart: the same public stage calls in
    the same order, each under a span.  Its answers go through the same
    verification as ``run_assistant``'s, which is the check that the
    composition computes the same thing."""
    op_id = [0]

    def call(op: inputs.LibOp) -> AssistantResult:
        config = op.config
        op_id[0] += 1
        with rec.span("op", op=op_id[0]):
            with rec.span("frontend"):
                program, symbols = stage_frontend(op.source)
            with rec.span("analysis"):
                partition, pcfg, template = stage_partition(
                    program, symbols, config
                )
            with rec.span("alignment"):
                alignment_spaces = stage_alignment(
                    partition, pcfg, symbols, template, config
                )
            with rec.span("distribution"):
                layout_spaces = stage_distribution(
                    partition, alignment_spaces, template, symbols, config
                )
            with rec.span("perf.estimation"):
                estimates, db = stage_estimation(
                    partition, layout_spaces, symbols, config
                )
            with rec.span("selection.graph"):
                graph = build_layout_graph(
                    partition.phases, pcfg, estimates, symbols, db,
                    config.nprocs,
                )
            with rec.span("selection.ilp"):
                selection = select_layouts(
                    graph, backend=config.ilp_backend,
                    presolve=config.ilp_presolve,
                )
        if counts.open:
            counts.add({
                "frontend.source_bytes": len(op.source),
                "analysis.phases": len(partition.phases),
                "analysis.pcfg_edges": pcfg.graph.number_of_edges(),
                "alignment.resolutions": len(alignment_spaces.resolutions),
                "alignment.candidates": sum(
                    len(v) for v in alignment_spaces.per_phase.values()
                ),
                "distribution.candidates": layout_spaces.total_candidates(),
                "perf.estimation.candidates_priced": sum(
                    len(v) for v in estimates.per_phase.values()
                ),
                "selection.graph.edges": len(graph.edges),
                "selection.ilp.variables": selection.num_variables,
                "selection.ilp.constraints": selection.num_constraints,
            })
        return AssistantResult(
            config=config, program=program, symbols=symbols,
            partition=partition, pcfg=pcfg, template=template,
            alignment_spaces=alignment_spaces, layout_spaces=layout_spaces,
            estimates=estimates, graph=graph, selection=selection, db=db,
        )

    return call


def run_traced(workload: str, seed: int, seconds: float, clock: SetupClock,
               timeline: Timeline, out: Optional[str]) -> Dict[str, Any]:
    """The traced run: every per-layer metric this workload has."""
    signal.signal(signal.SIGALRM, _on_alarm)
    cycles, digest = set_up(workload, seed, clock)
    setup_scale = _setup_scale(timeline)
    limit_s = inputs.OP_LIMIT_S[workload]

    rec = SpanRecorder()
    counts = Counts()
    composed = _composer(rec, counts)
    plain: List[Sample] = []
    traced: List[Sample] = []
    pairs = 0
    begin = perf_counter()
    # each op runs plain and then, at once, traced, so that the two
    # see the same input and, as nearly as can be, the same machine
    while counts.open or perf_counter() - begin < seconds:
        for op in cycles[pairs % len(cycles)]:
            plain.append(_timed_op(op, limit_s, _plain))
            traced.append(_timed_op(op, limit_s, composed))
            timeline.sample_if_due()
        pairs += 1
        counts.open = pairs < COUNT_CYCLES.get(workload, 1)
    if out:
        rec.write(out)
    _scale(plain + traced, timeline)

    failed, wrong, reasons = expected.verify(plain + traced)
    metrics: Dict[str, float] = {
        name: total / counts.ops for name, total in counts.totals.items()
    }
    # One row per op: its plain time, its traced time, and the self
    # time of each stage span under its ``op`` span, all scaled.
    stage_rows: List[Dict[str, float]] = []
    for span in rec.spans:
        if span.name == "op":
            stage_rows.append(dict.fromkeys(STAGE_SPANS, 0.0))
        else:
            stage_rows[-1][span.name] += span.self_s
    # Rows are summarized by the median within each group of like ops
    # and the mean over groups (every group has the same number of ops
    # per cycle), so one slow spell of the machine does not pass for a
    # layer's time.
    groups: Dict[str, List[Tuple[float, float, Dict[str, float]]]] = {}
    for before, after, stages in zip(plain, traced, stage_rows):
        group = (before.op.program if workload == "tool-paper"
                 else before.op.key)
        groups.setdefault(group, []).append((
            before.seconds * before.scale,
            after.seconds * after.scale,
            {name: s * after.scale for name, s in stages.items()},
        ))

    def over_groups(value) -> float:
        return mean([
            median([value(*row) for row in rows])
            for rows in groups.values()
        ]) * 1e3

    for name in STAGE_SPANS:
        metrics[f"{name}.busy_ms"] = over_groups(
            lambda p, t, stages: stages[name]
        )
    plain_ms = over_groups(lambda p, t, stages: p)
    metrics["pipeline.unattributed_ms"] = over_groups(
        lambda p, t, stages: p - sum(stages.values())
    )
    metrics["trace.overhead_share"] = over_groups(
        lambda p, t, stages: t - p
    ) / plain_ms
    plain_ms_by_program: Dict[str, List[float]] = {}
    for sample in plain:
        plain_ms_by_program.setdefault(sample.op.program, []).append(
            sample.seconds * sample.scale * 1e3
        )
    for program in inputs.PAPER_PROGRAMS:
        metrics[f"program.{program}.p50_ms"] = percentile(
            plain_ms_by_program.get(program, []), 50
        )
    metrics["tool.latency_p99_ms"] = percentile(
        [s.seconds * s.scale * 1e3 for s in plain], 99
    )
    metrics["tool.op_limit_hits"] = sum(
        1 for s in plain + traced if s.error == "op-limit"
    )
    for segment in ("import", "training_db"):
        metrics[f"setup.{segment}_s"] = (
            clock.segments.get(segment, 0.0) * setup_scale
        )
    metrics["machine.scale"] = median(s.scale for s in plain + traced)
    metrics["verify.wrong_ops"] = wrong
    return {
        "digest": digest,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons,
        "metrics": metrics,
        "notes": {
            "untraced_ops": len(plain),
            "traced_ops": len(traced),
            "count_ops": counts.ops,
            "mean_op_ms": plain_ms,
            "spans": len(rec.spans),
        },
    }
