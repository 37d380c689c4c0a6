"""Execution model: price a compiled phase from training sets
(paper Sections 2.3 and 3).

Phases are classified as **loosely synchronous**, **pipelined** (fine or
coarse grain, priced with *low-latency* training sets because computation
and communication overlap), **sequentialized** (a degenerate pipeline with
one stage), or **reductions**.

Deliberate simplifications relative to the SPMD simulation (these are the
paper's own estimator simplifications, and the source of the estimated-
vs-measured gaps in Figures 4-7):

* uniform block sizes — boundary-processor irregularity is ignored;
* each phase is priced in isolation — the overlap of adjacent pipelines
  (a backward sweep starting where the forward sweep just finished) is
  not modelled, which *over*-estimates sequentialized phases;
* IF guards contribute their (guessed) probabilities;
* communication costs come from the fitted linear training sets, with
  nearest-processor-count fallback, not from event-level simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Tuple

from ..codegen.comm import (
    BroadcastComm,
    GatherComm,
    ReductionComm,
    ShiftComm,
    StmtPlan,
)
from ..codegen.spmd import CompiledPhase
from .compiler_model import CompilerOptions, FORTRAN_D_PROTOTYPE

LOOSELY_SYNCHRONOUS = "loosely synchronous"
PIPELINED = "pipelined"
SEQUENTIALIZED = "sequentialized"
REDUCTION = "reduction"


class Predictor(Protocol):
    """What the execution model asks of a cost source: the time of one
    message pattern.  :class:`~repro.perf.training.TrainingDatabase` is
    the one the tool uses; the protocol is the seam tests substitute a
    fake through."""

    def predict(self, pattern: str, procs: int, nbytes: int,
                stride: str = "unit", latency: str = "high") -> float: ...


@dataclass
class PhaseEstimate:
    """Estimated cost of one (phase, candidate layout) pair, per phase
    execution, in microseconds."""

    phase_index: int
    exec_class: str
    compute: float = 0.0
    communication: float = 0.0
    pipeline: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.communication + self.pipeline


def _stride_of(buffered: bool) -> str:
    return "nonunit" if buffered else "unit"


def _plan_compute(plan: StmtPlan, nprocs: int) -> float:
    """Estimator compute model: uniform partitioning, no boundary code.

    The divisor is the product of processor counts over the statement's
    variable-partitioned dimensions — the whole machine for the
    prototype's 1-D layouts, a grid-axis product for multi-dimensional
    ones (dimensions the write is replicated over or pinned to one
    position contribute no speedup)."""
    iters = plan.total_iterations() * plan.guard_probability
    divisor = plan.partition_divisor()
    if plan.replicated_write or divisor <= 1:
        local = iters
    else:
        local = iters / divisor
    return local * plan.per_iter_cost


def _pipeline_time(
    plan: StmtPlan,
    predictor: Predictor,
    nprocs: int,
    options: CompilerOptions,
) -> Tuple[float, str]:
    """Closed-form pipeline estimate: ``(S + P - 1) * (chunk + t_msg)``.

    Pipelined phases overlap computation and communication, so messages
    are priced with the *low-latency* training sets; a sequentialized
    phase (one stage) blocks on every hand-off and uses high latency.
    """
    pipe = plan.pipeline
    assert pipe is not None
    stages = max(pipe.stages, 1) * max(pipe.rounds, 1)
    iters = plan.total_iterations() * plan.guard_probability
    divisor = max(plan.partition_divisor(), 1)
    chain_procs = pipe.chain_procs or nprocs
    chunk = (iters / divisor / stages) * plan.per_iter_cost
    msg_bytes = pipe.msg_bytes
    if options.coarse_grain_pipelining and stages > 1:
        # Future-work extension: block the pipeline by the factor that
        # minimizes the closed form (powers of two up to the stage count).
        # One request per factor, whatever the predictions are.
        best = None
        b = 1
        while b <= stages:
            t = predictor.predict(
                "sendrecv", nprocs, msg_bytes * b,
                stride=_stride_of(pipe.buffered), latency="low",
            )
            total = (stages / b + chain_procs - 1) * (chunk * b + t)
            if best is None or total < best:
                best = total
            b *= 2
        assert best is not None
        return best, PIPELINED
    if stages == 1:
        t_msg = predictor.predict(
            "sendrecv", nprocs, msg_bytes,
            stride=_stride_of(pipe.buffered), latency="high",
        )
        # Every processor along the chain computes its block in turn.
        return chain_procs * (chunk + t_msg), SEQUENTIALIZED
    t_msg = predictor.predict(
        "sendrecv", nprocs, msg_bytes,
        stride=_stride_of(pipe.buffered), latency="low",
    )
    return (stages + chain_procs - 1) * (chunk + t_msg), PIPELINED


def price_phase(
    compiled: CompiledPhase,
    predictor: Predictor,
    nprocs: int,
    options: CompilerOptions = FORTRAN_D_PROTOTYPE,
) -> PhaseEstimate:
    """Estimate one phase execution under one candidate layout.

    The only walk over a compiled phase's communication events and
    pipelines.  ``predictor`` prices each message (a
    :class:`~repro.perf.training.TrainingDatabase`)."""
    estimate = PhaseEstimate(
        phase_index=compiled.phase_index, exec_class=LOOSELY_SYNCHRONOUS
    )
    has_reduction = False

    # Hoisted communication, coalesced across the phase (or not, when the
    # modelled compiler lacks coalescing).
    events = []
    seen = set()
    for plan in compiled.plans:
        for event in plan.comms:
            if options.message_coalescing:
                if event in seen:
                    continue
                seen.add(event)
            events.append((event, plan))

    for event, plan in events:
        if isinstance(event, ShiftComm):
            procs = event.procs or nprocs
            if options.message_vectorization:
                estimate.communication += predictor.predict(
                    "shift", procs, event.nbytes,
                    stride=_stride_of(event.buffered), latency="high",
                )
            else:
                # Unvectorized: one element-sized message per iteration of
                # the non-partitioned loops.
                count = max(plan.other_iterations(), 1)
                elem = max(event.nbytes // max(plan.other_iterations(), 1), 1)
                estimate.communication += count * predictor.predict(
                    "shift", procs, elem, stride="unit", latency="high",
                )
        elif isinstance(event, BroadcastComm):
            estimate.communication += predictor.predict(
                "broadcast", event.procs or nprocs, event.nbytes,
                stride=_stride_of(event.buffered), latency="high",
            )
        elif isinstance(event, GatherComm):
            estimate.communication += predictor.predict(
                "transpose", event.procs or nprocs, event.local_bytes,
                stride=_stride_of(event.buffered), latency="high",
            )
        elif isinstance(event, ReductionComm):
            has_reduction = True
            estimate.communication += predictor.predict(
                "reduction", nprocs, event.nbytes, latency="high"
            ) + predictor.predict(
                "broadcast", nprocs, event.nbytes, latency="high"
            )

    # Compute + pipelines.
    for plan in compiled.plans:
        if plan.pipeline is not None:
            time, klass = _pipeline_time(plan, predictor, nprocs, options)
            estimate.pipeline += time
            if estimate.exec_class == LOOSELY_SYNCHRONOUS or (
                klass == SEQUENTIALIZED
            ):
                estimate.exec_class = klass
        else:
            estimate.compute += _plan_compute(plan, nprocs)

    if has_reduction and estimate.exec_class == LOOSELY_SYNCHRONOUS:
        estimate.exec_class = REDUCTION
    return estimate
