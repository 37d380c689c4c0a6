"""Top-level performance estimation over candidate-layout search spaces.

For every phase, build the compiler model's statement facts once; for
every candidate layout in its search space, plan them under the layout
and price the result with the execution model — one
:func:`~repro.perf.execution_model.price_phase` walk per candidate over
the training database, the only pricing path; the output feeds the data
layout graph of the selection step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.phases import Phase
from ..codegen.spmd import phase_statements, plan_phase
from ..distribution.search_space import CandidateLayout, LayoutSearchSpaces
from ..frontend.symbols import SymbolTable
from ..machine.params import MachineParams
from ..obs import tracing
from .compiler_model import CompilerOptions, FORTRAN_D_PROTOTYPE
from .execution_model import PhaseEstimate, price_phase
from .training import TrainingDatabase, cached_training_database


@dataclass
class EstimatedCandidate:
    """A candidate layout together with its estimated per-execution cost."""

    candidate: CandidateLayout
    estimate: PhaseEstimate

    @property
    def total(self) -> float:
        return self.estimate.total


@dataclass
class EstimationResult:
    """Estimates for every candidate of every phase."""

    per_phase: Dict[int, List[EstimatedCandidate]]
    db: TrainingDatabase
    nprocs: int
    options: CompilerOptions

    def best_candidate(self, phase_index: int) -> EstimatedCandidate:
        return min(self.per_phase[phase_index], key=lambda e: e.total)

    def candidate(self, phase_index: int, position: int) -> EstimatedCandidate:
        return self.per_phase[phase_index][position]


def estimate_phase_candidates(
    phase: Phase,
    candidates: Sequence[CandidateLayout],
    symbols: SymbolTable,
    params: MachineParams,
    db: TrainingDatabase,
    nprocs: int,
    options: CompilerOptions,
) -> List[EstimatedCandidate]:
    """Price every candidate of one phase.

    A pure function of its arguments — no global state, no mutation of
    inputs — so it is safe to ship to any worker (thread or process) and
    the combined result is deterministic regardless of scheduling.
    """
    with tracing.span(
        "estimate.phase", phase=phase.index, candidates=len(candidates)
    ):
        statements = phase_statements(phase, symbols, params)
        estimates = []
        for candidate in candidates:
            compiled = plan_phase(
                phase.index, statements, candidate.layout, symbols
            )
            estimate = price_phase(compiled, db, nprocs, options)
            estimates.append(
                EstimatedCandidate(candidate=candidate, estimate=estimate)
            )
    return estimates


#: a job runner maps the pure job function over argument tuples and
#: returns the results *in submission order* (the service's worker pool
#: provides a parallel one; ``None`` means run serially in-process).
JobRunner = Callable[[Callable[..., object], Sequence[Tuple]], List]


#: upper bound on the number of jobs a fan-out hands a job runner;
#: phases are grouped into contiguous chunks so per-job fixed costs
#: (pickling the training database, span bookkeeping) amortize.
_MAX_BATCH_JOBS = 8


def estimate_phase_batch(
    chunk: Sequence[Tuple[Phase, Sequence[CandidateLayout]]],
    symbols: SymbolTable,
    params: MachineParams,
    db: TrainingDatabase,
    nprocs: int,
    options: CompilerOptions,
) -> List[List[EstimatedCandidate]]:
    """Pure chunk job: price several phases, in order, in one call."""
    return [
        estimate_phase_candidates(
            phase, candidates, symbols, params, db, nprocs, options
        )
        for phase, candidates in chunk
    ]


def estimate_search_spaces(
    phases: Sequence[Phase],
    spaces: LayoutSearchSpaces,
    symbols: SymbolTable,
    params: MachineParams,
    db: Optional[TrainingDatabase] = None,
    options: CompilerOptions = FORTRAN_D_PROTOTYPE,
    job_runner: Optional[JobRunner] = None,
) -> EstimationResult:
    """Price every candidate layout of every phase.

    Without ``job_runner`` the phases are priced in order on the calling
    thread; with one they go out as at most ``_MAX_BATCH_JOBS``
    contiguous chunks through :func:`estimate_phase_batch`.  Both shapes
    produce bitwise-equal costs.
    """
    db = db or cached_training_database(params)
    nprocs = spaces.nprocs
    phase_by_index = {p.index: p for p in phases}
    items = sorted(spaces.per_phase.items())
    pairs = [(phase_by_index[idx], candidates) for idx, candidates in items]
    if job_runner is None:
        with tracing.span(
            "estimation.fanout", jobs=len(pairs), parallel=False,
        ):
            results = estimate_phase_batch(
                pairs, symbols, params, db, nprocs, options
            )
    else:
        chunk_size = -(-len(pairs) // _MAX_BATCH_JOBS) or 1
        chunks = [
            pairs[i:i + chunk_size]
            for i in range(0, len(pairs), chunk_size)
        ]
        argtuples = [
            (chunk, symbols, params, db, nprocs, options)
            for chunk in chunks
        ]
        with tracing.span(
            "estimation.fanout", jobs=len(chunks), parallel=True,
        ):
            chunked = job_runner(estimate_phase_batch, argtuples)
        results = [est for chunk in chunked for est in chunk]
    per_phase: Dict[int, List[EstimatedCandidate]] = {
        idx: estimates for (idx, _), estimates in zip(items, results)
    }
    return EstimationResult(
        per_phase=per_phase, db=db, nprocs=nprocs, options=options
    )
