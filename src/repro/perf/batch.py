"""Batched (vectorized) candidate pricing for the execution model.

There is one execution model, :func:`repro.perf.execution_model.
price_phase`, and it prices a compiled phase through whatever predictor
it is handed.  Walked over the training database it is the scalar path:
one ``db.predict`` call — a dict lookup plus a scalar interpolation — per
communication event, the estimator's hot loop for a phase with many
candidates.

The batched path prices **all candidates of a phase in one batch** by
walking the same function twice:

1. *collect* — over a recording predictor, producing the exact stream of
   prediction requests the scalar walk issues (the stream is a pure
   function of the compiled structure: the coarse-grain blocking search
   too issues one request per block factor, whatever the predictions);
2. *price* — group the requests of the whole batch by training set
   (pattern, procs, stride, latency) into a :class:`CostTable` and
   evaluate each group with one vectorized
   :meth:`~repro.perf.training.TrainingSet.predict_many` call;
3. *assemble* — over a predictor that replays the precomputed values.

Because ``predict_many`` matches ``predict`` bit for bit and both walks
are the same code, the batched estimates are **exactly** equal to the
scalar ones — the property the equivalence suite (and the
``estimator-batch`` fuzz check) enforces.  The scalar path stays
available behind ``AssistantConfig``'s ``estimation_mode="scalar"`` flag
as the differential reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.phases import Phase
from ..distribution.search_space import CandidateLayout
from ..frontend.symbols import SymbolTable
from ..machine.params import MachineParams
from ..obs import tracing
from .compiler_model import CompilerOptions, model_phase
from .execution_model import price_phase
from .training import TrainingDatabase

#: one prediction request: the exact arguments of a ``db.predict`` call
Request = Tuple[str, int, int, str, str]  # pattern, procs, nbytes, stride, latency


class _Collect:
    """Predictor that records requests and returns a placeholder."""

    __slots__ = ("requests",)

    def __init__(self) -> None:
        self.requests: List[Request] = []

    def predict(self, pattern: str, procs: int, nbytes: int,
                stride: str = "unit", latency: str = "high") -> float:
        self.requests.append((pattern, procs, nbytes, stride, latency))
        return 0.0


class _Replay:
    """Predictor that replays precomputed values in request order."""

    __slots__ = ("values", "pos")

    def __init__(self, values: Sequence[float], pos: int) -> None:
        self.values = values
        self.pos = pos

    def predict(self, pattern: str, procs: int, nbytes: int,
                stride: str = "unit", latency: str = "high") -> float:
        value = self.values[self.pos]
        self.pos += 1
        return value


@dataclass
class CostTable:
    """Vectorized predictions for one batch of requests.

    ``values[i]`` is exactly ``db.predict(*requests[i])``; the table is
    grouped by training set so each group costs one ``np.interp`` call
    regardless of how many candidates share it.
    """

    values: List[float]
    requests: int
    groups: int


def price_requests(
    db: TrainingDatabase, requests: Sequence[Request]
) -> CostTable:
    """Evaluate a request batch against the training database.

    Requests are grouped by (pattern, procs, stride, latency) — one
    resolved training set each — and each group is priced with a single
    vectorized ``predict_many`` call; single-processor requests are 0.0
    by definition (``TrainingDatabase.predict`` semantics).
    """
    values = [0.0] * len(requests)
    groups: Dict[Tuple[str, int, str, str],
                 Tuple[object, List[int], List[int]]] = {}
    for i, (pattern, procs, nbytes, stride, latency) in enumerate(requests):
        if procs <= 1:
            continue
        key = (pattern, procs, stride, latency)
        entry = groups.get(key)
        if entry is None:
            tset = db.lookup(pattern, procs, stride, latency)
            entry = groups[key] = (tset, [], [])
        entry[1].append(i)
        entry[2].append(nbytes)
    for tset, idxs, sizes in groups.values():
        out = tset.predict_many(np.array(sizes, dtype=np.float64))
        for i, value in zip(idxs, out.tolist()):
            values[i] = value
    return CostTable(
        values=values, requests=len(requests), groups=len(groups)
    )


def estimate_phase_candidates_batched(
    phase: Phase,
    candidates: Sequence[CandidateLayout],
    symbols: SymbolTable,
    params: MachineParams,
    db: TrainingDatabase,
    nprocs: int,
    options: CompilerOptions,
) -> List["object"]:
    """Price every candidate of one phase in a single batch.

    Pure like the scalar :func:`~repro.perf.estimator.
    estimate_phase_candidates` (safe to ship to any worker) and exactly
    equal to it on every cost component.
    """
    from .estimator import EstimatedCandidate

    with tracing.span(
        "estimate.batch", phase=phase.index, candidates=len(candidates)
    ) as sp:
        compiled = [
            model_phase(phase, candidate.layout, symbols, params)
            for candidate in candidates
        ]
        collector = _Collect()
        bounds: List[Tuple[int, int]] = []
        for comp in compiled:
            start = len(collector.requests)
            price_phase(comp, collector, nprocs, options)
            bounds.append((start, len(collector.requests)))
        table = price_requests(db, collector.requests)
        sp.set_attr("requests", table.requests)
        sp.set_attr("tables", table.groups)
        estimates = []
        for candidate, comp, (start, end) in zip(
            candidates, compiled, bounds
        ):
            replay = _Replay(table.values, start)
            estimate = price_phase(comp, replay, nprocs, options)
            assert replay.pos == end, "collect/assemble request mismatch"
            if tracing.detail_active():
                tracing.add_event(
                    "estimate.candidate",
                    phase=phase.index,
                    position=candidate.position,
                    label=candidate.label,
                    total_us=estimate.total,
                )
            estimates.append(
                EstimatedCandidate(candidate=candidate, estimate=estimate)
            )
    return estimates


def estimate_phase_batch(
    chunk: Sequence[Tuple[Phase, Sequence[CandidateLayout]]],
    symbols: SymbolTable,
    params: MachineParams,
    db: TrainingDatabase,
    nprocs: int,
    options: CompilerOptions,
) -> List[List["object"]]:
    """Pure batch job: price several phases in one worker job.

    The batched estimator replaces the scalar path's one-job-per-phase
    fan-out with fewer, larger jobs — the per-job fixed costs (pickling
    the training database, span bookkeeping) amortize over the chunk.
    """
    return [
        estimate_phase_candidates_batched(
            phase, candidates, symbols, params, db, nprocs, options
        )
        for phase, candidates in chunk
    ]
