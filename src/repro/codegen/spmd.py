"""SPMD code generation: lower a program + selected layouts to node
programs for the machine simulator.

This plays the role of the Fortran D compiler in the paper's experiments:
given the phase structure and one concrete :class:`DataLayout` per phase,
it produces per-processor operation schedules with

* owner-computes iteration partitioning with exact boundary-processor
  iteration counts;
* message-vectorized and coalesced shift communication before each loop
  nest;
* broadcast / gather / reduction collectives;
* pipeline schedules for cross-processor flow dependences, whose
  granularity follows the source loop order (no interchange, no
  coarse-grain pipelining — the compiler configuration of Section 4);
* lazy **remapping**: when a phase uses an array under a different layout
  than the array currently has, an all-to-all redistribution is emitted
  first (this is what a dynamic layout costs);
* control structure unrolled: control loops replay their bodies, branches
  fire deterministically in proportion to their *actual* probabilities.

Simulating the result gives the experiment's "measured" execution time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.phases import (
    Branch,
    ControlLoop,
    PhaseItem,
    PhasePartition,
    ScalarItem,
    Seq,
)
from ..distribution.layouts import DataLayout, needs_remap
from ..frontend import ast
from ..frontend.symbols import SymbolTable
from ..machine.collectives import redistribute_time
from ..machine.node import statement_cost, stmt_dtype
from ..machine.params import MachineParams
from ..machine.patterns import (
    append_alltoall,
    append_broadcast,
    append_reduce_broadcast,
)
from ..machine.simulator import Collective
from .comm import (
    BroadcastComm,
    GatherComm,
    ReductionComm,
    ShiftComm,
    StmtFacts,
    StmtPlan,
    plan_statement,
    statement_facts,
)


@dataclass
class CompiledPhase:
    """The per-statement plans of one phase under one layout."""

    phase_index: int
    layout: DataLayout
    plans: List[StmtPlan]


def phase_statements(
    phase, symbols: SymbolTable, params: MachineParams
) -> Tuple[StmtFacts, ...]:
    """The layout-independent half of the compiler model: the facts of
    every statement of ``phase``, in statement order, built once and
    planned under any number of layouts by :func:`plan_phase`."""
    out = []
    for accesses in phase.statements:
        stmt = accesses[0].stmt
        dtype = stmt_dtype(stmt, symbols) if isinstance(stmt, ast.Assign) \
            else "double"
        cost = statement_cost(stmt, params, symbols, dtype=dtype)
        out.append(statement_facts(accesses, cost))
    return tuple(out)


def plan_phase(
    phase_index: int,
    statements: Sequence[StmtFacts],
    layout: DataLayout,
    symbols: SymbolTable,
) -> CompiledPhase:
    """The layout's half: plan every statement of a phase under
    ``layout``."""
    return CompiledPhase(
        phase_index=phase_index,
        layout=layout,
        plans=[plan_statement(facts, layout, symbols) for facts in statements],
    )


def compile_phase(
    phase,
    layout: DataLayout,
    symbols: SymbolTable,
    params: MachineParams,
) -> CompiledPhase:
    """Plan every statement of ``phase`` under ``layout``."""
    return plan_phase(
        phase.index, phase_statements(phase, symbols, params), layout, symbols
    )


class SPMDBuilder:
    """Accumulates per-processor op lists plus the collective registry."""

    def __init__(
        self,
        symbols: SymbolTable,
        params: MachineParams,
        nprocs: int,
        max_pipeline_stages: int = 1024,
    ):
        self.symbols = symbols
        self.params = params
        self.nprocs = nprocs
        self.max_pipeline_stages = max_pipeline_stages
        self.programs: List[List[tuple]] = [[] for _ in range(nprocs)]
        self.collectives: Dict[int, Collective] = {}
        self._next_coll = 0
        self.remap_count = 0
        self.remap_time_total = 0.0

    # -- primitive emitters -------------------------------------------------

    def _compute(self, proc: int, duration: float) -> None:
        if duration > 0.0:
            self.programs[proc].append(("compute", duration))

    # -- remapping ----------------------------------------------------------

    def emit_remap(self, array: str) -> float:
        """Event-level all-to-all redistribution of ``array``; returns the
        analytic duration (for reporting — the simulated cost is emergent)."""
        symbol = self.symbols.array(array)
        local = max(symbol.total_bytes // self.nprocs, 1)
        append_alltoall(self.programs, local, buffered=True)
        duration = redistribute_time(
            self.params, self.nprocs, symbol.total_bytes
        )
        self.remap_count += 1
        self.remap_time_total += duration
        return duration

    # -- phase emission -------------------------------------------------------

    def emit_phase(self, compiled: CompiledPhase) -> None:
        nprocs = self.nprocs
        layout = compiled.layout
        axis_groups = layout.distribution.axis_groups

        # 1. Hoisted communication, coalesced across the whole phase.
        #    Each event involves the processor groups along its template
        #    dimension; under a 1-D distribution that is the machine.
        events = []
        seen = set()
        for plan in compiled.plans:
            for event in plan.comms:
                if event not in seen:
                    seen.add(event)
                    events.append(event)
        for event in events:
            if isinstance(event, ShiftComm):
                self._emit_shift(event, layout)
            elif isinstance(event, BroadcastComm):
                for group in axis_groups(event.template_dim):
                    append_broadcast(self.programs, event.nbytes,
                                     buffered=event.buffered, ranks=group)
            elif isinstance(event, GatherComm):
                for group in axis_groups(event.template_dim):
                    append_alltoall(self.programs, event.local_bytes,
                                    buffered=event.buffered, ranks=group)
            elif isinstance(event, ReductionComm):
                append_reduce_broadcast(
                    self.programs, event.nbytes,
                    combine_cost=event.nbytes * 0.02,
                )

        # 2. Parallel compute of non-pipelined statements.
        for proc in range(nprocs):
            total = 0.0
            for plan in compiled.plans:
                if plan.pipeline is not None:
                    continue
                iters = plan.local_iters_rank(proc)
                total += iters * plan.per_iter_cost * plan.guard_probability
            self._compute(proc, total)

        # 3. Pipelined statements, one after the other.
        for plan in compiled.plans:
            if plan.pipeline is not None:
                self._emit_pipeline(plan, layout)

    def _emit_shift(self, event: ShiftComm, layout: DataLayout) -> None:
        """Boundary exchange along one grid axis: offset < 0 means data
        flows from lower to higher blocks (read of ``v - d``), offset > 0
        the other way.  Orthogonal axes exchange independently."""
        step = 1 if event.offset < 0 else -1
        for group in layout.distribution.axis_groups(event.template_dim):
            if len(group) <= 1:
                continue
            for pos, proc in enumerate(group):
                dst = pos + step
                if 0 <= dst < len(group):
                    self.programs[proc].append(
                        ("send", group[dst], event.nbytes, event.buffered)
                    )
            for pos, proc in enumerate(group):
                src = pos - step
                if 0 <= src < len(group):
                    self.programs[proc].append(("recv", group[src]))

    def _emit_pipeline(self, plan: StmtPlan, layout: DataLayout) -> None:
        """Pipeline (or sequentialized) execution of a dependent sweep.

        Stage aggregation: when the stage count exceeds
        ``max_pipeline_stages``, ``group`` consecutive stages merge into
        one super-stage.  Per-processor *work* is preserved exactly (the
        per-message software overheads of the merged messages are added to
        the compute time); only the pipeline fill granularity coarsens.
        """
        params = self.params
        pipe = plan.pipeline
        assert pipe is not None

        local_iters = [
            plan.local_iters_rank(p) for p in range(self.nprocs)
        ]
        # Interleaved (cyclic) formats traverse the ring `rounds` times per
        # stage; the hand-off structure is the same chain, repeated.
        stages = max(pipe.stages, 1) * max(pipe.rounds, 1)
        stage_compute = [
            (local_iters[p] / stages)
            * plan.per_iter_cost
            * plan.guard_probability
            for p in range(self.nprocs)
        ]
        group = 1
        if stages > self.max_pipeline_stages:
            group = -(-stages // self.max_pipeline_stages)
        sim_stages = -(-stages // group)
        msg_bytes = pipe.msg_bytes * group
        extra_send = (group - 1) * params.send_overhead(pipe.msg_bytes,
                                                        buffered=pipe.buffered)
        extra_recv = (group - 1) * params.recv_overhead

        # One independent chain per combination of the orthogonal grid
        # coordinates (a single machine-wide chain under 1-D
        # distributions).  Only processors with work join their chain
        # (boundary loops can leave edge blocks empty at large P / small
        # n); the chain follows the sweep's flow direction: backward
        # sweeps start at the highest block.
        for chain in layout.distribution.axis_groups(pipe.template_dim):
            active = [p for p in chain if local_iters[p] > 0]
            if pipe.direction < 0:
                active.reverse()
            if len(active) <= 1:
                for proc in active:
                    self._compute(proc, stage_compute[proc] * stages)
                continue
            for stage in range(sim_stages):
                this_group = min(group, stages - stage * group)
                for ci, proc in enumerate(active):
                    if ci > 0:
                        self.programs[proc].append(
                            ("recv", active[ci - 1])
                        )
                        if extra_recv > 0.0 and this_group == group:
                            self._compute(proc, extra_recv)
                    self._compute(proc, stage_compute[proc] * this_group)
                    if ci < len(active) - 1:
                        if extra_send > 0.0 and this_group == group:
                            self._compute(proc, extra_send)
                        self.programs[proc].append(
                            ("send", active[ci + 1], msg_bytes,
                             pipe.buffered)
                        )


def compile_program(
    partition: PhasePartition,
    symbols: SymbolTable,
    selected_layouts: Dict[int, DataLayout],
    params: MachineParams,
    nprocs: int,
    max_pipeline_stages: int = 1024,
) -> SPMDBuilder:
    """Lower the whole program, unrolling control structure and inserting
    lazy remaps where the selected layouts change an array's distribution.

    Branches fire deterministically in proportion to their recorded
    probability (``branch.prob``), which the caller sets to the *actual*
    probability when building the measured run.
    """
    builder = SPMDBuilder(
        symbols=symbols,
        params=params,
        nprocs=nprocs,
        max_pipeline_stages=max_pipeline_stages,
    )
    compiled_cache: Dict[Tuple[int, int], CompiledPhase] = {}
    current_layout: Dict[str, DataLayout] = {}
    branch_visits: Dict[int, int] = {}

    def phase_layout(idx: int) -> DataLayout:
        try:
            return selected_layouts[idx]
        except KeyError:
            raise KeyError(
                f"no layout selected for phase {idx}"
            ) from None

    def emit_phase_item(item: PhaseItem) -> None:
        idx = item.phase.index
        layout = phase_layout(idx)
        key = (idx, id(layout))
        if key not in compiled_cache:
            compiled_cache[key] = compile_phase(
                item.phase, layout, symbols, params
            )
        # Lazy remapping: only arrays the phase actually *references* pin
        # (and possibly change) their layout here — an array skipping a
        # phase keeps whatever layout it last had.  Leaving a
        # fully-replicated layout is free (every processor already holds
        # the data); entering one costs an all-gather, priced like the
        # redistribution.
        covered = set(layout.arrays())
        for array in item.phase.arrays:
            if array not in covered:
                continue
            prev = current_layout.get(array)
            if prev is not None and needs_remap(prev, layout, array):
                builder.emit_remap(array)
            current_layout[array] = layout
        builder.emit_phase(compiled_cache[key])

    def walk(seq: Seq) -> None:
        for item in seq.items:
            if isinstance(item, PhaseItem):
                emit_phase_item(item)
            elif isinstance(item, ScalarItem):
                continue  # negligible scalar straight-line code
            elif isinstance(item, ControlLoop):
                for _ in range(max(item.trips, 0)):
                    walk(item.body)
            elif isinstance(item, Branch):
                visits = branch_visits.get(id(item), 0) + 1
                branch_visits[id(item)] = visits
                taken = math.floor(visits * item.prob) > math.floor(
                    (visits - 1) * item.prob
                )
                walk(item.then_body if taken else item.else_body)

    walk(partition.structure)
    return builder
