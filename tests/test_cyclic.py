"""CYCLIC / BLOCK-CYCLIC distribution semantics (the paper's future-work
distribution formats, implemented as extensions)."""

import pytest

from repro.analysis.phases import partition_phases
from repro.codegen.comm import ShiftComm
from repro.codegen.spmd import compile_phase, compile_program
from repro.distribution.layouts import (
    Alignment,
    DataLayout,
    DimDistribution,
    Distribution,
)
from repro.distribution.template import Template
from repro.frontend.parser import parse_source
from repro.frontend.symbols import build_symbol_table
from repro.machine.params import IPSC860
from repro.machine.simulator import simulate

DECLS = (
    "      integer n\n      parameter (n = 16)\n"
    "      double precision a(n, n), b(n, n)\n"
    "      integer i, j\n"
)


def compiled_for(body, dist, procs=4):
    src = f"program t\n{DECLS}{body}      end\n"
    prog = parse_source(src)
    table = build_symbol_table(prog)
    part = partition_phases(prog, table)
    tpl = Template(rank=2, extents=(16, 16))
    layout = DataLayout.build(
        template=tpl,
        alignments={
            name: Alignment.canonical(2) for name in ("a", "b")
        },
        distribution=dist,
    )
    return compile_phase(part.phases[0], layout, table, IPSC860), \
        part, table, layout


#: ``block`` of the two formats that need no size
BLOCK, CYCLIC = 0, 1


def one_dim(block, dim, procs):
    return Distribution.one_dim(2, dim, DimDistribution(procs, block))


def rank_counts(plan, procs=4):
    return [plan.local_iters_rank(p) for p in range(procs)]


class TestOwnership:
    def test_block_cyclic_owner_pattern(self):
        # blocks of 2 over 3 procs: 1,2->0  3,4->1  5,6->2  7,8->0 ...
        owners = [DimDistribution(3, 2).owner(i, 8) for i in range(1, 9)]
        assert owners == [0, 0, 1, 1, 2, 2, 0, 0]

    def test_cyclic_balances_iterations(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = b(i, j)\n        enddo\n      enddo\n"
        )
        compiled, _p, _t, _l = compiled_for(
            body, one_dim(CYCLIC, 0, 4)
        )
        assert rank_counts(compiled.plans[0]) == [64, 64, 64, 64]

    def test_cyclic_balances_boundary_loops(self):
        """The load-balance advantage of CYCLIC: a shrinking iteration
        space (do i = 2, n) stays even, while BLOCK piles the missing
        work on one processor."""
        body = (
            "      do j = 1, n\n        do i = 5, n\n"
            "          a(i, j) = b(i, j)\n        enddo\n      enddo\n"
        )
        cyc, _p, _t, _l = compiled_for(body, one_dim(CYCLIC, 0, 4))
        blk, _p, _t, _l = compiled_for(body, one_dim(BLOCK, 0, 4))
        cyc_counts = rank_counts(cyc.plans[0])
        blk_counts = rank_counts(blk.plans[0])
        assert max(cyc_counts) - min(cyc_counts) <= 16
        assert max(blk_counts) - min(blk_counts) == 64  # first block short
        assert sum(cyc_counts) == sum(blk_counts)


class TestShiftVolumes:
    STENCIL = (
        "      do j = 1, n\n        do i = 2, n\n"
        "          a(i, j) = b(i - 1, j)\n        enddo\n      enddo\n"
    )

    def shift_bytes(self, dist):
        compiled, _p, _t, _l = compiled_for(self.STENCIL, dist)
        shift = next(
            c for c in compiled.plans[0].comms if isinstance(c, ShiftComm)
        )
        return shift.nbytes

    def test_cyclic_shifts_every_element(self):
        block = self.shift_bytes(one_dim(BLOCK, 0, 4))
        cyclic = self.shift_bytes(one_dim(CYCLIC, 0, 4))
        # block: 1 boundary column; cyclic: every owned element remote
        assert cyclic == 4 * block

    def test_block_cyclic_interpolates(self):
        block = self.shift_bytes(one_dim(BLOCK, 0, 4))
        bc2 = self.shift_bytes(one_dim(2, 0, 4))
        cyclic = self.shift_bytes(one_dim(CYCLIC, 0, 4))
        assert block < bc2 < cyclic


class TestCyclicPipelines:
    SWEEP = (
        "      do j = 1, n\n        do i = 2, n\n"
        "          a(i, j) = a(i, j) - a(i - 1, j)\n"
        "        enddo\n      enddo\n"
    )

    def test_rounds_recorded(self):
        compiled, _p, _t, _l = compiled_for(self.SWEEP, one_dim(CYCLIC, 0, 4))
        pipe = compiled.plans[0].pipeline
        assert pipe is not None
        assert pipe.rounds == 4  # 16 elements / (4 procs * block 1)
        blk, _p, _t, _l = compiled_for(self.SWEEP, one_dim(BLOCK, 0, 4))
        assert blk.plans[0].pipeline.rounds == 1

    def test_cyclic_sweep_slower_in_simulation(self):
        def measure(dist):
            src = f"program t\n{DECLS}{self.SWEEP}      end\n"
            prog = parse_source(src)
            table = build_symbol_table(prog)
            part = partition_phases(prog, table)
            tpl = Template(rank=2, extents=(16, 16))
            layout = DataLayout.build(
                template=tpl,
                alignments={n: Alignment.canonical(2) for n in ("a", "b")},
                distribution=dist,
            )
            builder = compile_program(part, table, {0: layout}, IPSC860, 4)
            return simulate(
                builder.programs, IPSC860, builder.collectives
            ).makespan

        assert measure(one_dim(CYCLIC, 0, 4)) > \
            measure(one_dim(BLOCK, 0, 4))

    def test_estimator_agrees_cyclic_is_worse(self):
        from repro.machine.params import IPSC860 as params
        from repro.perf.execution_model import price_phase
        from repro.perf.training import cached_training_database

        db = cached_training_database(params)
        cyc, _p, _t, _l = compiled_for(self.SWEEP, one_dim(CYCLIC, 0, 4))
        blk, _p, _t, _l = compiled_for(self.SWEEP, one_dim(BLOCK, 0, 4))
        assert price_phase(cyc, db, 4).total > price_phase(blk, db, 4).total


class TestExtendedAssistant:
    def test_pure_cyclic_never_chosen_for_sweeps(self):
        """Pure CYCLIC loses badly on Adi (every dependence hand-off and
        every stencil element crosses processors) — it must not appear in
        the extended optimum."""
        from repro.distribution.search_space import DistributionOptions
        from repro.programs.registry import PROGRAMS
        from repro.tool.assistant import AssistantConfig, run_assistant

        result = run_assistant(
            PROGRAMS["adi"].source(n=64, maxiter=2),
            AssistantConfig(
                nprocs=4, distributions=DistributionOptions.extended()
            ),
        )
        for idx, pos in result.selection.selection.items():
            layout = result.layout_spaces.per_phase[idx][pos].layout
            for tdim in layout.distribution.distributed_dims():
                assert layout.distribution.dims[tdim].kind != "cyclic"

    def test_block_cyclic_ring_pipelines_sequential_sweeps(self):
        """The genuinely interesting extension result: BLOCK-CYCLIC turns
        Adi's *sequentialized* j sweeps into a ring software-pipeline,
        beating both the static block layouts and the remapped scheme —
        and the simulator confirms the estimator's prediction."""
        from repro.distribution.search_space import DistributionOptions
        from repro.programs.registry import PROGRAMS
        from repro.tool.assistant import AssistantConfig, run_assistant
        from repro.tool.measurement import measure_layouts

        src = PROGRAMS["adi"].source(n=64, maxiter=2)
        proto = run_assistant(src, AssistantConfig(nprocs=4))
        ext = run_assistant(
            src,
            AssistantConfig(
                nprocs=4, distributions=DistributionOptions.extended()
            ),
        )
        assert ext.selection.objective < proto.selection.objective
        m_proto = measure_layouts(src, proto.selected_layouts, nprocs=4)
        m_ext = measure_layouts(src, ext.selected_layouts, nprocs=4)
        assert m_ext.makespan_us < m_proto.makespan_us
        # the winning layout is a static block-cyclic column scheme
        assert m_ext.remap_count == 0
        kinds = {
            ext.layout_spaces.per_phase[idx][pos]
            .layout.distribution.dims[tdim].kind
            for idx, pos in ext.selection.selection.items()
            for tdim in ext.layout_spaces.per_phase[idx][pos]
            .layout.distribution.distributed_dims()
        }
        assert "block_cyclic" in kinds
