"""Multi-dimensional distribution support (the paper's primary
future-work item, implemented as an extension)."""

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
from repro.frontend import build_symbol_table, parse_source
from repro.machine import IPSC860, simulate
from repro.perf import cached_training_database, price_phase

DECLS = (
    "      integer n\n      parameter (n = 16)\n"
    "      double precision a(n, n), b(n, n)\n"
    "      integer i, j\n"
)


def grid_layout(p0, p1, b0=0, b1=0):
    dims = (DimDistribution(p0, b0), DimDistribution(p1, b1))
    return DataLayout.build(
        template=Template(rank=2, extents=(16, 16)),
        alignments={n: Alignment.canonical(2) for n in ("a", "b")},
        distribution=Distribution(dims=dims),
    )


def compiled_for(body, layout):
    src = f"program t\n{DECLS}{body}      end\n"
    prog = parse_source(src)
    table = build_symbol_table(prog)
    part = partition_phases(prog, table)
    return compile_phase(part.phases[0], layout, table, IPSC860), part, table


FULL = (
    "      do j = 1, n\n        do i = 1, n\n"
    "          a(i, j) = b(i, j) + 1.0\n        enddo\n      enddo\n"
)

STENCIL2D = (
    "      do j = 2, n\n        do i = 2, n\n"
    "          a(i, j) = b(i - 1, j) + b(i, j - 1)\n"
    "        enddo\n      enddo\n"
)

SWEEP = (
    "      do j = 1, n\n        do i = 2, n\n"
    "          a(i, j) = a(i, j) - a(i - 1, j)\n"
    "        enddo\n      enddo\n"
)


class TestPartitioning:
    def test_both_dims_partitioned(self):
        compiled, _p, _t = compiled_for(FULL, grid_layout(2, 2))
        plan = compiled.plans[0]
        assert len(plan.partitions) == 2
        assert plan.partition_divisor() == 4
        assert plan.distribution.grid == ((0, 2), (1, 2))

    def test_local_iterations_split_both_ways(self):
        compiled, _p, _t = compiled_for(FULL, grid_layout(2, 2))
        plan = compiled.plans[0]
        counts = [plan.local_iters_rank(r) for r in range(4)]
        assert counts == [64, 64, 64, 64]
        assert sum(counts) == plan.total_iterations()

    def test_uneven_grid_blocks(self):
        compiled, _p, _t = compiled_for(FULL, grid_layout(4, 2))
        plan = compiled.plans[0]
        counts = [plan.local_iters_rank(r) for r in range(8)]
        assert sum(counts) == 256
        assert all(c == 32 for c in counts)

    @pytest.mark.parametrize("body", [FULL, STENCIL2D, SWEEP])
    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 2), (4, 1)])
    def test_ranks_share_out_every_iteration(self, body, shape):
        """Owner-computes executes each in-bounds iteration exactly once,
        whatever the format on either axis."""
        for b0, b1 in ((0, 0), (1, 0), (0, 3), (2, 1)):
            compiled, _p, _t = compiled_for(
                body, grid_layout(*shape, b0=b0, b1=b1)
            )
            plan = compiled.plans[0]
            counts = [
                plan.local_iters_rank(r) for r in range(shape[0] * shape[1])
            ]
            assert sum(counts) == plan.total_iterations(), (b0, b1)

    def test_grid_coords_round_trip(self):
        """Linear ranks are row-major over the grid, and the groups
        along an axis hold each rank once."""
        dist = grid_layout(4, 2).distribution
        for rank in range(8):
            assert dist.coords(rank) == {0: rank // 2, 1: rank % 2}
        assert dist.axis_groups(0) == ((0, 2, 4, 6), (1, 3, 5, 7))
        assert dist.axis_groups(1) == ((0, 1), (2, 3), (4, 5), (6, 7))


class TestCommunication:
    def test_shifts_along_both_axes(self):
        compiled, _p, _t = compiled_for(STENCIL2D, grid_layout(2, 2))
        shifts = [
            c for c in compiled.plans[0].comms if isinstance(c, ShiftComm)
        ]
        dims = {s.template_dim for s in shifts}
        assert dims == {0, 1}

    def test_slab_divided_by_orthogonal_axis(self):
        one_d, _p, _t = compiled_for(STENCIL2D, grid_layout(2, 1))
        two_d, _p, _t = compiled_for(STENCIL2D, grid_layout(2, 2))
        shift_1d = next(
            c for c in one_d.plans[0].comms
            if isinstance(c, ShiftComm) and c.template_dim == 0
        )
        shift_2d = next(
            c for c in two_d.plans[0].comms
            if isinstance(c, ShiftComm) and c.template_dim == 0
        )
        assert shift_2d.nbytes == shift_1d.nbytes // 2
        assert shift_2d.procs == 2

    def test_simulated_messages_route_along_axes(self):
        src = f"program t\n{DECLS}{STENCIL2D}      end\n"
        prog = parse_source(src)
        table = build_symbol_table(prog)
        part = partition_phases(prog, table)
        layout = grid_layout(2, 2)
        builder = compile_program(part, table, {0: layout}, IPSC860, 4)
        result = simulate(builder.programs, IPSC860, builder.collectives)
        # 2 boundary pairs per axis x 2 axes = 4 messages
        assert result.stats.messages == 4
        assert result.makespan > 0


class TestPipelinesOnGrids:
    def test_chain_procs_is_axis_length(self):
        compiled, _p, _t = compiled_for(SWEEP, grid_layout(4, 2))
        pipe = compiled.plans[0].pipeline
        assert pipe is not None
        assert pipe.chain_procs == 4
        # stages: j loop (16 trips) split over the orthogonal axis (2)
        assert pipe.stages == 8

    def test_parallel_chains_beat_single_chain(self):
        """A 4x2 grid runs two independent 4-processor pipelines, beating
        an 8-processor single chain of the same sweep."""
        src = f"program t\n{DECLS}{SWEEP}      end\n"
        prog = parse_source(src)
        table = build_symbol_table(prog)

        def measure(layout):
            part = partition_phases(prog, table)
            builder = compile_program(part, table, {0: layout}, IPSC860, 8)
            return simulate(
                builder.programs, IPSC860, builder.collectives
            ).makespan

        grid = measure(grid_layout(4, 2))
        chain = measure(grid_layout(8, 1))
        assert grid < chain

    def test_estimator_tracks_grid_pipelines(self):
        db = cached_training_database(IPSC860)
        for shape in ((4, 2), (8, 1), (2, 4)):
            compiled, _p, _t = compiled_for(SWEEP, grid_layout(*shape))
            estimate = price_phase(compiled, db, 8)
            assert estimate.pipeline > 0


class TestReductionsOnGrids:
    def test_reduction_partitioned_on_both_axes(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          s = s + a(i, j)\n        enddo\n      enddo\n"
        )
        src = (
            f"program t\n{DECLS}      double precision s\n{body}      end\n"
        )
        prog = parse_source(src)
        table = build_symbol_table(prog)
        part = partition_phases(prog, table)
        layout = grid_layout(2, 2)
        compiled = compile_phase(part.phases[0], layout, table, IPSC860)
        plan = compiled.plans[0]
        assert plan.partition_divisor() == 4
        counts = [plan.local_iters_rank(r) for r in range(4)]
        assert sum(counts) == 256
