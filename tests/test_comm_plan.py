"""Compiler-model classification tests: where and what communication the
modelled compiler generates for a statement under a layout."""

import pytest

from repro.analysis.phases import partition_phases
from repro.codegen.comm import (
    BroadcastComm,
    GatherComm,
    ReductionComm,
    ShiftComm,
)
from repro.codegen.spmd import compile_phase
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

DECLS = (
    "      integer n\n      parameter (n = 16)\n"
    "      double precision a(n, n), b(n, n), w(n, n)\n"
    "      double precision v(n)\n"
    "      double precision s\n"
    "      integer i, j\n"
)


def compiled_for(body, dist_dim, alignments=None, procs=4):
    src = f"program t\n{DECLS}{body}      end\n"
    prog = parse_source(src)
    table = build_symbol_table(prog)
    part = partition_phases(prog, table)
    assert len(part) == 1
    phase = part.phases[0]
    tpl = Template(rank=2, extents=(16, 16))
    align = alignments or {}
    for array in phase.arrays:
        sym = table.get(array)
        if array not in align and hasattr(sym, "rank"):
            align[array] = Alignment.canonical(sym.rank)
    layout = DataLayout.build(
        template=tpl,
        alignments=align,
        distribution=Distribution.one_dim_block(2, dist_dim, procs),
    )
    return compile_phase(phase, layout, table, IPSC860), phase


STENCIL = (
    "      do j = 1, n\n        do i = 2, n\n"
    "          a(i, j) = b(i - 1, j) + b(i, j)\n"
    "        enddo\n      enddo\n"
)


class TestShift:
    def test_offset_read_along_distributed_dim(self):
        compiled, _ = compiled_for(STENCIL, dist_dim=0)
        comms = compiled.plans[0].comms
        shifts = [c for c in comms if isinstance(c, ShiftComm)]
        assert len(shifts) == 1
        assert shifts[0].array == "b"
        assert shifts[0].offset == -1
        assert shifts[0].nbytes == 16 * 8  # one boundary column slab

    def test_offset_along_serial_dim_is_local(self):
        compiled, _ = compiled_for(STENCIL, dist_dim=1)
        assert compiled.plans[0].comms == []

    def test_buffering_by_storage_order(self):
        # fixing dim 0 (row slab) is strided in column-major -> buffered
        compiled, _ = compiled_for(STENCIL, dist_dim=0)
        shift = compiled.plans[0].comms[0]
        assert shift.buffered
        body = (
            "      do j = 2, n\n        do i = 1, n\n"
            "          a(i, j) = b(i, j - 1)\n        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=1)
        shift = compiled.plans[0].comms[0]
        assert not shift.buffered

    def test_coalescing_same_offset(self):
        body = (
            "      do j = 1, n\n        do i = 2, n\n"
            "          a(i, j) = b(i - 1, j) * b(i - 1, j)\n"
            "        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=0)
        shifts = [
            c for c in compiled.plans[0].comms if isinstance(c, ShiftComm)
        ]
        assert len(shifts) == 1

    def test_two_offsets_two_messages(self):
        body = (
            "      do j = 1, n\n        do i = 2, n - 1\n"
            "          a(i, j) = b(i - 1, j) + b(i + 1, j)\n"
            "        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=0)
        shifts = [
            c for c in compiled.plans[0].comms if isinstance(c, ShiftComm)
        ]
        assert {s.offset for s in shifts} == {-1, 1}


class TestGatherAndBroadcast:
    def test_transposed_read_is_gather(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = w(j, i)\n        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=0)
        gathers = [
            c for c in compiled.plans[0].comms if isinstance(c, GatherComm)
        ]
        assert len(gathers) == 1 and gathers[0].array == "w"

    def test_transposed_alignment_removes_gather(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = w(j, i)\n        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(
            body, dist_dim=0,
            alignments={"w": Alignment(axis_map=(1, 0))},
        )
        assert compiled.plans[0].comms == []

    def test_constant_subscript_broadcast(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = b(1, j)\n        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=0)
        bcasts = [
            c for c in compiled.plans[0].comms
            if isinstance(c, BroadcastComm)
        ]
        assert len(bcasts) == 1

    def test_replicated_coefficient_no_comm(self):
        # v aligned with t0 but t1 distributed: replicated, local reads.
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = a(i, j) * v(i)\n        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(
            body, dist_dim=1, alignments={"v": Alignment(axis_map=(0,))}
        )
        assert compiled.plans[0].comms == []

    def test_aligned_coefficient_no_comm(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          a(i, j) = a(i, j) * v(i)\n        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(
            body, dist_dim=0, alignments={"v": Alignment(axis_map=(0,))}
        )
        assert compiled.plans[0].comms == []


class TestPipelines:
    FWD = (
        "      do j = 1, n\n        do i = 2, n\n"
        "          a(i, j) = a(i, j) - a(i - 1, j)\n"
        "        enddo\n      enddo\n"
    )

    def test_fine_grain_pipeline(self):
        compiled, _ = compiled_for(self.FWD, dist_dim=0)
        pipe = compiled.plans[0].pipeline
        assert pipe is not None
        assert pipe.stages == 16  # j loop outside i
        assert pipe.inner_iters == 1
        assert pipe.msg_bytes == 8
        assert pipe.direction == 1

    def test_no_pipeline_on_other_dim(self):
        compiled, _ = compiled_for(self.FWD, dist_dim=1)
        assert compiled.plans[0].pipeline is None

    def test_backward_sweep_direction(self):
        body = (
            "      do j = 1, n\n        do i = n - 1, 1, -1\n"
            "          a(i, j) = a(i, j) - a(i + 1, j)\n"
            "        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=0)
        pipe = compiled.plans[0].pipeline
        assert pipe is not None and pipe.direction == -1

    def test_outermost_dependence_sequentializes(self):
        body = (
            "      do j = 2, n\n        do i = 1, n\n"
            "          a(i, j) = a(i, j) - a(i, j - 1)\n"
            "        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=1)
        pipe = compiled.plans[0].pipeline
        assert pipe is not None
        assert pipe.stages <= 1
        assert pipe.msg_bytes == 16 * 8  # a whole column boundary

    def test_middle_loop_coarse_grain(self):
        src_decls = (
            "      integer n\n      parameter (n = 8)\n"
            "      double precision u(n, n, n)\n"
            "      integer i, j, k\n"
        )
        body = (
            "      do k = 1, n\n        do j = 2, n\n"
            "          do i = 1, n\n"
            "            u(i, j, k) = u(i, j, k) - u(i, j - 1, k)\n"
            "          enddo\n        enddo\n      enddo\n"
        )
        src = f"program t\n{src_decls}{body}      end\n"
        prog = parse_source(src)
        table = build_symbol_table(prog)
        part = partition_phases(prog, table)
        tpl = Template(rank=3, extents=(8, 8, 8))
        layout = DataLayout.build(
            template=tpl,
            alignments={"u": Alignment.canonical(3)},
            distribution=Distribution.one_dim_block(3, 1, 4),
        )
        compiled = compile_phase(part.phases[0], layout, table, IPSC860)
        pipe = compiled.plans[0].pipeline
        assert pipe.stages == 8  # k loop only
        assert pipe.inner_iters == 8  # i loop
        assert pipe.msg_bytes == 8 * 8


class TestReductionPlan:
    def test_scalar_reduction_event(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          s = s + a(i, j)\n        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=0)
        reds = [
            c
            for plan in compiled.plans
            for c in plan.comms
            if isinstance(c, ReductionComm)
        ]
        assert len(reds) == 1

    def test_reduction_partitioned_by_read(self):
        body = (
            "      do j = 1, n\n        do i = 1, n\n"
            "          s = s + a(i, j)\n        enddo\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=0)
        plan = compiled.plans[0]
        assert [pd.var for pd in plan.partitions] == ["i"]


class TestLocalIterations:
    def test_exact_boundary_counts(self):
        compiled, phase = compiled_for(STENCIL, dist_dim=0)
        plan = compiled.plans[0]
        # i runs 2..16 partitioned over 4 procs by blocks of 4
        counts = [plan.local_iters_rank(p) for p in range(4)]
        assert counts == [3 * 16, 4 * 16, 4 * 16, 4 * 16]
        assert sum(counts) == plan.total_iterations()

    def test_localized_write_single_owner(self):
        body = (
            "      do j = 1, n\n"
            "        a(1, j) = b(2, j)\n      enddo\n"
        )
        compiled, _ = compiled_for(body, dist_dim=0)
        plan = compiled.plans[0]
        counts = [plan.local_iters_rank(p) for p in range(4)]
        assert counts == [16, 0, 0, 0]

    def test_replicated_write_everywhere(self):
        body = (
            "      do i = 1, n\n"
            "        v(i) = 1.0\n      enddo\n"
        )
        compiled, _ = compiled_for(
            body, dist_dim=1, alignments={"v": Alignment(axis_map=(0,))}
        )
        plan = compiled.plans[0]
        counts = [plan.local_iters_rank(p) for p in range(4)]
        assert counts == [16, 16, 16, 16]


class TestOwnedIterationsAgainstEnumeration:
    """``local_iters_rank`` against plain enumeration of the loop, for
    every format, stepped loops included: a loop's values sit on the
    lattice ``lo + k*step``, and only those are credited."""

    EXTENT = 12
    #: (procs, block): BLOCK, CYCLIC, BLOCK-CYCLIC(3)
    FORMATS = [(4, 0), (4, 1), (3, 0), (3, 1), (2, 3)]
    #: subscript text and its value, keeping 1..6 / 1..12 in bounds
    SUBSCRIPTS = {
        "i": lambda i: i,
        "13 - i": lambda i: 13 - i,
        "2 * i - 1": lambda i: 2 * i - 1,
    }

    def plan_for(self, lo, hi, step, subscript, procs, block):
        src = (
            "program t\n      double precision x(12)\n      integer i\n"
            f"      do i = {lo}, {hi}, {step}\n"
            f"        x({subscript}) = 1.0\n      enddo\n      end\n"
        )
        prog = parse_source(src)
        table = build_symbol_table(prog)
        phase = partition_phases(prog, table).phases[0]
        dist = Distribution.one_dim(1, 0, DimDistribution(procs, block))
        layout = DataLayout.build(
            Template(rank=1, extents=(self.EXTENT,)),
            {"x": Alignment.canonical(1)}, dist,
        )
        return compile_phase(phase, layout, table, IPSC860).plans[0]

    @pytest.mark.parametrize("step", [1, -1, 2, -2, 3, -3])
    @pytest.mark.parametrize("subscript", sorted(SUBSCRIPTS))
    def test_every_format(self, step, subscript):
        index = self.SUBSCRIPTS[subscript]
        top = 6 if subscript.startswith("2") else 12
        for lo, hi in ((1, top), (2, top - 1), (3, top)):
            if step < 0:
                lo, hi = hi, lo
            values = range(lo, hi + (1 if step > 0 else -1), step)
            for procs, block in self.FORMATS:
                dist = DimDistribution(procs, block)
                plan = self.plan_for(lo, hi, step, subscript, procs, block)
                expected = [
                    sum(dist.owner(index(v), self.EXTENT) == rank
                        for v in values)
                    for rank in range(procs)
                ]
                counts = [plan.local_iters_rank(r) for r in range(procs)]
                assert counts == expected, (lo, hi, step, procs, block)
                assert sum(counts) == plan.total_iterations()

    def test_the_issue_example(self):
        """Extent 10 on 4 processors, ``do v = 1, 10, 2`` writing
        ``a(v)``: block [4, 6] owns v = 5 only."""
        src = (
            "program t\n      double precision x(10)\n      integer i\n"
            "      do i = 1, 10, 2\n        x(i) = 1.0\n      enddo\n"
            "      end\n"
        )
        prog = parse_source(src)
        table = build_symbol_table(prog)
        phase = partition_phases(prog, table).phases[0]
        layout = DataLayout.build(
            Template(rank=1, extents=(10,)), {"x": Alignment.canonical(1)},
            Distribution.one_dim_block(1, 0, 4),
        )
        plan = compile_phase(phase, layout, table, IPSC860).plans[0]
        assert [plan.local_iters_rank(r) for r in range(4)] == [2, 1, 2, 0]
