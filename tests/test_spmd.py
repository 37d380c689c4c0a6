"""SPMD lowering tests: remap insertion, branch determinism, pipeline
aggregation, end-to-end measurement sanity."""

import pytest

from repro.analysis.phases import partition_phases
from repro.codegen.spmd import compile_program
from repro.distribution.layouts import (
    Alignment,
    DataLayout,
    Distribution,
)
from repro.distribution.template import Template
from repro.frontend.parser import parse_source
from repro.frontend.symbols import build_symbol_table
from repro.machine.params import IPSC860
from repro.machine.simulator import simulate

SRC = """
program t
      integer n, steps
      parameter (n = 16, steps = 4)
      double precision a(n, n), b(n, n)
      integer i, j, t1
      do t1 = 1, steps
        do j = 1, n
          do i = 1, n
            a(i, j) = a(i, j) + 1.0
          enddo
        enddo
        do j = 1, n
          do i = 1, n
            b(i, j) = a(i, j) * 0.5
          enddo
        enddo
      enddo
      end
"""


@pytest.fixture()
def env():
    prog = parse_source(SRC)
    table = build_symbol_table(prog)
    part = partition_phases(prog, table)
    tpl = Template(rank=2, extents=(16, 16))

    def layout(dist_dim):
        return DataLayout.build(
            template=tpl,
            alignments={
                "a": Alignment.canonical(2),
                "b": Alignment.canonical(2),
            },
            distribution=Distribution.one_dim_block(2, dist_dim, 4),
        )

    return prog, table, part, layout


class TestRemapInsertion:
    def test_static_layout_no_remaps(self, env):
        _p, table, part, layout = env
        builder = compile_program(
            part, table, {0: layout(0), 1: layout(0)}, IPSC860, 4
        )
        assert builder.remap_count == 0

    def test_alternating_layout_remaps_per_iteration(self, env):
        _p, table, part, layout = env
        builder = compile_program(
            part, table, {0: layout(0), 1: layout(1)}, IPSC860, 4
        )
        # 'a' flips twice per time step after the first use; 'b' is only
        # touched under layout 1, so it never flips.
        # steps=4: a changes at each phase boundary crossing: 2*4 - 1 = 7
        assert builder.remap_count == 7

    def test_remap_makes_run_slower(self, env):
        _p, table, part, layout = env
        static = compile_program(
            part, table, {0: layout(0), 1: layout(0)}, IPSC860, 4
        )
        dynamic = compile_program(
            part, table, {0: layout(0), 1: layout(1)}, IPSC860, 4
        )
        t_static = simulate(static.programs, IPSC860,
                            static.collectives).makespan
        t_dynamic = simulate(dynamic.programs, IPSC860,
                             dynamic.collectives).makespan
        assert t_dynamic > t_static

    def test_missing_layout_raises(self, env):
        _p, table, part, layout = env
        with pytest.raises(KeyError):
            compile_program(part, table, {0: layout(0)}, IPSC860, 4)


class TestLayoutSignature:
    def test_same_distribution_same_signature(self, env):
        _p, _t, _part, layout = env
        assert layout(0).array_identity("a") == \
            layout(0).array_identity("a")

    def test_different_dim_differs(self, env):
        _p, _t, _part, layout = env
        assert layout(0).array_identity("a") != \
            layout(1).array_identity("a")


BRANCH_SRC = """
program t
      integer n, steps
      parameter (n = 8, steps = 10)
      double precision a(n, n)
      double precision s
      integer i, j, t1
      do t1 = 1, steps
        if (s .gt. 0.0) then
          do j = 1, n
            do i = 1, n
              a(i, j) = a(i, j) + 1.0
            enddo
          enddo
        endif
      enddo
      end
"""


class TestBranchDeterminism:
    @pytest.mark.parametrize("prob,expected", [(0.5, 5), (0.3, 3),
                                               (1.0, 10), (0.0, 0)])
    def test_branch_fires_in_proportion(self, prob, expected):
        prog = parse_source(BRANCH_SRC)
        table = build_symbol_table(prog)
        if_line = next(
            i for i, l in enumerate(BRANCH_SRC.splitlines(), start=1)
            if "if (s" in l
        )
        part = partition_phases(
            prog, table, branch_prob_overrides={if_line: prob}
        )
        tpl = Template(rank=2, extents=(8, 8))
        layout = DataLayout.build(
            template=tpl,
            alignments={"a": Alignment.canonical(2)},
            distribution=Distribution.one_dim_block(2, 0, 2),
        )
        builder = compile_program(part, table, {0: layout}, IPSC860, 2)
        # phase compute blocks appear once per taken branch
        computes = sum(
            1 for op in builder.programs[0] if op[0] == "compute"
        )
        assert computes == expected


PIPELINE_SRC = """
program t
      integer n
      parameter (n = 64)
      double precision a(n, n)
      integer i, j
      do j = 1, n
        do i = 2, n
          a(i, j) = a(i, j) - a(i - 1, j)
        enddo
      enddo
      end
"""


class TestPipelineAggregation:
    def _measure(self, max_stages):
        prog = parse_source(PIPELINE_SRC)
        table = build_symbol_table(prog)
        part = partition_phases(prog, table)
        tpl = Template(rank=2, extents=(64, 64))
        layout = DataLayout.build(
            template=tpl,
            alignments={"a": Alignment.canonical(2)},
            distribution=Distribution.one_dim_block(2, 0, 4),
        )
        builder = compile_program(
            part, table, {0: layout}, IPSC860, 4,
            max_pipeline_stages=max_stages,
        )
        return simulate(builder.programs, IPSC860, builder.collectives)

    def test_aggregation_reduces_ops_preserves_work(self):
        full = self._measure(1024)
        coarse = self._measure(8)
        assert coarse.stats.messages < full.stats.messages
        # per-proc work is preserved, so makespans stay close (fill
        # granularity differs)
        assert coarse.makespan == pytest.approx(full.makespan, rel=0.25)

    def test_pipeline_faster_than_sequential_bound(self):
        result = self._measure(1024)
        # 4 procs pipelined must beat 4x the per-proc compute
        compute = result.stats.compute_time
        assert result.makespan < compute * 1.5 + 64 * 400
