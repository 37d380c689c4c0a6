"""Dependence analysis tests."""

import pytest

from repro.analysis.dependence import is_uniform_pair, phase_dependences
from repro.analysis.phases import partition_phases
from repro.frontend.parser import parse_source
from repro.frontend.symbols import build_symbol_table


def phase_of(body, decls="      real a(8, 8), b(8, 8)\n      real s\n"
                         "      integer i, j\n"):
    src = f"program t\n{decls}{body}      end\n"
    prog = parse_source(src)
    table = build_symbol_table(prog)
    part = partition_phases(prog, table)
    assert len(part) == 1
    return part.phases[0]


class TestFlowDependences:
    def test_forward_sweep_distance_one(self):
        phase = phase_of(
            "      do j = 1, 8\n        do i = 2, 8\n"
            "          a(i, j) = a(i - 1, j)\n        enddo\n      enddo\n"
        )
        deps = phase_dependences(phase)
        flow = [d for d in deps if d.kind == "flow"]
        assert len(flow) == 1
        assert flow[0].carrier_var == "i"
        assert flow[0].distance == 1
        assert flow[0].dim == 0

    def test_backward_sweep_normalizes_positive(self):
        phase = phase_of(
            "      do j = 1, 8\n        do i = 7, 1, -1\n"
            "          a(i, j) = a(i + 1, j)\n        enddo\n      enddo\n"
        )
        flow = [d for d in phase_dependences(phase) if d.kind == "flow"]
        assert len(flow) == 1
        assert flow[0].carrier_var == "i"
        assert flow[0].distance == 1

    def test_anti_dependence(self):
        phase = phase_of(
            "      do j = 1, 8\n        do i = 1, 7\n"
            "          a(i, j) = a(i + 1, j)\n        enddo\n      enddo\n"
        )
        deps = phase_dependences(phase)
        assert [d.kind for d in deps] == ["anti"]

    def test_distance_two(self):
        phase = phase_of(
            "      do j = 1, 8\n        do i = 3, 8\n"
            "          a(i, j) = a(i - 2, j)\n        enddo\n      enddo\n"
        )
        flow = [d for d in phase_dependences(phase) if d.kind == "flow"]
        assert flow[0].distance == 2

    def test_no_dependence_between_arrays(self):
        phase = phase_of(
            "      do j = 1, 8\n        do i = 2, 8\n"
            "          a(i, j) = b(i - 1, j)\n        enddo\n      enddo\n"
        )
        assert phase_dependences(phase) == []

    def test_ziv_distinct_constants_independent(self):
        phase = phase_of(
            "      do i = 1, 8\n"
            "        a(i, 1) = a(i, 2)\n      enddo\n"
        )
        assert phase_dependences(phase) == []

    def test_ziv_same_constant_no_carried_dep(self):
        phase = phase_of(
            "      do i = 1, 8\n"
            "        a(i, 1) = a(i, 1) * 2.0\n      enddo\n"
        )
        # Same element every iteration in dim 1, same i in dim 0:
        # no *loop-carried* dependence.
        assert phase_dependences(phase) == []

    def test_coeff_two_with_odd_offset_independent(self):
        # write a(2i), read a(2i-1): lattices never meet.
        phase = phase_of(
            "      do i = 1, 4\n"
            "        a(2 * i, 1) = a(2 * i - 1, 1)\n      enddo\n"
        )
        assert phase_dependences(phase) == []


class TestUniformPair:
    def test_uniform(self):
        phase = phase_of(
            "      do j = 1, 8\n        do i = 2, 8\n"
            "          a(i, j) = a(i - 1, j)\n        enddo\n      enddo\n"
        )
        w = next(a for a in phase.accesses if a.is_write)
        r = next(a for a in phase.accesses if not a.is_write)
        assert is_uniform_pair(w, r)

    def test_transposed_not_uniform(self):
        phase = phase_of(
            "      do j = 1, 8\n        do i = 1, 8\n"
            "          a(i, j) = b(j, i)\n        enddo\n      enddo\n"
        )
        w = next(a for a in phase.accesses if a.is_write)
        r = next(a for a in phase.accesses if a.array == "b")
        assert not is_uniform_pair(w, r)
