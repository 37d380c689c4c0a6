"""Structural tests of the four bundled benchmark programs against the
facts the paper states about them."""

import pytest

from repro.alignment.search_space import build_alignment_search_spaces
from repro.alignment.weights import build_phase_cag
from repro.codegen.comm import ReductionComm
from repro.codegen.spmd import compile_phase
from repro.distribution.template import determine_template
from repro.frontend.parser import parse_source
from repro.programs.registry import PROGRAMS
from repro.programs.tomcatv import smoothing_if_line

from .helpers import phase_dependences


class TestRegistry:
    def test_get_program(self):
        assert PROGRAMS["adi"].name == "adi"
        with pytest.raises(KeyError):
            PROGRAMS["linpack"]

    def test_source_parameterization(self):
        src = PROGRAMS["adi"].source(n=48, dtype="real", maxiter=7)
        assert "n = 48" in src and "maxiter = 7" in src
        assert "real x(" in src

    def test_default_source(self):
        src = PROGRAMS["erlebacher"].source()
        assert "n = 64" in src
        assert "double precision f(" in src

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_sources_parse_at_all_grid_sizes(self, name):
        spec = PROGRAMS[name]
        for n in spec.grid_sizes[:2]:
            kwargs = {"n": n}
            if spec.has_time_loop:
                kwargs["maxiter"] = 2
            prog = parse_source(spec.source(**kwargs))
            assert prog.name == name


class TestAdi:
    def test_flow_dep_phases(self, adi_small):
        _p, _s, part, _pcfg = adi_small
        carried = {}
        for phase in part.phases:
            deps = [d for d in phase_dependences(phase)
                    if d.kind == "flow"]
            if deps:
                carried[phase.index] = {d.carrier_var for d in deps}
        # two phases carry deps along i, two along j (paper Section 4)
        assert carried == {2: {"i"}, 3: {"i"}, 6: {"j"}, 7: {"j"}}

    def test_no_alignment_conflicts(self, adi_small, training_db):
        prog, table, part, pcfg = adi_small
        for phase in part.phases:
            assert not build_phase_cag(phase, table).has_conflict()

    def test_template(self, adi_small):
        _p, table, _part, _pcfg = adi_small
        tpl = determine_template(table)
        assert tpl.rank == 2
        assert tpl.extents == (32, 32)


class TestErlebacher:
    def test_symmetric_sweep_dependences(self, erlebacher_small):
        _p, _s, part, _pcfg = erlebacher_small
        carried = {}
        for phase in part.phases:
            deps = [d for d in phase_dependences(phase)
                    if d.kind == "flow"]
            if deps:
                carried[phase.index] = {d.carrier_var for d in deps}
        assert carried == {
            8: {"i"}, 10: {"i"},
            21: {"j"}, 23: {"j"},
            34: {"k"}, 36: {"k"},
        }

    def test_read_only_shared_array(self, erlebacher_small):
        _p, _s, part, _pcfg = erlebacher_small
        f_written = any(
            acc.array == "f" and acc.is_write
            for phase in part.phases[1:] for acc in phase.accesses
        )
        assert not f_written  # written only by the init phase
        f_read_in = sum(
            1 for phase in part.phases[1:] if "f" in phase.arrays
        )
        assert f_read_in >= 15  # shared by all three computations

    def test_four_three_dimensional_arrays(self, erlebacher_small):
        _p, table, _part, _pcfg = erlebacher_small
        cubes = [a.name for a in table.arrays() if a.rank == 3]
        assert sorted(cubes) == ["f", "ux", "uy", "uz"]

    def test_straight_line_no_time_loop(self, erlebacher_small):
        _p, _s, part, _pcfg = erlebacher_small
        from repro.analysis.phases import ControlLoop

        assert not any(
            isinstance(item, ControlLoop) for item in part.structure.items
        )


class TestTomcatv:
    def test_alignment_conflict_exists(self, tomcatv_small):
        prog, table, part, pcfg = tomcatv_small
        from repro.alignment.cag import CAG

        merged = CAG.merge(
            *[build_phase_cag(p, table) for p in part.phases]
        )
        assert merged.has_conflict()
        conflicted_arrays = set()
        for component in merged.components():
            arrays = [array for array, _dim in component]
            conflicted_arrays |= {a for a in arrays if arrays.count(a) > 1}
        # the conflicts involve the workspace arrays
        assert {"aa", "dd"} & conflicted_arrays or conflicted_arrays

    def test_reduction_phase_exists(self, tomcatv_assistant):
        # the compiler model's rule: a statement with no array write
        # target reduces into a scalar
        result = tomcatv_assistant
        layouts = result.selected_layouts
        assert any(
            isinstance(comm, ReductionComm)
            for phase in result.partition.phases
            for plan in compile_phase(phase, layouts[phase.index],
                                      result.symbols,
                                      result.config.machine).plans
            for comm in plan.comms
        )

    def test_smoothing_if_line_found(self):
        src = PROGRAMS["tomcatv"].source(n=32, maxiter=2)
        line = smoothing_if_line(src)
        assert "rmax" in src.splitlines()[line - 1]

    def test_solver_deps_along_i(self, tomcatv_small):
        _p, _s, part, _pcfg = tomcatv_small
        for idx in (7, 8, 9, 10):
            deps = [d for d in phase_dependences(part.phases[idx])
                    if d.kind == "flow"]
            assert deps and all(d.carrier_var == "i" for d in deps)


class TestShallow:
    def test_no_flow_dependences(self, shallow_small):
        _p, _s, part, _pcfg = shallow_small
        for phase in part.phases:
            assert not [
                d for d in phase_dependences(phase) if d.kind == "flow"
            ]

    def test_fourteen_arrays(self, shallow_small):
        _p, table, _part, _pcfg = shallow_small
        assert len(table.arrays()) == 14

    def test_no_conflicts_single_class(self, shallow_small):
        prog, table, part, pcfg = shallow_small
        tpl = determine_template(table)
        spaces = build_alignment_search_spaces(
            part.phases, pcfg, table, tpl
        )
        assert len(spaces.classes) == 1

    def test_wrap_phases_are_one_dimensional_loops(self, shallow_small):
        _p, _s, part, _pcfg = shallow_small
        one_d = [
            ph for ph in part.phases
            if max(len(acc.loops) for acc in ph.accesses) == 1
        ]
        assert len(one_d) == 14  # 2 wraps x 7 wrapped fields
