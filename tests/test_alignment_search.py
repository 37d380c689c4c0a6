"""Alignment search-space heuristic tests (paper Section 3.2)."""

import pytest

from repro.alignment.cag import CAG
from repro.alignment.search_space import (
    AlignmentCandidate,
    build_alignment_search_spaces,
    dominance_factor,
)
from repro.analysis.pcfg import build_pcfg
from repro.analysis.phases import partition_phases
from repro.distribution.template import determine_template
from repro.frontend.parser import parse_source
from repro.frontend.symbols import build_symbol_table


def spaces_for(src):
    prog = parse_source(src)
    table = build_symbol_table(prog)
    part = partition_phases(prog, table)
    pcfg = build_pcfg(part)
    template = determine_template(table)
    return (
        build_alignment_search_spaces(part.phases, pcfg, table, template),
        part,
        table,
        template,
    )


CANONICAL = """
program t
      integer n
      parameter (n = 8)
      real a(n, n), b(n, n)
      integer i, j
      do j = 1, n
        do i = 1, n
          a(i, j) = b(i, j)
        enddo
      enddo
      do j = 1, n
        do i = 1, n
          b(i, j) = a(i, j) * 2.0
        enddo
      enddo
      end
"""

CONFLICTING = """
program t
      integer n
      parameter (n = 8)
      real a(n, n), b(n, n)
      integer i, j
      do j = 1, n
        do i = 1, n
          a(i, j) = b(i, j)
        enddo
      enddo
      do j = 1, n
        do i = 1, n
          a(i, j) = b(j, i) + a(i, j)
        enddo
      enddo
      end
"""


class TestClassPartitioning:
    def test_conflict_free_program_single_class(self):
        spaces, part, _t, _tpl = spaces_for(CANONICAL)
        assert len(spaces.classes) == 1
        assert sorted(spaces.classes[0].phase_indices) == [0, 1]
        assert spaces.resolutions == []

    def test_conflicting_phases_split_classes(self):
        spaces, _p, _t, _tpl = spaces_for(CONFLICTING)
        assert len(spaces.classes) == 2

    def test_each_class_cag_conflict_free(self):
        spaces, _p, _t, _tpl = spaces_for(CONFLICTING)
        for cls in spaces.classes:
            assert not cls.cag.has_conflict()

    def test_tomcatv_two_classes(self, tomcatv_assistant):
        assert len(tomcatv_assistant.alignment_spaces.classes) == 2


class TestImports:
    def test_import_adds_candidates(self):
        spaces, _p, _t, _tpl = spaces_for(CONFLICTING)
        sizes = [len(c.candidates) for c in spaces.classes]
        # each class imports the other's information
        assert all(s == 2 for s in sizes)

    def test_import_resolutions_recorded(self):
        spaces, _p, _t, _tpl = spaces_for(CONFLICTING)
        assert len(spaces.resolutions) == 2

    def test_weaker_information_not_inserted(self):
        # identical-preference phases: import adds nothing new
        spaces, _p, _t, _tpl = spaces_for(CANONICAL)
        assert all(len(c.candidates) == 1 for c in spaces.classes)

    def test_candidate_count_bounded_by_class_count(self):
        spaces, _p, _t, _tpl = spaces_for(CONFLICTING)
        p = len(spaces.classes)
        for phase_idx, cands in spaces.per_phase.items():
            assert 1 <= len(cands) <= p

    def test_dominance_factor_exceeds_sink_weight(self):
        cag = CAG()
        cag.add_undirected_edge(("a", 0), ("b", 0), 123.0)
        assert dominance_factor(cag) > cag.total_weight()


class TestPerPhaseProjection:
    def test_every_phase_array_aligned(self):
        spaces, part, table, _tpl = spaces_for(CONFLICTING)
        for phase in part.phases:
            for cand in spaces.per_phase[phase.index]:
                for array in phase.arrays:
                    assert array in cand.alignment_map

    def test_alignment_maps_injective(self):
        spaces, part, _t, _tpl = spaces_for(CONFLICTING)
        for cands in spaces.per_phase.values():
            for cand in cands:
                for alignment in cand.alignment_map.values():
                    axis = alignment.axis_map
                    assert len(set(axis)) == len(axis)

    def test_duplicates_removed(self):
        spaces, _p, _t, _tpl = spaces_for(CONFLICTING)
        for cands in spaces.per_phase.values():
            sigs = [c.signature() for c in cands]
            assert len(sigs) == len(set(sigs))


class TestUserEditing:
    def test_insert_and_delete_candidate(self):
        spaces, part, table, tpl = spaces_for(CANONICAL)
        existing = spaces.per_phase[0][0]
        clone = AlignmentCandidate(
            partitioning=existing.partitioning,
            alignments=existing.alignments,
            provenance="user",
        )
        # identical signature: not duplicated
        spaces.insert_candidate(0, clone)
        assert len(spaces.per_phase[0]) == 1
        # different alignments: inserted, then deletable
        from repro.distribution.layouts import Alignment

        flipped = AlignmentCandidate(
            partitioning=existing.partitioning,
            alignments=tuple(
                (name, Alignment(axis_map=tuple(reversed(al.axis_map))))
                for name, al in existing.alignments
            ),
            provenance="user",
        )
        spaces.insert_candidate(0, flipped)
        assert len(spaces.per_phase[0]) == 2
        spaces.delete_candidate(0, 1)
        assert len(spaces.per_phase[0]) == 1


class TestPaperStructure:
    def test_adi_single_class_no_conflicts(self, adi_assistant):
        spaces = adi_assistant.alignment_spaces
        assert len(spaces.classes) == 1
        assert spaces.resolutions == []

    def test_tomcatv_search_spaces_have_two_entries(self, tomcatv_assistant):
        spaces = tomcatv_assistant.alignment_spaces
        sizes = {len(c) for c in spaces.per_phase.values()}
        assert sizes <= {1, 2}
        assert 2 in sizes
