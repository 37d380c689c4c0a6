"""Corpus regression tests: every committed repro case must parse, run
through the full pipeline, and keep passing the differential oracles.

``tests/corpus/`` holds minimized generated programs: curated coverage
cases (kind "seed") plus any divergence the fuzzer ever finds, so a bug
fixed once stays fixed."""

import os

import pytest

from repro.alignment import enumeration
from repro.alignment.ilp import ENUMERATION_BACKEND
from repro.alignment.weights import build_phase_cag
from repro.frontend.parser import parse_source
from repro.frontend.printer import format_program
from repro.qa.corpus import load_corpus
from repro.qa.oracles import check_alignment, check_resolution, check_selection
from repro.tool.assistant import run_assistant

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)


def corpus_ids():
    return [case.name for case in CORPUS]


class TestCorpusShape:
    def test_corpus_is_seeded(self):
        assert len(CORPUS) >= 10

    def test_every_case_has_metadata(self):
        for case in CORPUS:
            assert case.meta, case.name
            assert case.kind
            assert case.nprocs >= 1

    def test_seed_cases_are_minimized_reproducers(self):
        seeds = [case for case in CORPUS if case.kind == "seed"]
        assert len(seeds) >= 10
        for case in seeds:
            assert case.meta.get("minimized") is True, case.name
            assert case.seed is not None, case.name


@pytest.mark.parametrize("case", CORPUS, ids=corpus_ids())
class TestCorpusReplay:
    def test_parses_and_prints_as_fixpoint(self, case):
        program = parse_source(case.source)
        assert format_program(program) == case.source

    def test_full_pipeline_runs(self, case):
        result = run_assistant(case.source, case.config)
        assert len(result.partition.phases) >= 1
        assert result.selection.selection
        assert result.selection.objective >= 0.0

    def test_oracles_still_agree(self, case):
        result = run_assistant(case.source, case.config)
        d = result.template.rank
        for phase in result.partition.phases:
            cag = build_phase_cag(phase, result.symbols)
            divergence = check_alignment(cag, d)
            assert divergence is None, f"{case.name}: {divergence}"
            divergence = check_resolution(cag, d)
            assert divergence is None, f"{case.name}: {divergence}"
        divergence = check_selection(result.graph)
        assert divergence is None, f"{case.name}: {divergence}"

    def test_answer_is_the_solver_paths_answer(self, case, monkeypatch):
        """Enumeration changes no answer: with a zero visit cap every
        resolution overflows to the model and the solver, as before the
        direct path existed, and the pipeline selects the same thing."""
        fast = run_assistant(case.source, case.config)
        monkeypatch.setattr(enumeration, "VISIT_CAP", 0)
        solved = run_assistant(case.source, case.config)
        assert all(
            res.solution.stats.backend != ENUMERATION_BACKEND
            for res in solved.alignment_spaces.resolutions
        )
        assert [r.partitioning for r in fast.alignment_spaces.resolutions] \
            == [r.partitioning for r in solved.alignment_spaces.resolutions]
        assert fast.alignment_spaces.per_phase \
            == solved.alignment_spaces.per_phase
        assert fast.selection.selection == solved.selection.selection
        assert fast.predicted_total_us == solved.predicted_total_us
