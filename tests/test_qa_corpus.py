"""Corpus regression tests: every committed repro case must parse, run
through the full pipeline, and keep passing the differential oracles.

``tests/corpus/`` holds minimized generated programs: curated coverage
cases (kind "seed") plus any divergence the fuzzer ever finds, so a bug
fixed once stays fixed."""

import os

import pytest

from repro.alignment.weights import build_phase_cag
from repro.frontend.parser import parse_source
from repro.frontend.printer import format_program
from repro.qa import check_alignment, check_selection, load_corpus
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
        divergence = check_selection(result.graph)
        assert divergence is None, f"{case.name}: {divergence}"
