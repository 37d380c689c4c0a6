"""Differential property: the batched (vectorized) estimator is *bitwise*
equal to the legacy scalar estimator — same compute, communication and
pipeline components for every (phase, candidate) pair.

The equality is exact, not approximate: the batched path replays the
very same IEEE-754 operations the scalar path performs (``np.interp``
matches the two-point interpolation of ``TrainingSet.predict`` element
for element, and the collect/replay assembly preserves the scalar
accumulation order), so any drift is a bug, not noise.

Covers the committed QA corpus, 50 fresh generator programs, the four
paper programs, and the fan-out (job runner) variants.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.machine import IPSC860
from repro.perf.batch import (
    estimate_phase_batch,
    estimate_phase_candidates_batched,
    price_requests,
)
from repro.perf.estimator import (
    ESTIMATION_MODES,
    estimate_search_spaces,
)
from repro.perf.training import cached_training_database
from repro.programs import PROGRAMS
from repro.qa import load_corpus
from repro.qa.generator import GeneratorConfig, generate_program
from repro.qa.runner import run_fuzz
from repro.tool.assistant import AssistantConfig, run_assistant

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)

#: fresh generator seeds, disjoint from the committed corpus seeds
FRESH_SEEDS = list(range(2000, 2050))


def assert_estimates_identical(scalar, batched, label):
    __tracebackhint__ = True
    assert sorted(scalar.per_phase) == sorted(batched.per_phase), label
    for idx in sorted(scalar.per_phase):
        s_list = scalar.per_phase[idx]
        b_list = batched.per_phase[idx]
        assert len(s_list) == len(b_list), f"{label}: phase {idx}"
        for pos, (s, b) in enumerate(zip(s_list, b_list)):
            se, be = s.estimate, b.estimate
            where = f"{label}: phase {idx} candidate {pos}"
            assert se.exec_class == be.exec_class, where
            assert se.compute == be.compute, where
            assert se.communication == be.communication, where
            assert se.pipeline == be.pipeline, where
            assert s.total == b.total, where


def both_modes(result):
    """Price ``result``'s search spaces in both modes."""
    out = {}
    for mode in ESTIMATION_MODES:
        out[mode] = estimate_search_spaces(
            result.partition.phases, result.layout_spaces,
            result.symbols, result.config.machine, db=result.db,
            options=result.config.compiler, mode=mode,
        )
    return out["scalar"], out["batched"]


class TestCorpusEquivalence:
    @pytest.mark.parametrize(
        "case", CORPUS, ids=[case.name for case in CORPUS]
    )
    def test_batched_equals_scalar_on_corpus(self, case):
        result = run_assistant(case.source, case.config)
        scalar, batched = both_modes(result)
        assert_estimates_identical(scalar, batched, case.name)


class TestGeneratedEquivalence:
    def test_batched_equals_scalar_on_fresh_programs(self):
        # Control loops only scale PCFG transition frequencies — they do
        # not change per-candidate pricing, which is what this property
        # tests — and some looped PCFGs make the (pre-existing)
        # absorbed-flow transition pass pathologically slow.  Keep the
        # corpus in the straight-line regime so 50 programs stay cheap.
        config = GeneratorConfig(p_control_loop=0.0)
        for seed in FRESH_SEEDS:
            case = generate_program(seed, config)
            result = run_assistant(case.source, AssistantConfig(nprocs=4))
            scalar, batched = both_modes(result)
            assert_estimates_identical(scalar, batched, f"seed {seed}")


class TestPaperProgramEquivalence:
    @pytest.mark.parametrize(
        "name", ["adi", "erlebacher", "tomcatv", "shallow"]
    )
    def test_batched_equals_scalar(self, name):
        result = run_assistant(
            PROGRAMS[name].source(), AssistantConfig(nprocs=8)
        )
        scalar, batched = both_modes(result)
        assert_estimates_identical(scalar, batched, name)

    @pytest.mark.parametrize(
        "name", ["adi", "erlebacher", "tomcatv", "shallow"]
    )
    def test_pipeline_results_identical_across_modes(self, name):
        source = PROGRAMS[name].source()
        results = {
            mode: run_assistant(source, AssistantConfig(
                nprocs=8, estimation_mode=mode
            ))
            for mode in ESTIMATION_MODES
        }
        ref = results["scalar"]
        for mode, res in results.items():
            assert res.selection.selection == ref.selection.selection, mode
            assert res.selection.objective == ref.selection.objective, mode


class TestFanOutEquivalence:
    def serial_runner(self, fn, argtuples):
        return [fn(*args) for args in argtuples]

    def test_chunked_jobs_equal_serial(self, adi_assistant):
        result = adi_assistant
        serial = estimate_search_spaces(
            result.partition.phases, result.layout_spaces,
            result.symbols, result.config.machine, db=result.db,
            options=result.config.compiler, mode="batched",
        )
        fanned = estimate_search_spaces(
            result.partition.phases, result.layout_spaces,
            result.symbols, result.config.machine, db=result.db,
            options=result.config.compiler, mode="batched",
            job_runner=self.serial_runner,
        )
        assert_estimates_identical(serial, fanned, "fan-out")

    def test_batch_job_is_pure_and_ordered(self, adi_assistant):
        result = adi_assistant
        phase_by_index = {p.index: p for p in result.partition.phases}
        chunk = [
            (phase_by_index[idx], cands)
            for idx, cands in sorted(result.layout_spaces.per_phase.items())
        ]
        once = estimate_phase_batch(
            chunk, result.symbols, result.config.machine, result.db,
            result.layout_spaces.nprocs, result.config.compiler,
        )
        twice = estimate_phase_batch(
            chunk, result.symbols, result.config.machine, result.db,
            result.layout_spaces.nprocs, result.config.compiler,
        )
        assert len(once) == len(chunk)
        for a_list, b_list in zip(once, twice):
            for a, b in zip(a_list, b_list):
                assert a.estimate == b.estimate

    def test_unknown_mode_rejected(self, adi_assistant):
        result = adi_assistant
        with pytest.raises(ValueError, match="unknown estimation mode"):
            estimate_search_spaces(
                result.partition.phases, result.layout_spaces,
                result.symbols, result.config.machine, db=result.db,
                options=result.config.compiler, mode="turbo",
            )


class TestCostTablePricing:
    def test_price_requests_matches_scalar_predicts(self):
        db = cached_training_database(IPSC860)
        requests = []
        for pattern in ("shift", "broadcast", "transpose", "reduction"):
            for procs in (1, 4, 8):
                for nbytes in (0, 7, 512, 65536, 10**8):
                    requests.append(
                        (pattern, procs, nbytes, "unit", "low")
                    )
                    requests.append(
                        (pattern, procs, nbytes, "nonunit", "high")
                    )
        table = price_requests(db, requests)
        for req, priced in zip(requests, table.values):
            pattern, procs, nbytes, stride, latency = req
            direct = db.predict(
                pattern, procs, nbytes, stride=stride, latency=latency
            )
            assert priced == direct, req

    def test_predict_many_matches_predict_elementwise(self):
        db = cached_training_database(IPSC860)
        rng = np.random.default_rng(42)
        sizes = np.concatenate([
            rng.integers(0, 2**26, size=200).astype(np.float64),
            np.array([0.0, 1.0, 3.5, 2.0**40]),
        ])
        for key, ts in sorted(
            db.sets.items(),
            key=lambda kv: (kv[0].pattern, kv[0].procs, kv[0].stride,
                            kv[0].latency),
        ):
            many = ts.predict_many(sizes)
            for x, y in zip(sizes.tolist(), many.tolist()):
                assert y == ts.predict(x), (key, x)


class TestFuzzWiring:
    def test_estimator_batch_check_is_registered(self):
        report = run_fuzz(seed=900, cases=5, checks=["estimator-batch"])
        assert report.ok, report.summary()
        assert report.checks_run.get("estimator-batch") == 5
