"""Differential property: the batched (vectorized) estimator is *bitwise*
equal to the legacy scalar estimator — same compute, communication and
pipeline components for every (phase, candidate) pair.

The equality is exact, not approximate: the batched path replays the
very same IEEE-754 operations the scalar path performs (``np.interp``
matches the two-point interpolation of ``TrainingSet.predict`` element
for element, and the collect/replay assembly preserves the scalar
accumulation order), so any drift is a bug, not noise.

Covers the committed QA corpus, 50 fresh generator programs, the four
paper programs under every branch of the execution-model walk, and the
fan-out (job runner) variants.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pathlib

import numpy as np
import pytest

import repro.perf
from repro.machine import IPSC860
from repro.perf.batch import (
    estimate_phase_batch,
    estimate_phase_candidates_batched,
    price_requests,
)
from repro.perf.compiler_model import CompilerOptions
from repro.perf.estimator import (
    ESTIMATION_MODES,
    estimate_search_spaces,
)
from repro.perf.training import PATTERNS, cached_training_database
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


def both_modes(result, options=None):
    """Price ``result``'s search spaces in both modes."""
    out = {}
    for mode in ESTIMATION_MODES:
        out[mode] = estimate_search_spaces(
            result.partition.phases, result.layout_spaces,
            result.symbols, result.config.machine, db=result.db,
            options=options or result.config.compiler, mode=mode,
        )
    return out["scalar"], out["batched"]


#: one modelled compiler per branch of ``price_phase``: the default, the
#: unvectorized shift, the uncoalesced event list, the blocked pipeline
COMPILERS = {
    "default": CompilerOptions(),
    "no-vect": CompilerOptions(message_vectorization=False),
    "no-coal": CompilerOptions(message_coalescing=False),
    "cgp": CompilerOptions(coarse_grain_pipelining=True),
}

#: scalar estimates at 8 processors, digested (see ``estimate_digest``)
#: at the commit before the batched path's own copy of the walk was
#: deleted; the one walk that is left must reproduce them bit for bit
PINNED_SCALAR = {
    ("adi", "default"): "bf805e656ebb77b1",
    ("adi", "no-vect"): "ad2424c9d6212de5",
    ("adi", "no-coal"): "bf805e656ebb77b1",
    ("adi", "cgp"): "a38da56cf74202bc",
    ("erlebacher", "default"): "642b392c71294f7c",
    ("erlebacher", "no-vect"): "1d149a5a7d245804",
    ("erlebacher", "no-coal"): "642b392c71294f7c",
    ("erlebacher", "cgp"): "a63769053690e1b0",
    ("tomcatv", "default"): "909cd252d15f561c",
    ("tomcatv", "no-vect"): "df3327db2119d097",
    ("tomcatv", "no-coal"): "909cd252d15f561c",
    ("tomcatv", "cgp"): "44de4886250756df",
    ("shallow", "default"): "e9590c84326ea58e",
    ("shallow", "no-vect"): "17e06634b554a581",
    ("shallow", "no-coal"): "e9590c84326ea58e",
    ("shallow", "cgp"): "e9590c84326ea58e",
}


def estimate_digest(estimates):
    """Every cost component of every (phase, candidate), to the bit."""
    h = hashlib.sha256()
    for idx in sorted(estimates.per_phase):
        for e in estimates.per_phase[idx]:
            x = e.estimate
            h.update(
                f"{idx} {x.exec_class} {x.compute.hex()} "
                f"{float(x.communication).hex()} "
                f"{float(x.pipeline).hex()}\n".encode()
            )
    return h.hexdigest()[:16]


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
    @pytest.mark.parametrize("name,compiler", [
        pytest.param(
            name, compiler,
            id=name if compiler == "default" else f"{name}-{compiler}",
        )
        for name in ["adi", "erlebacher", "tomcatv", "shallow"]
        for compiler in COMPILERS
    ])
    def test_batched_equals_scalar(self, name, compiler):
        result = run_assistant(
            PROGRAMS[name].source(), AssistantConfig(nprocs=8)
        )
        scalar, batched = both_modes(result, COMPILERS[compiler])
        assert_estimates_identical(scalar, batched, f"{name}/{compiler}")
        assert estimate_digest(scalar) == PINNED_SCALAR[name, compiler]

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


class TestOneWalk:
    """Keeps the twin from growing back: under ``repro/perf`` a message
    pattern is priced, and a communication event told from another, in
    the execution model only (a remap is priced as one transpose)."""

    ROOT = pathlib.Path(repro.perf.__file__).parent
    HOMES = {"execution_model.py": set(PATTERNS),
             "remapping.py": {"transpose"}}

    @staticmethod
    def priced(tree):
        """``(line, pattern)`` of every ``.predict("<pattern>", ...)``."""
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "predict" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in PATTERNS
            ):
                yield node.lineno, node.args[0].value

    def offences(self):
        for path in sorted(self.ROOT.rglob("*.py")):
            where = path.relative_to(self.ROOT).as_posix()
            tree = ast.parse(path.read_text())
            for line, pattern in self.priced(tree):
                if pattern not in self.HOMES.get(where, ()):
                    yield f"{where}:{line}: prices {pattern!r}"
            if where != "execution_model.py":
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name) and node.id.endswith("Comm"):
                        yield f"{where}:{node.lineno}: names {node.id}"

    def test_patterns_are_priced_in_the_execution_model_only(self):
        assert list(self.offences()) == []

    def test_the_guard_sees_the_walk(self):
        tree = ast.parse((self.ROOT / "execution_model.py").read_text())
        assert {pattern for _line, pattern in self.priced(tree)} == set(
            PATTERNS
        )


class TestFuzzWiring:
    def test_estimator_batch_check_is_registered(self):
        report = run_fuzz(seed=900, cases=5, checks=["estimator-batch"])
        assert report.ok, report.summary()
        assert report.checks_run.get("estimator-batch") == 5
