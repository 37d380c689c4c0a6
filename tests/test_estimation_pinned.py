"""The estimator's answers, held to the bit.

One pricing path is left — ``estimate_phase_candidates``: one
``price_phase`` walk per candidate over the training database — so what
this suite holds is that path's *values* (the ``PINNED_SCALAR`` digests
of the four paper programs under every branch of the walk), that the two
shapes ``estimate_search_spaces`` runs it in (on the calling thread, or
as chunk jobs through a job runner) agree exactly, and that no second
walk grows back under ``repro/perf``.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib

import pytest

import repro.perf
from repro.perf.compiler_model import CompilerOptions
from repro.perf.estimator import (
    _MAX_BATCH_JOBS,
    estimate_phase_batch,
    estimate_search_spaces,
)
from repro.perf.training import PATTERNS
from repro.programs.registry import PROGRAMS
from repro.tool.assistant import AssistantConfig, run_assistant

PAPER_PROGRAMS = ["adi", "erlebacher", "tomcatv", "shallow"]


def price(result, options=None, job_runner=None):
    return estimate_search_spaces(
        result.partition.phases, result.layout_spaces, result.symbols,
        result.config.machine, db=result.db,
        options=options or result.config.compiler, job_runner=job_runner,
    )


def costs(estimates):
    """Every ``PhaseEstimate``, by phase, in candidate order."""
    return {
        idx: [e.estimate for e in per_candidate]
        for idx, per_candidate in estimates.per_phase.items()
    }


#: one modelled compiler per branch of ``price_phase``: the default, the
#: unvectorized shift, the uncoalesced event list, the blocked pipeline
COMPILERS = {
    "default": CompilerOptions(),
    "no-vect": CompilerOptions(message_vectorization=False),
    "no-coal": CompilerOptions(message_coalescing=False),
    "cgp": CompilerOptions(coarse_grain_pipelining=True),
}

#: estimates at 8 processors, digested (see ``estimate_digest``) when
#: the walk over the training database was still one of three copies of
#: the execution model; the one walk that is left must reproduce them
#: bit for bit
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


@pytest.fixture(scope="module", params=PAPER_PROGRAMS)
def paper_result(request):
    return request.param, run_assistant(
        PROGRAMS[request.param].source(), AssistantConfig(nprocs=8)
    )


class TestPinnedEstimates:
    @pytest.mark.parametrize("compiler", COMPILERS)
    def test_digest(self, paper_result, compiler):
        name, result = paper_result
        estimates = price(result, COMPILERS[compiler])
        assert estimate_digest(estimates) == PINNED_SCALAR[name, compiler]


class TestFanOutEquivalence:
    def test_chunked_jobs_equal_serial(self, paper_result):
        name, result = paper_result
        submitted = []

        def runner(fn, argtuples):
            submitted.append((fn, len(argtuples)))
            return [fn(*args) for args in argtuples]

        fanned = price(result, job_runner=runner)
        assert costs(fanned) == costs(price(result)), name
        ((fn, jobs),) = submitted
        assert fn is estimate_phase_batch
        assert 1 <= jobs <= _MAX_BATCH_JOBS

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
        assert [
            [e.candidate for e in estimates] for estimates in once
        ] == [list(cands) for _phase, cands in chunk]
        assert once == twice


class TestOneWalk:
    """Keeps the twin from growing back: under ``repro/perf`` a message
    pattern is priced, and a communication event told from another, in
    the execution model only."""

    ROOT = pathlib.Path(repro.perf.__file__).parent
    HOMES = {"execution_model.py": set(PATTERNS)}

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
