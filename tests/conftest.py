"""Shared fixtures: parsed programs, training data, assistant runs.

Session-scoped where construction is deterministic and read-only, so the
suite stays fast despite exercising the full pipeline many times.
"""

from __future__ import annotations

import pytest

from repro.analysis.pcfg import build_pcfg
from repro.analysis.phases import partition_phases
from repro.frontend.parser import parse_source
from repro.frontend.symbols import build_symbol_table
from repro.machine.params import IPSC860
from repro.perf.training import cached_training_database
from repro.programs.registry import PROGRAMS
from repro.tool.assistant import AssistantConfig, run_assistant


def analyze(source: str, branch_probability: float = 0.5,
            branch_prob_overrides=None):
    """Parse + symbols + phases + PCFG in one call (test helper)."""
    program = parse_source(source)
    symbols = build_symbol_table(program)
    partition = partition_phases(
        program, symbols,
        branch_probability=branch_probability,
        branch_prob_overrides=branch_prob_overrides,
    )
    pcfg = build_pcfg(partition)
    return program, symbols, partition, pcfg


@pytest.fixture(scope="session")
def training_db():
    return cached_training_database(IPSC860)


@pytest.fixture(scope="session")
def adi_small_source():
    return PROGRAMS["adi"].source(n=32, maxiter=2)


@pytest.fixture(scope="session")
def adi_small(adi_small_source):
    return analyze(adi_small_source)


@pytest.fixture(scope="session")
def tomcatv_small_source():
    return PROGRAMS["tomcatv"].source(n=32, maxiter=2)


@pytest.fixture(scope="session")
def tomcatv_small(tomcatv_small_source):
    return analyze(tomcatv_small_source)


@pytest.fixture(scope="session")
def erlebacher_small_source():
    return PROGRAMS["erlebacher"].source(n=16)


@pytest.fixture(scope="session")
def erlebacher_small(erlebacher_small_source):
    return analyze(erlebacher_small_source)


@pytest.fixture(scope="session")
def shallow_small_source():
    return PROGRAMS["shallow"].source(n=48, maxiter=2)


@pytest.fixture(scope="session")
def shallow_small(shallow_small_source):
    return analyze(shallow_small_source)


@pytest.fixture(scope="session")
def adi_assistant(adi_small_source):
    return run_assistant(adi_small_source, AssistantConfig(nprocs=4))


@pytest.fixture(scope="session")
def tomcatv_assistant(tomcatv_small_source):
    return run_assistant(tomcatv_small_source, AssistantConfig(nprocs=4))
