"""What a cold process pays for: the default path never loads the solver,
and no path loads networkx.

HiGHS comes with scipy.optimize and scipy.sparse, hundreds of modules
and about 40 MB, and ``repro.ilp`` imports its backend only when a model
first reaches it.  networkx (about 14 MB and 0.15 s to import) is a test
oracle only: the PCFG is a plain adjacency map.  The guard runs in a
fresh interpreter, since this one's ``sys.modules`` holds whatever
earlier tests loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.ilp import BACKENDS
from repro.service.protocol import LayoutRequest, RequestValidationError
from repro.tool.cli import _add_solver

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: the CLI's entry points, the four paper programs as ``repro analyze
#: --program P`` resolves them by default, the widened search space at 2
#: procs, and the five widened inputs whose selection is conditioned on
#: a cutset (``tests/test_selection_wide.py``); then the tied generated
#: case, whose alignment hands a tie to HiGHS (objective as
#: ``float.hex``, the ``bench/expected.json`` reference)
GUARD = """
import json, sys
from dataclasses import replace
import repro, repro.tool.cli, repro.service.server
from repro.distribution.search_space import DistributionOptions
from repro.perf.bench.suite import TIED_SEED
from repro.programs import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.service.protocol import LayoutRequest
from repro.tool.assistant import AssistantConfig, run_assistant

def heavy():
    return [name for name in ("networkx", "scipy") if name in sys.modules]

loaded = {"import": heavy()}
for name in sorted(PROGRAMS):
    request = LayoutRequest(procs=16, program=name)
    run_assistant(request.resolve_source(), request.resolve_config())
    loaded[name] = heavy()
request = LayoutRequest(procs=2, program="tomcatv")
run_assistant(request.resolve_source(), replace(
    request.resolve_config(), distributions=DistributionOptions.extended()))
loaded["tomcatv-extended"] = heavy()
for name, procs in [("tomcatv", 8), ("tomcatv", 16), ("shallow", 4),
                    ("shallow", 8), ("shallow", 16)]:
    run_assistant(PROGRAMS[name].source(), AssistantConfig(
        nprocs=procs, distributions=DistributionOptions.extended()))
loaded["wide"] = heavy()
tied = run_assistant(generate_program(TIED_SEED, GeneratorConfig()).source,
                     AssistantConfig(nprocs=4))
loaded["tied"] = heavy()
print(json.dumps({"loaded": loaded,
                  "objective": tied.predicted_total_us.hex()}))
"""


def test_default_path_never_loads_the_solver():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["loaded"] == {
        "import": [], "adi": [], "erlebacher": [], "shallow": [],
        "tomcatv": [], "tomcatv-extended": [], "wide": [],
        "tied": ["scipy"],
    }
    assert float.fromhex(report["objective"]) == 835.8838571428571


class TestBackendNames:
    def test_names_are_listed_without_loading(self):
        assert sorted(BACKENDS) == ["branch-bound", "scipy"]

    def test_cli_offers_every_backend(self):
        parser = argparse.ArgumentParser()
        _add_solver(parser)
        (backend,) = [a for a in parser._actions if a.dest == "backend"]
        assert backend.choices == ("scipy", "branch-bound")
        assert backend.default == "scipy"

    def test_request_validation_accepts_every_backend(self):
        for backend in BACKENDS:
            request = LayoutRequest.from_dict(
                {"program": "adi", "procs": 4, "backend": backend}
            )
            assert request.backend == backend
        with pytest.raises(RequestValidationError):
            LayoutRequest.from_dict(
                {"program": "adi", "procs": 4, "backend": "cplex"}
            )
