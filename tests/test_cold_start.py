"""What a cold process pays for: the default path never loads numpy or
the solver, no path loads networkx, no shipped machine runs a
simulation, and the pipeline loads none of the service, QA, bench or CLI
modules.

numpy (about 14 MB and 0.15 s to import) is loaded only by a layout
graph wide enough for the numpy selection kernel
(``selection.ilp.LIST_KERNEL_CELLS``) and by the training fit of a
machine with no committed table; the paper programs, a served miss, a
tie solved by HiGHS, a narrow graph conditioned on a cutset and the
CLI's start never load it.

``repro.ilp`` imports its HiGHS backend only when a model first
reaches it, and the backend loads scipy's HiGHS extension alone, found
without importing the ``scipy`` package, not ``scipy.optimize``, whose
import brings numpy, ``scipy.sparse`` and 561 modules, about 44 MB and
half a second: a tie loads neither numpy nor the ``scipy`` package,
and no ``scipy.optimize`` or ``scipy.sparse`` module but the
extension.  networkx (about 14 MB and 0.15 s to import) is a test
oracle only: the PCFG is a plain adjacency map.  The guard runs in a
fresh interpreter, since this one's ``sys.modules`` holds whatever
earlier tests loaded.  The shipped machines' training databases are a
committed table; the guard counts microbenchmark simulations, a count
standing for the set-up time they cost: none on the default machine or
the Paragon, and the whole 324 for a machine with one field changed.
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
from repro.service.errors import RequestValidationError
from repro.service.protocol import LayoutRequest
from repro.tool.cli import _add_solver

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: the CLI's entry points, the four paper programs as ``repro analyze
#: --program P`` resolves them by default, one paper-program miss served
#: by ``LayoutService.handle_line``, and the tied generated case, whose
#: alignment hands a tie to HiGHS (objective as ``float.hex``, the
#: ``bench/expected.json`` reference), each before anything has loaded
#: numpy; then the widened search space at 2 procs, and the five widened
#: inputs whose selection is conditioned on a cutset
#: (``tests/test_selection_wide.py``); then adi on the Paragon and on an
#: iPSC/860 with one field changed
GUARD = """
import json, sys
from dataclasses import replace
import repro, repro.tool.cli, repro.service.server
import repro.perf.training as training
from repro.distribution.search_space import DistributionOptions
from repro.machine.params import IPSC860, PARAGON
from repro.perf.bench.suite import TIED_SEED
from repro.programs.registry import PROGRAMS
from repro.qa.generator import GeneratorConfig, generate_program
from repro.service.protocol import LayoutRequest
from repro.service.server import LayoutService
from repro.tool.assistant import AssistantConfig, run_assistant

def heavy():
    return [name for name in ("networkx", "numpy", "scipy")
            if name in sys.modules]

def solver_packages():
    core = "scipy.optimize._highspy._core"
    return sorted(
        name for name in sys.modules
        if name.startswith(("scipy.optimize", "scipy.sparse"))
        and name != core and not name.startswith(core + ".")
    )

simulations = []
microbenchmark = training._microbenchmark

def counting(*args):
    simulations.append(args[1:])
    return microbenchmark(*args)

training._microbenchmark = counting

loaded = {"import": heavy()}
for name in sorted(PROGRAMS):
    request = LayoutRequest(procs=16, program=name)
    run_assistant(request.resolve_source(), request.resolve_config())
    loaded[name] = heavy()
served = json.loads(LayoutService().handle_line(json.dumps(
    {"op": "analyze", "program": "erlebacher", "procs": 8}).encode()))
loaded["served"] = heavy() if served["cache_misses"] == 7 else served
tied = run_assistant(generate_program(TIED_SEED, GeneratorConfig()).source,
                     AssistantConfig(nprocs=4))
loaded["tied"] = heavy()
loaded["tied-solver-packages"] = solver_packages()
request = LayoutRequest(procs=2, program="tomcatv")
run_assistant(request.resolve_source(), replace(
    request.resolve_config(), distributions=DistributionOptions.extended()))
loaded["tomcatv-extended"] = heavy()
for name, procs in [("tomcatv", 8), ("tomcatv", 16), ("shallow", 4),
                    ("shallow", 8), ("shallow", 16)]:
    run_assistant(PROGRAMS[name].source(), AssistantConfig(
        nprocs=procs, distributions=DistributionOptions.extended()))
loaded["wide"] = heavy()
simulated = {"default": len(simulations)}
for label, machine in [("paragon", PARAGON),
                       ("modified", replace(IPSC860, op_add=0.2))]:
    run_assistant(PROGRAMS["adi"].source(), AssistantConfig(
        nprocs=16, machine=machine))
    simulated[label] = len(simulations) - sum(simulated.values())
print(json.dumps({"loaded": loaded, "simulated": simulated,
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
        "tomcatv": [], "served": [], "tied": [],
        "tied-solver-packages": [], "tomcatv-extended": ["numpy"],
        "wide": ["numpy"],
    }
    assert report["simulated"] == {"default": 0, "paragon": 0,
                                   "modified": 324}
    assert float.fromhex(report["objective"]) == 835.8838571428571


NARROW_CONDITIONED = """
import functools, json, sys
from repro.obs import tracing
from repro.obs.events import spans_by_name
from repro.selection import minsum
from repro.selection.ilp import select_layouts
from repro.selection.layout_graph import DataLayoutGraph, LayoutEdge

differ = {(i, j): 1.0 for i in range(2) for j in range(2) if i != j}
graph = DataLayoutGraph(
    phases=(), pcfg=None, estimates=None,
    node_costs={p: [1.0, 0.0] for p in range(3)},
    edges=[LayoutEdge(0, 1, differ), LayoutEdge(1, 2, differ)],
    transitions={},
)
minsum.eliminate_component = functools.partial(
    minsum.eliminate_component, table_cap=1)
with tracing.activate(tracing.Tracer()) as tracer:
    result = select_layouts(graph)
(span,) = spans_by_name(tracer.to_dict(), "ilp.presolve")
print(json.dumps({
    "selection": sorted(result.selection.items()),
    "cutset": span["attrs"]["cutset"],
    "numpy": "numpy" in sys.modules,
}))
"""


def test_a_narrow_graph_is_conditioned_without_numpy():
    """A narrow graph whose order overflows the table cap is conditioned
    on a cutset by the list kernel, and numpy never loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", NARROW_CONDITIONED], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == {
        "selection": [[0, 1], [1, 1], [2, 1]], "cutset": 3, "numpy": False,
    }


#: what the pipeline never needs: the service and its overload and
#: observability layers, the QA and bench harnesses, the CLI, and the
#: Fortran interpreter
OUTSIDE_THE_PIPELINE = (
    "repro.service", "repro.service.*", "repro.qa", "repro.qa.*",
    "repro.perf.bench", "repro.perf.bench.*", "repro.tool.cli",
    "repro.obs.slo", "repro.obs.prometheus", "repro.obs.provenance",
    "repro.obs.window", "repro.obs.chrome", "repro.obs.events",
    "repro.resilience.admission", "repro.resilience.breaker",
    "repro.resilience.chaos", "repro.frontend.interp",
)

PIPELINE = """
import fnmatch, json, sys
import repro.tool.assistant
from repro.programs.registry import PROGRAMS
from repro.tool.assistant import AssistantConfig, run_assistant

for name in sorted(PROGRAMS):
    run_assistant(PROGRAMS[name].source(), AssistantConfig(nprocs=16))
print(json.dumps(sorted(
    name for name in sys.modules
    if any(fnmatch.fnmatchcase(name, p) for p in sys.argv[1:])
)))
"""


def test_the_pipeline_loads_only_the_pipeline():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PIPELINE, *OUTSIDE_THE_PIPELINE], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == []


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
