"""The HiGHS backend calls scipy's extension directly and answers as
``scipy.optimize.milp`` did.

Every model that ``repro.ilp.solve`` receives while the generated
corpus of the ``tool-generated`` benchmark (seeds 1000-1299, 4 procs)
and the tied seed are analysed is solved again through the old ``milp``
translation (``tests/highs_oracle.py``); both must return equal
``(status, objective, values)``.  So must an infeasible model, an empty
one and a spent time limit.
"""

from __future__ import annotations

import importlib.machinery
import math
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.ilp.scipy_backend as scipy_backend
from repro.ilp.model import MAXIMIZE, ZeroOneModel
from repro.perf.bench.suite import TIED_SEED
from repro.qa.generator import GeneratorConfig, generate_program
from repro.tool.assistant import AssistantConfig, run_assistant

from .highs_oracle import milp_solve

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

SEEDS = tuple(range(1000, 1300)) + (TIED_SEED,)


def _answer(solution):
    objective = solution.objective
    return (solution.status,
            "nan" if math.isnan(objective) else objective.hex(),
            solution.values)


@pytest.fixture(scope="module")
def solved():
    """``[(model, the live backend's solution)]`` over :data:`SEEDS`."""
    seen = []
    live = scipy_backend.solve

    def recording(model, time_limit=None):
        solution = live(model, time_limit=time_limit)
        seen.append((model, solution))
        return solution

    scipy_backend.solve = recording
    try:
        for seed in SEEDS:
            run_assistant(generate_program(seed, GeneratorConfig()).source,
                          AssistantConfig(nprocs=4))
    finally:
        scipy_backend.solve = live
    return seen


def test_generated_ties_answer_as_milp_did(solved):
    assert len(solved) == 58
    assert {model.sense for model, _ in solved} == {MAXIMIZE}
    for model, solution in solved:
        assert solution.status == "optimal", model.name
        assert _answer(solution) == _answer(milp_solve(model)), model.name


def _model(sense: str = MAXIMIZE) -> ZeroOneModel:
    model = ZeroOneModel(name="small", sense=sense)
    for var in ("x", "y", "z"):
        model.add_var(var)
    model.set_objective({"x": 3.0, "y": 2.0, "z": 1.5})
    model.add_constraint({"x": 1, "y": 1}, "<=", 1)
    model.add_constraint([("y", 1), ("z", 1)], ">=", 1)
    return model


def test_small_models_answer_as_milp_did():
    equality = _model(sense="min")
    equality.add_constraint({"x": 1, "z": 1}, "==", 1)
    repeated = _model()  # x twice in one row: milp's matrix sums them
    repeated.add_constraint([("x", 1), ("x", 1)], "<=", 1)
    for model in (_model(), _model(sense="min"), equality, repeated):
        assert _answer(scipy_backend.solve(model)) == \
            _answer(milp_solve(model))
    assert scipy_backend.solve(repeated).values == {"x": 0, "y": 1, "z": 1}


def test_infeasible_empty_and_spent_budget_answer_as_milp_did():
    infeasible = _model()
    infeasible.add_constraint({"x": 1, "y": 1, "z": 1}, ">=", 4)
    empty = ZeroOneModel(name="empty")
    unconstrained = ZeroOneModel(name="free", sense=MAXIMIZE)
    unconstrained.add_var("x")
    unconstrained.set_objective({"x": 1.0})
    cases = [
        (infeasible, None, "infeasible"),
        (empty, None, "optimal"),
        (unconstrained, None, "optimal"),
        (_model(), 0.0, "unknown"),
        (_model(), -1.0, "unknown"),
    ]
    for model, limit, status in cases:
        live = scipy_backend.solve(model, time_limit=limit)
        assert live.status == status, model.name
        assert _answer(live) == _answer(milp_solve(model, time_limit=limit))
    assert scipy_backend.solve(unconstrained).values == {"x": 1}


#: a fresh interpreter solves through the backend first, then imports
#: ``milp``, which must find the same extension module and still solve
EXTENSION_ONCE = """
import sys
import repro.ilp.scipy_backend as backend
from repro.ilp import solve
from repro.ilp.model import ZeroOneModel
model = ZeroOneModel(sense="max")
model.add_var("x")
model.set_objective({"x": 1.0})
assert solve(model).values == {"x": 1}
assert "scipy.optimize" not in sys.modules
import scipy.optimize._highspy._highs_wrapper as wrapper
from scipy.optimize import milp
assert wrapper._h is backend._h is sys.modules[backend.CORE]
assert milp([-1.0], integrality=[1], bounds=(0, 1)).x.tolist() == [1.0]
print("ok")
"""


def test_the_extension_is_loaded_once_and_milp_still_works():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", EXTENSION_ONCE], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.splitlines()[-1] == "ok"


def test_a_loaded_extension_is_reused(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the extension was looked up again")

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", refuse)
    assert scipy_backend._load_core() is sys.modules[scipy_backend.CORE]


def test_a_missing_extension_names_the_searched_path(monkeypatch, tmp_path):
    import scipy

    monkeypatch.delitem(sys.modules, scipy_backend.CORE)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError) as raised:
        scipy_backend._load_core()
    assert str(tmp_path / "optimize" / "_highspy") in str(raised.value)
