"""The HiGHS backend calls scipy's extension directly and answers as
``scipy.optimize.milp`` did.

Every model that ``repro.ilp.solve`` receives while the generated
corpus of the ``tool-generated`` benchmark (seeds 1000-1299, 4 procs)
and the tied seed are analysed is solved again through the old ``milp``
translation (``tests/highs_oracle.py``); both must return equal
``(status, objective, values)``.  So must an infeasible model, an empty
one and a spent time limit.  The LP that HiGHS holds after the live
build must equal, field by field, the one it holds after the oracle's
one-call build (``highs_oracle.lp``) on each of those models, and the
two builds must answer alike on models with non-finite or huge
coefficients.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.ilp.scipy_backend as scipy_backend
from repro.ilp.model import MAXIMIZE, ModelError, ZeroOneModel
from repro.perf.bench.suite import TIED_SEED
from repro.qa.generator import GeneratorConfig, generate_program
from repro.tool.assistant import AssistantConfig, run_assistant

from . import highs_oracle
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


def _small_models():
    """Both senses, an equality row, and x twice in one row (last)."""
    equality = _model(sense="min")
    equality.add_constraint({"x": 1, "z": 1}, "==", 1)
    repeated = _model()  # x twice in one row: milp's matrix sums them
    repeated.add_constraint([("x", 1), ("x", 1)], "<=", 1)
    return [_model(), _model(sense="min"), equality, repeated]


def _infeasible_empty_unconstrained():
    infeasible = _model()
    infeasible.add_constraint({"x": 1, "y": 1, "z": 1}, ">=", 4)
    empty = ZeroOneModel(name="empty")
    unconstrained = ZeroOneModel(name="free", sense=MAXIMIZE)
    unconstrained.add_var("x")
    unconstrained.set_objective({"x": 1.0})
    return [infeasible, empty, unconstrained]


def test_small_models_answer_as_milp_did():
    *_, repeated = models = _small_models()
    for model in models:
        assert _answer(scipy_backend.solve(model)) == \
            _answer(milp_solve(model))
    assert scipy_backend.solve(repeated).values == {"x": 0, "y": 1, "z": 1}


def test_infeasible_empty_and_spent_budget_answer_as_milp_did():
    infeasible, empty, unconstrained = _infeasible_empty_unconstrained()
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


def _held(pass_model, model):
    """Every field of the LP that HiGHS holds once ``pass_model`` has
    handed it ``model`` (floats as ``float.hex``, so NaN equals NaN)."""
    h = scipy_backend._h
    highs = h._Highs()
    options = h.HighsOptions()
    options.log_to_console = False
    assert highs.passOptions(options) == h.HighsStatus.kOk
    assert pass_model(highs, model), model.name
    lp = highs.getLp()
    matrix = lp.a_matrix_

    def floats(array):
        return [float(v).hex() for v in array]

    return {
        "num_col": lp.num_col_, "num_row": lp.num_row_,
        "col_cost": floats(lp.col_cost_),
        "col_lower": floats(lp.col_lower_),
        "col_upper": floats(lp.col_upper_),
        "integrality": list(lp.integrality_),
        "row_lower": floats(lp.row_lower_),
        "row_upper": floats(lp.row_upper_),
        "format": matrix.format_, "matrix_cols": matrix.num_col_,
        "matrix_rows": matrix.num_row_, "start": list(matrix.start_),
        "p_end": list(matrix.p_end_), "index": list(matrix.index_),
        "value": floats(matrix.value_),
        "sense": lp.sense_, "offset": float(lp.offset_).hex(),
        "model_name": lp.model_name_, "col_names": list(lp.col_names_),
        "row_names": list(lp.row_names_),
        "is_scaled": lp.is_scaled_, "is_moved": lp.is_moved_,
    }


def test_the_build_holds_the_lp_the_one_call_build_held(solved):
    models = ([model for model, _ in solved] + _small_models()
              + _infeasible_empty_unconstrained())
    assert len(models) == 65
    for model in models:
        assert _held(scipy_backend._pass_model, model) == \
            _held(highs_oracle.pass_model, model), model.name


def test_a_model_highs_rejects_is_a_model_error():
    """A row coefficient of 1e300 makes HiGHS refuse the model, so no
    solve runs: that proves nothing about feasibility (all-zero is
    feasible here), and the backend must not answer "infeasible"."""
    model = ZeroOneModel(name="huge-row", sense=MAXIMIZE)
    model.add_var("x")
    model.add_var("y")
    model.set_objective({"x": 1.0, "y": 1.0})
    model.add_constraint({"x": 1e300, "y": 1.0}, "<=", 1)
    assert model.is_feasible({"x": 0, "y": 0})
    with pytest.raises(ModelError, match="huge-row"):
        scipy_backend.solve(model)


#: a non-finite edge model is refused while it is built; each finite one
#: is solved by the live backend, then by the same backend with the
#: oracle's one-call build in place of its own; the answers are printed
#: as they come, so a crash shows which model it was
EDGES = """
import json, math, sys
import repro.ilp.scipy_backend as backend
from repro.ilp.model import MAXIMIZE, ModelError, ZeroOneModel
from tests import highs_oracle

def edge(cost=3.0, coeff=1.0):
    model = ZeroOneModel(name=f"cost={cost!r},coeff={coeff!r}",
                         sense=MAXIMIZE)
    for var in ("x", "y", "z"):
        model.add_var(var)
    model.set_objective({"x": cost, "y": 2.0, "z": 1.5})
    model.add_constraint({"x": coeff, "y": 1}, "<=", 1)
    model.add_constraint({"y": 1, "z": 1}, ">=", 1)
    return model

inf = float("inf")
for kwargs in (dict(cost=inf), dict(cost=-inf), dict(cost=float("nan")),
               dict(coeff=inf), dict(coeff=-inf), dict(coeff=float("nan"))):
    try:
        edge(**kwargs)
    except ModelError:
        print(json.dumps(["refused", repr(kwargs)]), flush=True)
models = [edge(cost=1e300), edge(coeff=1e300)]
live = backend._pass_model
for build in (live, highs_oracle.pass_model):
    backend._pass_model = build
    for model in models:
        try:
            solution = backend.solve(model)
        except ModelError as exc:
            answer = [model.name, "ModelError", str(exc)]
        else:
            answer = [model.name, solution.status,
                      repr(solution.objective), solution.values]
        print(json.dumps(answer), flush=True)
"""


def test_edge_models_answer_as_the_one_call_build_did():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(SRC.parent)]))
    run = subprocess.run(
        [sys.executable, "-c", EDGES], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    answers = [json.loads(line) for line in run.stdout.splitlines()]
    assert [kind for kind, _ in answers[:6]] == ["refused"] * 6
    assert len(answers) == 10
    assert answers[6:8] == answers[8:]
    assert answers[6][1] == "optimal"
    assert answers[7][1] == "ModelError"


#: a fresh interpreter solves through the backend first, loading neither
#: numpy nor the scipy package, then imports ``milp``, which must find
#: the same extension module and still solve
EXTENSION_ONCE = """
import sys
import repro.ilp.scipy_backend as backend
from repro.ilp import solve
from repro.ilp.model import ZeroOneModel
model = ZeroOneModel(sense="max")
model.add_var("x")
model.set_objective({"x": 1.0})
assert solve(model).values == {"x": 1}
assert [name for name in ("numpy", "scipy") if name in sys.modules] == []
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


def _scipy_found_in(monkeypatch, spec):
    """``importlib.util.find_spec("scipy")`` returns ``spec`` from now on."""
    find_spec = importlib.util.find_spec

    def finding(name, package=None):
        return spec if name == "scipy" else find_spec(name, package)

    monkeypatch.delitem(sys.modules, scipy_backend.CORE)
    monkeypatch.setattr(importlib.util, "find_spec", finding)


def test_a_missing_extension_names_the_searched_path(monkeypatch, tmp_path):
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    _scipy_found_in(monkeypatch, spec)
    with pytest.raises(ImportError) as raised:
        scipy_backend._load_core()
    assert str(tmp_path / "optimize" / "_highspy") in str(raised.value)


def test_a_missing_scipy_is_an_import_error_naming_it(monkeypatch):
    _scipy_found_in(monkeypatch, None)
    with pytest.raises(ImportError) as raised:
        scipy_backend._load_core()
    assert raised.value.name == "scipy"
    assert "scipy" in str(raised.value)
