"""HiGHS backend for 0-1 models: scipy's HiGHS extension, called directly.

This is the repo's CPLEX stand-in: an exact branch-and-cut MILP solver,
handed the model in memory the way the paper's tool hands CPLEX its
constraint matrices.  ``scipy.optimize.milp`` wraps the same extension;
this module gives HiGHS exactly what ``milp`` would (column-wise matrix
with rows ascending in each column, duplicates summed, 0/1 column
bounds, every column integer, the objective sign-flipped for
maximization, ``log_to_console`` off and ``time_limit`` only when given)
and decodes its status the way ``milp`` does.  It imports neither numpy
nor any scipy module but the extension: the extension is found through
``importlib.util.find_spec("scipy")`` without running scipy's
``__init__``, and HiGHS sizes the columns and holds their costs itself,
so no setter that converts through numpy is called.  Loading the
extension alone costs a few MB where numpy costs about 12 and
``scipy.optimize`` tens.

The extension's path and names (``_Highs`` with ``addVar``,
``changeColCost``, ``getLp`` and ``passModel``, ``HighsLp``'s fields,
``HighsModelStatus``) are scipy's private interface, checked against
scipy 1.17.1; CI runs ties against the latest scipy, so a release that
renames one fails there (DESIGN.md §11.3).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time
from typing import Dict, List, Optional

from .model import MAXIMIZE, ModelError, Solution, SolveStats, ZeroOneModel

#: the extension's real name: ``scipy.optimize`` finds it under it too
CORE = "scipy.optimize._highspy._core"


def _load_core():
    """The HiGHS extension module, loaded once per process.

    A module that is already loaded (say by ``scipy.optimize``) is
    reused: a pybind11 extension must not be initialised twice.
    """
    core = sys.modules.get(CORE)
    if core is not None:
        return core
    # the package is found, not imported: its __init__ loads numpy
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed", name="scipy")
    path = [os.path.join(p, "optimize", "_highspy")
            for p in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(CORE, path)
    if spec is None:
        raise ImportError(
            f"scipy has no HiGHS extension '_core' under {path}", name=CORE,
        )
    core = importlib.util.module_from_spec(spec)
    sys.modules[CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[CORE]
        raise
    return core


_h = _load_core()
_LIMITS = (_h.HighsModelStatus.kTimeLimit,
           _h.HighsModelStatus.kIterationLimit)


def _no_values(status: str, stats: SolveStats) -> Solution:
    return Solution(status=status, objective=float("nan"), values={},
                    stats=stats)


def _pass_model(highs, model: ZeroOneModel) -> bool:
    """Hand ``model`` to ``highs`` as its column-wise LP with every
    column integer; False as soon as HiGHS rejects a call.

    HiGHS sizes the columns and holds their costs itself (``addVar``,
    ``changeColCost``): the ``HighsLp.col_cost_`` setter would import
    numpy, which none of the other calls here does.  A call that follows
    a rejected one may crash the interpreter, so none is made.
    """
    n = model.num_variables
    index = {var: i for i, var in enumerate(model.variables)}
    sign = -1.0 if model.sense == MAXIMIZE else 1.0
    cost = [0.0] * n
    for var, coeff in model.objective.items():
        cost[index[var]] = sign * coeff

    # rows are visited in order, so each column's entries ascend by row
    columns: List[Dict[int, float]] = [{} for _ in range(n)]
    row_lower = [-float("inf")] * model.num_constraints
    row_upper = [float("inf")] * model.num_constraints
    for row, con in enumerate(model.constraints):
        for var, coeff in con.coeffs:
            column = columns[index[var]]
            column[row] = column.get(row, 0) + coeff
        if con.sense != "<=":
            row_lower[row] = con.rhs
        if con.sense != ">=":
            row_upper[row] = con.rhs
    start = [0]
    rows: List[int] = []
    values: List[float] = []
    for column in columns:
        rows.extend(column)
        values.extend(float(v) for v in column.values())
        start.append(len(rows))

    error = _h.HighsStatus.kError
    for j, c in enumerate(cost):
        if highs.addVar(0.0, 1.0) == error \
                or highs.changeColCost(j, c) == error:
            return False
    lp = highs.getLp()
    lp.num_row_ = lp.a_matrix_.num_row_ = model.num_constraints
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = values
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.integrality_ = [_h.HighsVarType.kInteger] * n
    return highs.passModel(lp) != error


def solve(
    model: ZeroOneModel, time_limit: Optional[float] = None
) -> Solution:
    """Solve ``model`` to proven optimality with HiGHS; a model HiGHS
    rejects (say, a row coefficient of 1e300) raises ``ModelError``."""
    if model.num_variables == 0:
        return Solution(status="optimal", objective=0.0, values={},
                        stats=SolveStats(backend="scipy-highs"))
    if time_limit is not None and time_limit <= 0:
        # Budget already spent before the solve began.
        return _no_values("unknown", SolveStats(backend="scipy-highs"))

    start = time.perf_counter()
    options = _h.HighsOptions()
    options.log_to_console = False
    if time_limit is not None:
        options.time_limit = time_limit
    highs = _h._Highs()
    error = _h.HighsStatus.kError
    # a rejected call proves nothing about feasibility
    if highs.passOptions(options) == error:
        raise ModelError(f"HiGHS rejected the options of {model.name!r} "
                         "(passOptions)")
    if not _pass_model(highs, model):
        raise ModelError(f"HiGHS rejected model {model.name!r} "
                         "(_pass_model)")
    if highs.run() == error:
        raise ModelError(f"HiGHS failed to solve {model.name!r} (run)")
    status = highs.getModelStatus()
    info = highs.getInfo()
    stats = SolveStats(backend="scipy-highs",
                       wall_time=time.perf_counter() - start,
                       nodes=int(info.mip_node_count))
    # A limit with a finite objective carries a feasible incumbent
    # (anytime behavior); a limit without one is "unknown", and every
    # other status short of optimal is "infeasible".
    readable = (
        status == _h.HighsModelStatus.kOptimal
        or (status in _LIMITS
            and info.objective_function_value != _h.kHighsInf)
    )
    if readable:
        x = highs.getSolution().col_value
        values = {var: int(round(x[i]))
                  for i, var in enumerate(model.variables)}
        if status == _h.HighsModelStatus.kOptimal:
            return Solution("optimal", model.objective_value(values),
                            values, stats)
        if model.is_feasible(values):
            return Solution("time_limit", model.objective_value(values),
                            values, stats)
    return _no_values("unknown" if status in _LIMITS else "infeasible",
                      stats)
