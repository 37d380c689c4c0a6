"""Two earlier ways of handing a model to HiGHS, kept as test oracles
only.

:func:`milp_solve` is the ``scipy.optimize.milp`` translation that
``repro.ilp``'s HiGHS backend ran before it called scipy's HiGHS
extension directly.  The model goes to ``milp`` as a CSR matrix, binary
bounds and every variable integer, sign-flipped for maximization;
``milp`` validates it, builds the column-wise matrix and hands it to the
same extension.  The live backend must return equal ``(status,
objective, values)`` on every model.

:func:`lp` is the extension-level build the backend ran before HiGHS
sized the columns and held their costs itself: one ``HighsLp`` filled
field by field, ``col_cost_`` included (whose setter imports numpy),
passed in one call (:func:`pass_model`).  The LP HiGHS holds after the
live build must equal the one it holds after this one.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.model import MAXIMIZE, Solution, SolveStats, ZeroOneModel
from repro.ilp.scipy_backend import _h


def lp(model: ZeroOneModel) -> _h.HighsLp:
    """``model`` as HiGHS's column-wise LP with every column integer."""
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

    lp = _h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = model.num_constraints
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = values
    lp.col_cost_ = cost
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [1.0] * n
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.integrality_ = [_h.HighsVarType.kInteger] * n
    return lp


def pass_model(highs, model: ZeroOneModel) -> bool:
    """The backend's ``_pass_model`` as it was: :func:`lp` in one call."""
    return highs.passModel(lp(model)) != _h.HighsStatus.kError


def milp_solve(
    model: ZeroOneModel, time_limit: Optional[float] = None
) -> Solution:
    """Solve ``model`` to proven optimality with HiGHS."""
    n = model.num_variables
    if n == 0:
        return Solution(
            status="optimal",
            objective=0.0,
            values={},
            stats=SolveStats(backend="scipy-highs"),
        )

    if time_limit is not None and time_limit <= 0:
        # Budget already spent before the solve began.
        return Solution(
            status="unknown",
            objective=float("nan"),
            values={},
            stats=SolveStats(backend="scipy-highs"),
        )

    sign = -1.0 if model.sense == MAXIMIZE else 1.0
    c = np.zeros(n)
    for var, coeff in model.objective.items():
        c[model.var_index(var)] = sign * coeff

    rows, cols, data = [], [], []
    lower = np.full(len(model.constraints), -np.inf)
    upper = np.full(len(model.constraints), np.inf)
    for row, con in enumerate(model.constraints):
        for var, coeff in con.coeffs:
            rows.append(row)
            cols.append(model.var_index(var))
            data.append(coeff)
        if con.sense == "<=":
            upper[row] = con.rhs
        elif con.sense == ">=":
            lower[row] = con.rhs
        else:
            lower[row] = upper[row] = con.rhs

    start = time.perf_counter()
    kwargs = {}
    if time_limit is not None:
        kwargs["options"] = {"time_limit": time_limit}
    if model.constraints:
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(model.constraints), n)
        )
        constraints = [LinearConstraint(matrix, lower, upper)]
    else:
        constraints = []
    result = milp(
        c=c,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        **kwargs,
    )
    elapsed = time.perf_counter() - start
    stats = SolveStats(
        backend="scipy-highs",
        wall_time=elapsed,
        nodes=int(getattr(result, "mip_node_count", 0) or 0),
    )
    if not result.success:
        # HiGHS status 1 = iteration/time limit; any feasible point it
        # carries is a usable incumbent (anytime behavior).  Everything
        # else without a certificate of infeasibility is "unknown".
        hit_limit = getattr(result, "status", None) == 1
        if hit_limit and getattr(result, "x", None) is not None:
            values = {
                var: int(round(result.x[model.var_index(var)]))
                for var in model.variables
            }
            if model.is_feasible(values):
                return Solution(
                    status="time_limit",
                    objective=model.objective_value(values),
                    values=values,
                    stats=stats,
                )
        status = "unknown" if hit_limit else "infeasible"
        return Solution(
            status=status, objective=float("nan"), values={}, stats=stats
        )
    values = {
        var: int(round(result.x[model.var_index(var)]))
        for var in model.variables
    }
    return Solution(
        status="optimal",
        objective=model.objective_value(values),
        values=values,
        stats=stats,
    )
