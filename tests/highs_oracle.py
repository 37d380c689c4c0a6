"""The ``scipy.optimize.milp`` translation that ``repro.ilp``'s HiGHS
backend ran before it called scipy's HiGHS extension directly, kept as a
test oracle only.

The model goes to ``milp`` as a CSR matrix, binary bounds and every
variable integer, sign-flipped for maximization; ``milp`` validates it,
builds the column-wise matrix and hands it to the same extension.  The
live backend must return equal ``(status, objective, values)`` on every
model.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.model import MAXIMIZE, Solution, SolveStats, ZeroOneModel


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
