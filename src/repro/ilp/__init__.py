"""0-1 integer programming substrate (the repo's CPLEX stand-in)."""

from typing import Optional

from ..obs.tracing import span as _obs_span
from ..resilience.deadline import (
    checkpoint as _checkpoint,
    remaining_budget as _remaining_budget,
)
from ..resilience.faults import fault_point as _fault_point
from . import branch_bound, scipy_backend
from .model import (
    INCUMBENT_STATUSES,
    MAXIMIZE,
    MINIMIZE,
    Constraint,
    ModelError,
    Solution,
    SolveStats,
    ZeroOneModel,
)

BACKENDS = {
    "scipy": scipy_backend.solve,
    "branch-bound": branch_bound.solve,
}

DEFAULT_BACKEND = "scipy"


def solve(
    model: ZeroOneModel,
    backend: str = DEFAULT_BACKEND,
    time_limit: Optional[float] = None,
) -> Solution:
    """Solve a 0-1 model with the named backend ("scipy" | "branch-bound").

    Any request deadline in scope clamps ``time_limit`` to the budget
    actually remaining, making every solve *anytime*: past the budget
    the backends return their best incumbent (status ``time_limit`` /
    ``node_limit``) or ``unknown``, never block the request.  Past the
    deadline's hard limit the solve does not start at all.
    """
    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ModelError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from None
    _fault_point("ilp.solve")
    _checkpoint("ilp.solve")
    budget = _remaining_budget()
    if budget is not None:
        time_limit = budget if time_limit is None else min(time_limit, budget)
    with _obs_span(
        "ilp.solve",
        name=model.name,
        backend=backend,
        variables=model.num_variables,
        constraints=model.num_constraints,
    ) as sp:
        solution = fn(model, time_limit=time_limit)
        sp.set_attr("status", solution.status)
        sp.set_attr("objective", solution.objective)
        sp.set_attr("nodes", solution.stats.nodes)
    return solution


__all__ = [
    "ZeroOneModel",
    "Constraint",
    "Solution",
    "SolveStats",
    "ModelError",
    "INCUMBENT_STATUSES",
    "MINIMIZE",
    "MAXIMIZE",
    "solve",
    "BACKENDS",
    "DEFAULT_BACKEND",
]
