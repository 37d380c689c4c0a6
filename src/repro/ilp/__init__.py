"""0-1 integer programming substrate (the repo's CPLEX stand-in)."""

from importlib import import_module
from typing import Callable, Optional

from ..obs.tracing import span as _obs_span
from ..resilience.deadline import (
    checkpoint as _checkpoint,
    remaining_budget as _remaining_budget,
)
from ..resilience.faults import fault_point as _fault_point
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

#: backend name -> the module of this package whose ``solve`` it runs.
#: A module is imported when a model first reaches it: HiGHS brings
#: scipy.optimize and scipy.sparse, which no default analysis needs.
BACKENDS = {
    "scipy": "scipy_backend",
    "branch-bound": "branch_bound",
}

DEFAULT_BACKEND = "scipy"


def _load_backend(backend: str) -> Callable[..., Solution]:
    try:
        module = BACKENDS[backend]
    except KeyError:
        raise ModelError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from None
    return import_module(f"{__name__}.{module}").solve


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
    deadline's hard limit the solve does not start at all.  The backend
    is loaded first, so the first solve pays for its import out of the
    same budget.
    """
    fn = _load_backend(backend)
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
