"""0-1 integer programming substrate (the repo's CPLEX stand-in)."""

from typing import Dict, Optional

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
from .presolve import PresolveResult, presolve_model

BACKENDS = {
    "scipy": scipy_backend.solve,
    "highs": scipy_backend.solve,
    "branch-bound": branch_bound.solve,
}

DEFAULT_BACKEND = "scipy"


def solve(
    model: ZeroOneModel,
    backend: str = DEFAULT_BACKEND,
    time_limit: Optional[float] = None,
    presolve: bool = False,
    warm_start: Optional[Dict[str, int]] = None,
) -> Solution:
    """Solve a 0-1 model with the named backend ("scipy" | "branch-bound").

    Any request deadline in scope clamps ``time_limit`` to the budget
    actually remaining, making every solve *anytime*: past the budget
    the backends return their best incumbent (status ``time_limit`` /
    ``node_limit``) or ``unknown``, never block the request.  Past the
    deadline's hard limit the solve does not start at all.

    With ``presolve``, constraint propagation fixes forced variables
    first (see :mod:`repro.ilp.presolve`) and the backend only sees the
    reduced model; the returned solution is expressed over the original
    variables and is identical to the unpresolved one.  ``warm_start``
    seeds the branch-bound backend's incumbent with a known feasible
    assignment (HiGHS exposes no seeding hook, so the scipy backend
    ignores it); the canonical result is unchanged either way.
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
        pre: Optional[PresolveResult] = None
        if presolve:
            with _obs_span(
                "ilp.presolve", name=model.name,
                variables=model.num_variables,
            ) as psp:
                pre = presolve_model(model)
                psp.set_attr("fixed", len(pre.fixed))
                psp.set_attr("rows_dropped", pre.rows_dropped)
                psp.set_attr(
                    "free", 0 if pre.infeasible else pre.model.num_variables
                )
        if pre is not None and pre.infeasible:
            solution = pre.infeasible_solution()
        elif pre is not None and pre.solved:
            solution = pre.trivial_solution()
        else:
            target = model if pre is None else pre.model
            sub_warm = warm_start
            if pre is not None and warm_start is not None:
                # Project the seed onto the free variables; a seed that
                # contradicts a proven fixing cannot be feasible.
                if any(
                    warm_start.get(v) not in (None, x)
                    for v, x in pre.fixed.items()
                ):
                    sub_warm = None
                else:
                    sub_warm = {
                        v: warm_start[v]
                        for v in target.variables
                        if v in warm_start
                    }
            solution = fn(
                target, time_limit=time_limit, warm_start=sub_warm
            )
            if pre is not None:
                solution = pre.expand(solution)
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
    "PresolveResult",
    "presolve_model",
]
