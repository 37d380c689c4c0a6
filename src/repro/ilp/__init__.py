"""0-1 integer programming substrate (the repo's CPLEX stand-in)."""

# defines the backend dispatcher; the model types live in repro.ilp.model
from importlib import import_module
from typing import Callable, Optional

from ..obs.tracing import span as _obs_span
from ..resilience.deadline import (
    checkpoint as _checkpoint,
    current_deadline as _current_deadline,
    remaining_budget as _remaining_budget,
)
from ..resilience.faults import fault_point as _fault_point
from .model import ModelError, Solution, ZeroOneModel

#: backend name -> the module of this package whose ``solve`` it runs.
#: A module is imported when a model first reaches it: HiGHS loads
#: scipy's HiGHS extension alone (about 4 MB, no numpy), which no
#: default analysis needs.
BACKENDS = {
    "scipy": "scipy_backend",
    "branch-bound": "branch_bound",
}

DEFAULT_BACKEND = "scipy"


def _load_backend(backend: str) -> Callable[..., Solution]:
    """Import the module of a name in ``BACKENDS`` and return its solve."""
    return import_module(f"{__name__}.{BACKENDS[backend]}").solve


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
    deadline's hard limit the solve does not start at all, and a backend
    is not even imported.  A backend's first import is paid out of the
    same budget: the limit is clamped after it, and a hard limit that
    passes during it stops the solve.
    """
    if backend not in BACKENDS:
        raise ModelError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
        )
    _fault_point("ilp.solve")
    # One checkpoint per solve, after the import; past the hard limit it
    # raises, so the import is skipped there.
    deadline = _current_deadline()
    if deadline is None or deadline.hard_remaining() != 0.0:
        fn = _load_backend(backend)
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
