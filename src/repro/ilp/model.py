"""Generic 0-1 integer programming model.

The paper solves two NP-complete problems — inter-dimensional alignment
and data-layout selection — by translating them into 0-1 integer programs
and calling CPLEX directly ("builds the required constraint matrices
internally... without creating any intermediate files", Section 3).  This
module is the equivalent in-memory model: named binary variables, sparse
linear constraints, and a linear objective, handed to one of two solver
backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

SENSES = ("<=", ">=", "==")

MINIMIZE = "min"
MAXIMIZE = "max"


class ModelError(Exception):
    """Raised for malformed models (unknown variables, bad senses...)."""


@dataclass(frozen=True)
class Constraint:
    """Sparse linear constraint ``sum(coeffs[v] * v)  sense  rhs``."""

    coeffs: Tuple[Tuple[str, float], ...]
    sense: str
    rhs: float
    name: str = ""


@dataclass
class SolveStats:
    """Backend-reported solve statistics."""

    backend: str = ""
    wall_time: float = 0.0
    nodes: int = 0


#: statuses whose ``values`` hold a feasible (if unproven) assignment
INCUMBENT_STATUSES = ("optimal", "time_limit", "node_limit")


@dataclass
class Solution:
    """The outcome of a 0-1 solve.

    ``status`` is one of:

    - ``optimal``    — proven optimum, ``values`` hold it;
    - ``time_limit`` / ``node_limit`` — the solver hit its budget but
      carries a feasible *incumbent* in ``values`` (anytime behavior);
    - ``infeasible`` — proven infeasible;
    - ``unknown``    — budget exhausted with no incumbent found.

    ``values`` is a solver's assignment only: an answer no solver
    produced (elimination, a greedy fallback) leaves it empty.
    """

    status: str
    objective: float
    values: Dict[str, int]
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def has_incumbent(self) -> bool:
        """A feasible assignment exists, proven optimal or not."""
        return self.status in INCUMBENT_STATUSES

    def on_vars(self) -> List[str]:
        """Names of variables set to 1."""
        return [v for v, x in self.values.items() if x == 1]


class ZeroOneModel:
    """A 0-1 integer program under construction."""

    def __init__(self, name: str = "", sense: str = MINIMIZE):
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ModelError(f"bad objective sense {sense!r}")
        self.name = name
        self.sense = sense
        self._vars: List[str] = []
        self._index: Dict[str, int] = {}
        self.constraints: List[Constraint] = []
        self.objective: Dict[str, float] = {}

    # -- variables ---------------------------------------------------------

    def add_var(self, name: str) -> str:
        """Register a binary variable; idempotent on repeated names."""
        if name not in self._index:
            self._index[name] = len(self._vars)
            self._vars.append(name)
        return name

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(self._vars)

    @property
    def num_variables(self) -> int:
        return len(self._vars)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    # -- constraints & objective --------------------------------------------

    def add_constraint(
        self,
        coeffs: Mapping[str, float] | Iterable[Tuple[str, float]],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        if sense not in SENSES:
            raise ModelError(f"bad constraint sense {sense!r}")
        items = tuple(
            coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        )
        for var, _ in items:
            if var not in self._index:
                raise ModelError(
                    f"constraint {name!r} uses undeclared variable {var!r}"
                )
        constraint = Constraint(
            coeffs=items, sense=sense, rhs=float(rhs), name=name
        )
        self.constraints.append(constraint)
        return constraint

    def set_objective_coeff(self, var: str, coeff: float) -> None:
        if var not in self._index:
            raise ModelError(f"unknown objective variable {var!r}")
        self.objective[var] = self.objective.get(var, 0.0) + float(coeff)

    def set_objective(self, coeffs: Mapping[str, float]) -> None:
        self.objective = {}
        for var, coeff in coeffs.items():
            self.set_objective_coeff(var, coeff)

    # -- evaluation helpers ---------------------------------------------------

    def objective_value(self, values: Mapping[str, int]) -> float:
        return sum(c * values.get(v, 0) for v, c in self.objective.items())

    def is_feasible(self, values: Mapping[str, int]) -> bool:
        """Check a full assignment against every constraint (used by tests
        and to cross-validate solver backends)."""
        for con in self.constraints:
            lhs = sum(c * values.get(v, 0) for v, c in con.coeffs)
            if con.sense == "<=" and lhs > con.rhs + 1e-9:
                return False
            if con.sense == ">=" and lhs < con.rhs - 1e-9:
                return False
            if con.sense == "==" and abs(lhs - con.rhs) > 1e-9:
                return False
        return True

    def summary(self) -> str:
        return (
            f"0-1 model {self.name!r}: {self.num_variables} variables, "
            f"{self.num_constraints} constraints ({self.sense})"
        )
