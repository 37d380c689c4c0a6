"""From-scratch 0-1 solver: implicit enumeration (Balas-style) with
constraint propagation.

A pure-Python exact solver used to cross-check the HiGHS backend and to
keep the repo self-contained — the additive/implicit-enumeration algorithm
is the classic pre-LP technique for 0-1 programs (Nemhauser & Wolsey,
ch. II.4), which suits the paper's moderate problem sizes (hundreds of
variables).

Strategy, on a depth-first stack:

* **bounding** — with a partial assignment, an optimistic objective bound
  adds every favourable unfixed coefficient; prune when it cannot beat the
  incumbent;
* **feasibility propagation** — for every constraint keep the min/max
  achievable LHS over unfixed variables; a constraint that cannot be
  satisfied prunes the node, and one that forces a variable (e.g. the
  remaining slack of a ``<=`` is smaller than some positive unfixed
  coefficient... ) fixes it immediately;
* **branching** — on the unfixed variable with the largest absolute
  objective coefficient, favourable value first.

Deterministic *and canonical*: among equal-objective optima the solver
returns the assignment that is lexicographically greatest in variable
insertion order.  Subtrees whose bound merely *ties* the incumbent are
therefore still explored (pruning requires a strict bound deficit), and a
tying complete assignment replaces the incumbent exactly when it is
lexicographically greater.  For selection-shaped models (one
exactly-one group per phase, candidate 0 added first) this resolves
equal-cost candidates to the earliest candidate of the earliest phase —
stable under constraint reordering and coefficient jitter, and
independent of which optimum the search happens to reach first.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from .model import MAXIMIZE, MINIMIZE, Solution, SolveStats, ZeroOneModel

_EPS = 1e-9

FREE = -1


class _Problem:
    """Preprocessed arrays for fast propagation."""

    def __init__(self, model: ZeroOneModel):
        self.model = model
        self.n = model.num_variables
        index = model.var_index
        # Objective as maximization internally.
        sign = 1.0 if model.sense == MAXIMIZE else -1.0
        self.obj = [0.0] * self.n
        for var, coeff in model.objective.items():
            self.obj[index(var)] += sign * coeff
        # Constraints as (coeff list, lo, hi) row bounds.
        self.rows: List[Tuple[List[Tuple[int, float]], float, float]] = []
        for con in model.constraints:
            coeffs = [(index(v), c) for v, c in con.coeffs if c != 0.0]
            lo, hi = -float("inf"), float("inf")
            if con.sense == "<=":
                hi = con.rhs
            elif con.sense == ">=":
                lo = con.rhs
            else:
                lo = hi = con.rhs
            self.rows.append((coeffs, lo, hi))
        # Var -> rows it appears in.
        self.var_rows: List[List[int]] = [[] for _ in range(self.n)]
        for r, (coeffs, _, _) in enumerate(self.rows):
            for v, _ in coeffs:
                self.var_rows[v].append(r)
        # Exactly-one groups (sum of unit-coefficient variables == 1):
        # every completion must pick one member, so the optimistic bound
        # may add at most the group's best objective coefficient.  This
        # is what makes selection-shaped problems (one candidate per
        # phase) tractable without an LP relaxation.
        self.choice_groups: List[List[int]] = []
        grouped = [False] * self.n
        for coeffs, lo, hi in self.rows:
            if lo == hi == 1.0 and len(coeffs) >= 2 and all(
                c == 1.0 for _v, c in coeffs
            ) and not any(grouped[v] for v, _c in coeffs):
                members = [v for v, _c in coeffs]
                self.choice_groups.append(members)
                for v in members:
                    grouped[v] = True
        # Branch order: decision variables (exactly-one group members)
        # before dependent variables (e.g. remap-edge indicators, which
        # propagation resolves once the decisions are made); descending
        # |objective coefficient| within each class.
        self.order = sorted(
            range(self.n),
            key=lambda v: (not grouped[v], -abs(self.obj[v]), v),
        )


def _propagate(
    prob: _Problem, assign: List[int], trail: List[int]
) -> bool:
    """Fix forced variables until a fixpoint; False on infeasibility.

    ``trail`` records variables fixed here so the caller can undo them.
    """
    changed = True
    while changed:
        changed = False
        for coeffs, lo, hi in prob.rows:
            base = 0.0
            min_add = 0.0
            max_add = 0.0
            free_vars: List[Tuple[int, float]] = []
            for v, c in coeffs:
                a = assign[v]
                if a == FREE:
                    free_vars.append((v, c))
                    if c > 0:
                        max_add += c
                    else:
                        min_add += c
                elif a == 1:
                    base += c
            if base + min_add > hi + _EPS or base + max_add < lo - _EPS:
                return False
            # Forcing: if flipping one free variable to its bad side breaks
            # the row, it must take the good side.
            for v, c in free_vars:
                # v = 1 infeasible?
                one_min = base + min_add + (c if c > 0 else 0.0)
                one_max = base + max_add + (c if c < 0 else 0.0)
                if one_min > hi + _EPS or one_max < lo - _EPS:
                    assign[v] = 0
                    trail.append(v)
                    changed = True
                    continue
                # v = 0 infeasible?
                zero_min = base + min_add - (c if c < 0 else 0.0)
                zero_max = base + max_add - (c if c > 0 else 0.0)
                if zero_min > hi + _EPS or zero_max < lo - _EPS:
                    assign[v] = 1
                    trail.append(v)
                    changed = True
            if changed:
                break  # recompute rows with the new fixings
    return True


def solve(
    model: ZeroOneModel,
    time_limit: Optional[float] = None,
    node_limit: int = 5_000_000,
) -> Solution:
    """Solve ``model`` exactly by implicit enumeration.

    Anytime behavior: on hitting ``time_limit`` or ``node_limit`` the
    best incumbent found so far is returned with status ``time_limit``
    / ``node_limit`` (``unknown`` when no feasible point was reached),
    so deadline-bounded callers always get their best available answer.
    """
    prob = _Problem(model)
    n = prob.n
    if n == 0:
        return Solution(
            status="optimal",
            objective=0.0,
            values={},
            stats=SolveStats(backend="branch-bound"),
        )
    if time_limit is not None and time_limit <= 0:
        # Budget already spent before the solve began.
        return Solution(
            status="unknown",
            objective=float("nan"),
            values={},
            stats=SolveStats(backend="branch-bound"),
        )

    start = time.perf_counter()
    best_val = -float("inf")
    best_assign: Optional[List[int]] = None
    assign = [FREE] * n
    nodes = 0

    in_group = [False] * n
    for members in prob.choice_groups:
        for v in members:
            in_group[v] = True

    def optimistic(cur: float) -> float:
        """Upper bound on any completion of the partial assignment.

        Free variables outside exactly-one groups contribute their
        positive coefficients; each exactly-one group without a chosen
        member must contribute exactly one member, so it adds at most the
        best coefficient among its still-free members."""
        bound = cur
        for v in range(n):
            if assign[v] == FREE and not in_group[v] and prob.obj[v] > 0:
                bound += prob.obj[v]
        for members in prob.choice_groups:
            chosen = False
            best = None
            for v in members:
                a = assign[v]
                if a == 1:
                    chosen = True
                    break
                if a == FREE:
                    coeff = prob.obj[v]
                    if best is None or coeff > best:
                        best = coeff
            if not chosen and best is not None:
                bound += best
        return bound

    def current_value() -> float:
        return sum(prob.obj[v] for v in range(n) if assign[v] == 1)

    # Depth-first search over prob.order with an explicit stack.  Stack
    # entries: ("enter",) explores the current partial assignment;
    # ("assign", var, value) sets a branch value; ("unassign", var) and
    # ("untrail", trail) undo on the way back up.
    stack: List[tuple] = [("enter",)]
    limit_reached: Optional[str] = None
    while stack:
        action = stack.pop()
        kind = action[0]
        if kind == "unassign":
            assign[action[1]] = FREE
            continue
        if kind == "untrail":
            for v in action[1]:
                assign[v] = FREE
            continue
        if kind == "assign":
            assign[action[1]] = action[2]
            stack.append(("enter",))
            continue
        # kind == "enter": evaluate the current node.
        nodes += 1
        if nodes > node_limit:
            limit_reached = "node_limit"
            break
        if (
            time_limit is not None
            and nodes % 256 == 0
            and time.perf_counter() - start > time_limit
        ):
            limit_reached = "time_limit"
            break
        trail: List[int] = []
        if not _propagate(prob, assign, trail):
            for v in trail:
                assign[v] = FREE
            continue
        cur = current_value()
        # Prune only on a strict bound deficit: subtrees that merely TIE
        # the incumbent may hold the canonical (lexicographically
        # greatest) optimum and must still be explored.
        if optimistic(cur) < best_val - _EPS:
            for v in trail:
                assign[v] = FREE
            continue
        branch_var = None
        for v in prob.order:
            if assign[v] == FREE:
                branch_var = v
                break
        if branch_var is None:
            if cur > best_val + _EPS or (
                cur > best_val - _EPS
                and best_assign is not None
                and assign > best_assign
            ):
                best_val = max(best_val, cur)
                best_assign = assign.copy()
            for v in trail:
                assign[v] = FREE
            continue
        first = 1 if prob.obj[branch_var] > 0 else 0
        # Pushed in reverse so the favourable value is explored first.
        stack.append(("untrail", trail))
        stack.append(("unassign", branch_var))
        stack.append(("assign", branch_var, 1 - first))
        stack.append(("assign", branch_var, first))

    status = "optimal"
    if limit_reached is not None:
        # The search was cut short: the incumbent (if any) is feasible
        # but unproven; with no incumbent the model's status is unknown,
        # NOT infeasible — infeasibility requires an exhausted search.
        status = limit_reached if best_assign is not None else "unknown"
    elapsed = time.perf_counter() - start
    stats = SolveStats(backend="branch-bound", wall_time=elapsed, nodes=nodes)

    if best_assign is None:
        return Solution(
            status="infeasible" if limit_reached is None else "unknown",
            objective=float("nan"),
            values={},
            stats=stats,
        )
    values = {
        var: best_assign[model.var_index(var)] for var in model.variables
    }
    return Solution(
        status=status,
        objective=model.objective_value(values),
        values=values,
        stats=stats,
    )
