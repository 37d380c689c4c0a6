"""Brute-force oracles for the two NP-complete cores, differentially
checked against the 0-1 ILP implementations.

* **Alignment**: exhaustively enumerate every conflict-free assignment of
  CAG nodes to the ``d`` template partitions (per array, an injective map
  of its dimensions into partitions) and maximize the satisfied edge
  weight — the exact optimum that
  :func:`repro.alignment.ilp.resolve_conflicts` claims.
* **Selection**: exhaustively enumerate every candidate combination of
  the data layout graph and minimize
  :meth:`~repro.selection.layout_graph.DataLayoutGraph.evaluate` — the
  exact optimum that :func:`repro.selection.ilp.select_layouts` claims.

Both checks verify two properties of the ILP answer: the *objective*
matches the enumerated optimum, and the returned *certificate* is feasible
and re-evaluates to the claimed objective.  Instances larger than the
enumeration limits are skipped (reported as ``None``), keeping the oracle
honest about its scope.

:func:`check_alignment` checks the appendix model and the solver;
:func:`check_resolution` checks what the pipeline actually runs,
:func:`~repro.alignment.ilp.resolve_conflicts`, whose unique instances
never reach that model: the same objective and certificate properties,
agreement with the ``presolve=False`` reference path, and the
uniqueness certificate itself (a tied instance must go to the solver).

The ``build``/``solve`` hooks exist so the mutation tests can inject a
deliberately corrupted model and prove the differential check catches it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple,
)

from ..alignment.cag import CAG, Node
from ..alignment.ilp import (
    ENUMERATION_BACKEND,
    AlignmentILP,
    build_alignment_model,
    resolve_conflicts,
)
from ..ilp import Solution, solve as ilp_solve
from ..selection.ilp import SelectionILP, build_selection_model
from ..selection.layout_graph import DataLayoutGraph

#: skip exhaustive alignment search above this many enumerated assignments
MAX_ALIGNMENT_ASSIGNMENTS = 50_000
#: skip exhaustive selection search above this many candidate combinations
MAX_SELECTION_COMBINATIONS = 50_000

_TOL = 1e-6
#: cut weights this close, relative to the CAG's total weight, are the
#: same number up to rounding: the instance is tied
_EXACT_TIE = 1e-9

Edge = Tuple[Node, Node]


@dataclass(frozen=True)
class Divergence:
    """A differential-oracle failure: the ILP disagrees with brute force."""

    kind: str  # "alignment" | "selection"
    detail: str
    ilp_objective: float
    oracle_objective: float

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.kind} divergence: ilp={self.ilp_objective!r} "
            f"oracle={self.oracle_objective!r} ({self.detail})"
        )


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


def _injective_maps(dims: List[int], d: int) -> Iterator[Dict[int, int]]:
    """All injective maps from an array's dimensions into partitions."""
    for combo in itertools.permutations(range(d), len(dims)):
        yield dict(zip(dims, combo))


def alignment_assignment_count(cag: CAG, d: int) -> int:
    """Size of the exhaustive alignment search space."""
    count = 1
    by_array: Dict[str, List[int]] = {}
    for array, dim in cag.nodes:
        by_array.setdefault(array, []).append(dim)
    for dims in by_array.values():
        per = 1
        for k in range(len(dims)):
            per *= d - k
        count *= max(per, 0)
        if count > MAX_ALIGNMENT_ASSIGNMENTS:
            return count
    return count


def enumerate_alignments(cag: CAG, d: int) -> Iterator[Dict[Node, int]]:
    """Every assignment of nodes to partitions with at most one dimension
    of each array per partition (the type1+type2 feasible set)."""
    by_array: Dict[str, List[int]] = {}
    for array, dim in sorted(cag.nodes):
        by_array.setdefault(array, []).append(dim)
    arrays = sorted(by_array)
    choices = [list(_injective_maps(by_array[a], d)) for a in arrays]
    for combo in itertools.product(*choices):
        assignment: Dict[Node, int] = {}
        for array, mapping in zip(arrays, combo):
            for dim, part in mapping.items():
                assignment[(array, dim)] = part
        yield assignment


def satisfied_weight(cag: CAG, assignment: Dict[Node, int]) -> float:
    """Total weight of edges whose endpoints share a partition."""
    return sum(
        w
        for (a, b), w in sorted(cag.weights.items())
        if assignment[a] == assignment[b]
    )


def best_alignment(
    cag: CAG, d: int
) -> Tuple[float, Optional[Dict[Node, int]]]:
    """Exhaustive optimum of the alignment problem."""
    best = -1.0
    best_assignment: Optional[Dict[Node, int]] = None
    for assignment in enumerate_alignments(cag, d):
        value = satisfied_weight(cag, assignment)
        if value > best + _TOL:
            best = value
            best_assignment = assignment
    return max(best, 0.0), best_assignment


def check_alignment(
    cag: CAG,
    d: int,
    backend: str = "scipy",
    build: Callable[[CAG, int], AlignmentILP] = (
        lambda cag, d: build_alignment_model(cag, d)
    ),
) -> Optional[Divergence]:
    """Differentially check the alignment ILP against brute force.

    Returns ``None`` when they agree (or the instance exceeds the
    enumeration limit), a :class:`Divergence` otherwise.
    """
    if any(dim >= d for _a, dim in cag.nodes):
        return None  # not a valid instance for rank d
    if alignment_assignment_count(cag, d) > MAX_ALIGNMENT_ASSIGNMENTS:
        return None
    ilp = build(cag, d)
    solution = ilp_solve(ilp.model, backend=backend)
    if not solution.is_optimal:
        return Divergence(
            kind="alignment",
            detail=f"ILP reported status {solution.status!r}",
            ilp_objective=float("nan"),
            oracle_objective=0.0,
        )
    oracle_value, _ = best_alignment(cag, d)

    # Certificate: decode the node assignment and re-evaluate it.
    assignment: Dict[Node, int] = {}
    for node in sorted(cag.nodes):
        chosen = [
            k
            for k in range(d)
            if solution.values.get(f"n:{node[0]}[{node[1]}]@{k}") == 1
        ]
        if len(chosen) != 1:
            return Divergence(
                kind="alignment",
                detail=f"node {node} assigned to {len(chosen)} partitions",
                ilp_objective=solution.objective,
                oracle_objective=oracle_value,
            )
        assignment[node] = chosen[0]
    per_array_parts: Dict[Tuple[str, int], int] = {}
    for (array, _dim), part in assignment.items():
        key = (array, part)
        per_array_parts[key] = per_array_parts.get(key, 0) + 1
        if per_array_parts[key] > 1:
            return Divergence(
                kind="alignment",
                detail=f"array {array!r} has two dimensions in "
                       f"partition {part}",
                ilp_objective=solution.objective,
                oracle_objective=oracle_value,
            )
    certificate_value = satisfied_weight(cag, assignment)

    tol = max(_TOL, _TOL * abs(oracle_value))
    if abs(certificate_value - solution.objective) > tol:
        return Divergence(
            kind="alignment",
            detail="certificate weight does not match ILP objective "
                   f"(certificate={certificate_value!r})",
            ilp_objective=solution.objective,
            oracle_objective=oracle_value,
        )
    if abs(solution.objective - oracle_value) > tol:
        return Divergence(
            kind="alignment",
            detail="ILP optimum differs from exhaustive optimum",
            ilp_objective=solution.objective,
            oracle_objective=oracle_value,
        )
    return None


def optimal_cuts(
    cag: CAG, d: int
) -> Tuple[float, List[Tuple[float, FrozenSet[Edge]]]]:
    """Exhaustive optimum of the alignment problem and every distinct
    cut-edge set within ``_TOL`` (relative) of it, as (weight, cut)
    pairs, best first."""
    by_cut: Dict[FrozenSet[Edge], float] = {}
    for assignment in enumerate_alignments(cag, d):
        cut = frozenset(
            key for key in cag.weights
            if assignment[key[0]] != assignment[key[1]]
        )
        if cut not in by_cut:
            by_cut[cut] = satisfied_weight(cag, assignment)
    best = max(by_cut.values())
    near = [
        (value, cut) for cut, value in by_cut.items()
        if value >= best - _TOL * max(1.0, abs(best))
    ]
    near.sort(key=lambda pair: (-pair[0], sorted(pair[1])))
    return best, near


def check_resolution(
    cag: CAG,
    d: int,
    backend: str = "scipy",
) -> Optional[Divergence]:
    """Differentially check conflict resolution as the pipeline runs it.

    ``resolve_conflicts(cag, d)`` (the direct path wherever it applies)
    is held against brute force and against
    ``resolve_conflicts(..., presolve=False)``, the model-and-solver
    reference:

    * its objective equals the exhaustive optimum, and its certificate
      is a full, type-2-safe assignment that re-evaluates to it;
    * ``resolved`` is conflict-free and is the CAG minus exactly the
      edges the assignment cuts;
    * both paths cut the same weight, and the same edge set whenever
      no other cut comes within ``_TOL`` of the optimum;
    * an instance with two exactly tied optimal cuts was not answered
      by enumeration — the choice among ties is the solver's.
    """
    if any(dim >= d for _a, dim in cag.nodes):
        return None  # not a valid instance for rank d
    if alignment_assignment_count(cag, d) > MAX_ALIGNMENT_ASSIGNMENTS:
        return None
    fast = resolve_conflicts(cag, d, backend=backend)
    reference = resolve_conflicts(cag, d, backend=backend, presolve=False)
    oracle_value, near = optimal_cuts(cag, d)
    tol = max(_TOL, _TOL * abs(oracle_value))

    def diverged(detail: str) -> Divergence:
        return Divergence(
            kind="alignment", detail=detail,
            ilp_objective=fast.solution.objective,
            oracle_objective=oracle_value,
        )

    if not (fast.optimal and reference.optimal):
        return diverged(
            f"resolution not optimal (status {fast.solution.status!r}, "
            f"reference {reference.solution.status!r})"
        )
    assignment = fast.assignment
    if set(assignment) != set(cag.nodes) or not all(
        0 <= part < d for part in assignment.values()
    ):
        return diverged("certificate is not a full assignment")
    if len({(array, part) for (array, _dim), part in assignment.items()}) \
            != len(assignment):
        return diverged(
            "certificate puts two dimensions of one array in one partition"
        )
    certificate_value = satisfied_weight(cag, assignment)
    if abs(certificate_value - fast.solution.objective) > tol:
        return diverged(
            "certificate weight does not match the claimed objective "
            f"(certificate={certificate_value!r})"
        )
    if abs(certificate_value - oracle_value) > tol:
        return diverged("resolution differs from the exhaustive optimum")
    cut = frozenset(cag.weights) - frozenset(fast.resolved.weights)
    if fast.resolved.has_conflict() or cut != frozenset(
        key for key in cag.weights
        if assignment[key[0]] != assignment[key[1]]
    ):
        return diverged("resolved CAG is not the input minus the cut")
    if abs(fast.cut_weight - reference.cut_weight) > tol:
        return diverged(
            f"direct path cuts {fast.cut_weight!r}, the reference path "
            f"{reference.cut_weight!r}"
        )
    reference_cut = (
        frozenset(cag.weights) - frozenset(reference.resolved.weights)
    )
    if len(near) == 1 and cut != reference_cut:
        return diverged(
            f"unique optimum, yet the paths cut {sorted(cut)} and "
            f"{sorted(reference_cut)}"
        )
    exact = _EXACT_TIE * max(1.0, sum(abs(w) for w in cag.weights.values()))
    tied = sum(1 for value, _cut in near if value >= oracle_value - exact)
    if tied > 1 and fast.solution.stats.backend == ENUMERATION_BACKEND:
        return diverged(
            f"{tied} optimal cuts tie, yet enumeration answered without "
            "the solver"
        )
    return None


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def selection_combination_count(graph: DataLayoutGraph) -> int:
    """Size of the exhaustive selection search space."""
    count = 1
    for costs in graph.node_costs.values():
        count *= max(len(costs), 1)
        if count > MAX_SELECTION_COMBINATIONS:
            return count
    return count


def best_selection(
    graph: DataLayoutGraph,
) -> Tuple[float, Dict[int, int]]:
    """Exhaustive optimum of the selection problem."""
    phases = sorted(graph.node_costs)
    options = [range(len(graph.node_costs[p])) for p in phases]
    best_cost = float("inf")
    best_sel: Dict[int, int] = {}
    for combo in itertools.product(*options):
        selection = dict(zip(phases, combo))
        cost = graph.evaluate(selection)
        if cost < best_cost - _TOL:
            best_cost = cost
            best_sel = selection
    return best_cost, best_sel


def exact_best_selection(
    graph: DataLayoutGraph,
) -> Tuple[float, Dict[int, int]]:
    """Exhaustive optimum under the *canonical* tie-break.

    Unlike :func:`best_selection` (which keeps the first selection
    within ``_TOL`` of the running minimum), this variant compares costs
    exactly, so first-wins enumeration order yields the
    lexicographically smallest exact optimum — the same certificate the
    presolved solve promises.  Used by the presolve
    soundness checks, which reason about candidates that appear in
    *every* exact optimum.
    """
    phases = sorted(graph.node_costs)
    options = [range(len(graph.node_costs[p])) for p in phases]
    best_cost = float("inf")
    best_sel: Dict[int, int] = {}
    for combo in itertools.product(*options):
        selection = dict(zip(phases, combo))
        cost = graph.evaluate(selection)
        if cost < best_cost:
            best_cost = cost
            best_sel = selection
    return best_cost, best_sel


def check_selection(
    graph: DataLayoutGraph,
    backend: str = "scipy",
    build: Callable[[DataLayoutGraph], SelectionILP] = (
        lambda graph: build_selection_model(graph)
    ),
) -> Optional[Divergence]:
    """Differentially check the selection ILP against brute force."""
    if not graph.node_costs:
        return None
    if selection_combination_count(graph) > MAX_SELECTION_COMBINATIONS:
        return None
    ilp = build(graph)
    solution: Solution = ilp_solve(ilp.model, backend=backend)
    if not solution.is_optimal:
        return Divergence(
            kind="selection",
            detail=f"ILP reported status {solution.status!r}",
            ilp_objective=float("nan"),
            oracle_objective=0.0,
        )
    oracle_cost, _ = best_selection(graph)

    # Certificate: decode the selection and re-evaluate with the shared
    # evaluator (independent of the — possibly corrupted — objective).
    selection: Dict[int, int] = {}
    for phase_index, costs in graph.node_costs.items():
        chosen = [
            cand
            for cand in range(len(costs))
            if solution.values.get(f"x:{phase_index}:{cand}") == 1
        ]
        if len(chosen) != 1:
            return Divergence(
                kind="selection",
                detail=f"phase {phase_index} selected {len(chosen)} "
                       "candidates",
                ilp_objective=solution.objective,
                oracle_objective=oracle_cost,
            )
        selection[phase_index] = chosen[0]
    certificate_cost = graph.evaluate(selection)

    tol = max(_TOL, _TOL * abs(oracle_cost))
    if certificate_cost > oracle_cost + tol:
        return Divergence(
            kind="selection",
            detail="ILP certificate is suboptimal "
                   f"(certificate={certificate_cost!r}, "
                   f"selection={selection})",
            ilp_objective=solution.objective,
            oracle_objective=oracle_cost,
        )
    if abs(solution.objective - certificate_cost) > tol:
        return Divergence(
            kind="selection",
            detail="ILP objective does not match its own certificate "
                   f"(certificate={certificate_cost!r})",
            ilp_objective=solution.objective,
            oracle_objective=oracle_cost,
        )
    return None
