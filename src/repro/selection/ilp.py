"""0-1 integer programming formulation of the data layout selection
problem (Bixby, Kennedy, Kremer — PACT'94; paper Section 2.4).

The problem — pick one candidate per phase minimizing node costs plus
remapping edge costs — is NP-complete (Kremer '93).  The 0-1 translation:

* node variables ``x[p,i]``: candidate ``i`` selected for phase ``p``;
  exactly-one constraints per phase;
* edge variables ``y[p,i,q,j]`` for every remapping edge with positive
  cost, with ``y >= x[p,i] + x[q,j] - 1`` linking constraints (since edge
  costs are positive and the objective minimizes, ``y`` is driven to the
  indicator of both endpoints being selected);
* objective: minimize ``sum x * node_cost + sum y * edge_cost``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..ilp import solve as ilp_solve
from ..ilp.model import MINIMIZE, Solution, SolveStats, ZeroOneModel
from ..obs import tracing
from ..resilience.deadline import remaining_budget
from ..resilience.degrade import note_degradation
from ..resilience.errors import DeadlineExceeded
from . import minsum
from .layout_graph import DataLayoutGraph

#: the size rule between the two exact kernels: a graph whose remap
#: edges hold at most this many (pair, cost) cells is solved by the list
#: kernel (:mod:`repro.selection.minsum`), a wider one by numpy's
#: (:mod:`repro.selection.presolve`), imported only then.  Measured on
#: the bench inputs: up to 228 cells (every paper and generated input)
#: the list kernel takes 0.65-1.3x numpy's time, 0.83x summed over the
#: paper grid, and spares the process numpy's import (0.15 s, ~11 MB);
#: from 330 cells (the extended inputs but adi's two) it takes 1.4-20x
#: (EXPERIMENTS.md, "Exact Python instead of numpy").
LIST_KERNEL_CELLS = 256


def _x(phase: int, cand: int) -> str:
    return f"x:{phase}:{cand}"


def _y(p: int, i: int, q: int, j: int) -> str:
    return f"y:{p}:{i}:{q}:{j}"


@dataclass
class SelectionILP:
    """Built model plus decode metadata."""

    model: ZeroOneModel
    graph: DataLayoutGraph

    @property
    def num_variables(self) -> int:
        return self.model.num_variables

    @property
    def num_constraints(self) -> int:
        return self.model.num_constraints


def build_selection_model(
    graph: DataLayoutGraph,
    allowed: Optional[Dict[int, set]] = None,
) -> SelectionILP:
    """Translate the data layout graph into the 0-1 selection model.

    ``allowed`` optionally restricts the candidate positions per phase
    (used to solve for the best layout *within* a static scheme, and to
    honour user edits of the search spaces)."""
    model = ZeroOneModel(name="layout-selection", sense=MINIMIZE)
    objective: Dict[str, float] = {}

    for phase_index, costs in sorted(graph.node_costs.items()):
        for cand, cost in enumerate(costs):
            var = model.add_var(_x(phase_index, cand))
            objective[var] = cost
        model.add_constraint(
            {_x(phase_index, c): 1.0 for c in range(len(costs))},
            "==",
            1.0,
            name=f"one-layout:{phase_index}",
        )
        if allowed is not None and phase_index in allowed:
            for cand in range(len(costs)):
                if cand not in allowed[phase_index]:
                    model.add_constraint(
                        {_x(phase_index, cand): 1.0},
                        "==",
                        0.0,
                        name=f"forbid:{phase_index}:{cand}",
                    )

    for edge in graph.edges:
        p, q = edge.src_phase, edge.dst_phase
        for (i, j), cost in sorted(edge.costs.items()):
            yvar = model.add_var(_y(p, i, q, j))
            objective[yvar] = cost
            # y >= x_p_i + x_q_j - 1
            model.add_constraint(
                {
                    yvar: 1.0,
                    _x(p, i): -1.0,
                    _x(q, j): -1.0,
                },
                ">=",
                -1.0,
                name=f"remap:{p}:{i}->{q}:{j}",
            )
    model.set_objective(objective)
    return SelectionILP(model=model, graph=graph)


@dataclass
class SelectionResult:
    """Selected candidate position per phase (optimal unless flagged)."""

    selection: Dict[int, int]
    objective: float
    solution: Solution
    num_variables: int
    num_constraints: int
    optimal: bool = True  # False when a deadline forced a fallback


def greedy_selection(
    graph: DataLayoutGraph,
    allowed: Optional[Dict[int, set]] = None,
) -> Dict[int, int]:
    """Greedy layout selection: the anytime fallback when the selection
    ILP's budget expires with no incumbent.

    Walks phases in program order picking, for each, the candidate that
    minimizes its node cost plus the remapping cost from the previous
    choices — the classic one-pass heuristic the paper's exact ILP
    improves upon (Section 2.4).  Raises ``RuntimeError`` when
    ``allowed`` empties a phase, as the exact paths do.
    """
    # Remapping edges into each phase from already-decided phases.
    incoming: Dict[int, list] = {}
    for edge in graph.edges:
        incoming.setdefault(edge.dst_phase, []).append(edge)

    selection: Dict[int, int] = {}
    for phase_index, costs in sorted(graph.node_costs.items()):
        candidates = range(len(costs))
        if allowed is not None and phase_index in allowed:
            candidates = [
                c for c in candidates if c in allowed[phase_index]
            ]
            if not candidates:
                raise RuntimeError("selection ILP infeasible")
        best_cand, best_cost = None, None
        for cand in candidates:
            cost = costs[cand]
            for edge in incoming.get(phase_index, ()):
                prev = selection.get(edge.src_phase)
                if prev is not None:
                    cost += edge.costs.get((prev, cand), 0.0)
            if best_cost is None or cost < best_cost:
                best_cand, best_cost = cand, cost
        selection[phase_index] = best_cand if best_cand is not None else 0
    return selection


def _model_shape(
    graph: DataLayoutGraph, allowed: Optional[Dict[int, set]]
) -> Tuple[int, int, int]:
    """Variable/constraint counts of the full selection model, computed
    without building it, and the remap-edge cells among them."""
    nvars = ncons = 0
    for phase_index, costs in graph.node_costs.items():
        nvars += len(costs)
        ncons += 1
        if allowed is not None and phase_index in allowed:
            ncons += sum(
                1 for c in range(len(costs)) if c not in allowed[phase_index]
            )
    cells = sum(len(edge.costs) for edge in graph.edges)
    return nvars + cells, ncons + cells, cells


def _greedy_degraded(
    graph: DataLayoutGraph,
    allowed: Optional[Dict[int, set]],
    nvars: int,
    ncons: int,
    detail: str,
) -> SelectionResult:
    """The deadline-expired fallback shared by both solve paths."""
    selection = greedy_selection(graph, allowed=allowed)
    note_degradation("selection", "greedy-fallback", detail)
    evaluated = graph.evaluate(selection)
    return SelectionResult(
        selection=selection,
        objective=evaluated,
        solution=Solution(
            status="unknown",
            objective=float("nan"),
            values={},
            stats=SolveStats(backend="presolve"),
        ),
        num_variables=nvars,
        num_constraints=ncons,
        optimal=False,
    )


def _kernels(cells: int) -> Iterator:
    """The exact kernels to try in turn: the list kernel for a graph of
    at most ``LIST_KERNEL_CELLS`` remap-edge cells, then numpy's, which
    takes what the list kernel's table cap turns away."""
    if cells <= LIST_KERNEL_CELLS:
        yield minsum
    from . import presolve  # loads numpy

    yield presolve


def _select_presolved(
    graph: DataLayoutGraph,
    allowed: Optional[Dict[int, set]],
    nvars: int,
    ncons: int,
    cells: int,
) -> SelectionResult:
    """Graph presolve, then exact elimination of every residual
    component; no 0-1 model is built."""
    start = time.perf_counter()
    with tracing.span(
        "ilp.presolve", name="layout-selection", variables=nvars
    ) as psp:
        for kernel in _kernels(cells):
            pre = kernel.presolve_selection(graph, allowed=allowed)
            psp.set_attr("fixed", len(pre.fixed))
            psp.set_attr("pruned", pre.pruned)
            psp.set_attr("checks", pre.checks)
            psp.set_attr("components", len(pre.components))
            selection: Dict[int, int] = dict(pre.fixed)
            try:
                for comp in pre.components:
                    selection.update(kernel.eliminate_component(pre, comp))
            except minsum.TableOverflow:
                continue
            except DeadlineExceeded:
                return _greedy_degraded(
                    graph, allowed, nvars, ncons,
                    "deadline expired during elimination; "
                    "greedy one-pass selection",
                )
            break
        psp.set_attr("tied", pre.tied)
        psp.set_attr("conditioned", pre.conditioned)
        psp.set_attr("cutset", pre.cutset)
        psp.set_attr("max_table", pre.max_table)
        psp.set_attr("cells", pre.cells)
    if pre.interrupted:
        note_degradation(
            "selection", "incumbent",
            "deadline expired during cutset conditioning; "
            "using the best assignment solved",
        )
    evaluated = graph.evaluate(selection)
    solution = Solution(
        status="time_limit" if pre.interrupted else "optimal",
        objective=evaluated,
        values={},
        stats=SolveStats(
            backend="elimination",
            wall_time=time.perf_counter() - start,
        ),
    )
    return SelectionResult(
        selection=selection,
        objective=evaluated,
        solution=solution,
        num_variables=nvars,
        num_constraints=ncons,
        optimal=not pre.interrupted,
    )


def _select_reference(
    graph: DataLayoutGraph,
    backend: str,
    allowed: Optional[Dict[int, set]],
    nvars: int,
    ncons: int,
) -> SelectionResult:
    """The paper's formulation verbatim: the whole 0-1 model, solved,
    each phase's candidate read off the ``x`` variables."""
    ilp = build_selection_model(graph, allowed=allowed)
    solution = ilp_solve(ilp.model, backend=backend)
    if solution.status == "unknown":
        return _greedy_degraded(
            graph, allowed, nvars, ncons,
            "no incumbent within budget; greedy one-pass selection",
        )
    if not solution.has_incumbent:
        # Exactly-one rows make the model feasible by construction.
        raise RuntimeError(f"selection ILP {solution.status}")
    selection: Dict[int, int] = {}
    for phase_index, costs in graph.node_costs.items():
        for cand in range(len(costs)):
            if solution.values.get(_x(phase_index, cand)) == 1:
                selection[phase_index] = cand
                break
        else:  # pragma: no cover - guaranteed by exactly-one
            raise AssertionError(f"no candidate chosen for {phase_index}")
    if not solution.is_optimal:
        note_degradation(
            "selection", "incumbent",
            f"solver stopped at {solution.status}; using best incumbent",
        )
    evaluated = graph.evaluate(selection)
    # Cross-check the ILP objective against the shared evaluator.
    # (Skipped for incumbents: their y-variables may sit above the
    # implied indicator values, inflating the reported objective;
    # ``evaluated`` is authoritative either way.)
    if solution.is_optimal and abs(evaluated - solution.objective) > max(
        1e-6 * evaluated, 1e-3
    ):
        raise AssertionError(
            f"ILP objective {solution.objective} != evaluated {evaluated}"
        )
    return SelectionResult(
        selection=selection,
        objective=evaluated,
        solution=solution,
        num_variables=nvars,
        num_constraints=ncons,
        optimal=solution.is_optimal,
    )


def select_layouts(
    graph: DataLayoutGraph,
    backend: str = "scipy",
    allowed: Optional[Dict[int, set]] = None,
    presolve: bool = True,
) -> SelectionResult:
    """Solve the selection problem to proven optimality.

    By default the graph-level presolve (dead-end elimination +
    conditioning) fixes most phases and the residual components are
    solved by exact variable elimination, conditioned on a cutset of
    phases when a component outgrows the elimination tables; ``backend``
    is then unused.  A graph of at most ``LIST_KERNEL_CELLS`` remap-edge
    cells is solved over plain lists (:mod:`repro.selection.minsum`), a
    wider one, or one whose tables outgrow ``TABLE_CAP``, by the numpy
    kernel (:mod:`repro.selection.presolve`): the same answer and span
    counters either way.  The 0-1 model is
    only built, and handed to ``backend``, when ``presolve=False``.  Both
    paths return the same canonical optimum.

    If a request deadline cuts the solve short, the best incumbent (the
    solver's, or the best cutset assignment solved), or else the greedy
    one-pass selection, is returned with ``optimal=False`` and a
    degradation note instead of an exception; with the budget already
    spent on entry nothing is built or solved at all.
    """
    with tracing.span(
        "selection.solve", backend=backend, presolve=presolve
    ) as sp:
        nvars, ncons, cells = _model_shape(graph, allowed)
        sp.set_attr("variables", nvars)
        sp.set_attr("constraints", ncons)
        budget = remaining_budget()
        if budget is not None and budget <= 0:
            result = _greedy_degraded(
                graph, allowed, nvars, ncons,
                "request budget already spent; greedy one-pass selection",
            )
        elif presolve:
            result = _select_presolved(graph, allowed, nvars, ncons, cells)
        else:
            result = _select_reference(graph, backend, allowed, nvars, ncons)
        sp.set_attr("objective_us", result.objective)
        sp.set_attr("optimal", result.optimal)
    return result
