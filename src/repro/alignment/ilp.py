"""0-1 integer programming formulation of the inter-dimensional alignment
problem — the paper's appendix, implemented verbatim.

An instance asks for a ``d``-partitioning of a weighted CAG minimizing the
weight of edges that cross partitions (equivalently, maximizing the weight
of edges inside partitions).

Variables
    * node switches ``a_ik`` — node ``a_i`` lies in partition ``k``;
    * edge switches ``a$b^{ik}_{jk}`` — the edge's source and sink both lie
      in partition ``k``.

Constraints
    * (type1) every node in exactly one partition: ``sum_k a_ik = 1``;
    * (type2) two dimensions of one array never share a partition:
      ``sum_i a_ik <= 1`` for every (array, k);
    * IN-constraints: for every node ``a_i``, partition ``k`` and source
      array ``b``: ``sum_{b_j in SRC(b, a_i)} e <= a_ik``;
    * OUT-constraints: symmetric over ``SINK(a_i, c)``.

Edge directions are first *normalized* so all edges between one array pair
point the same way (the paper notes the direction only affects constraint
count, not correctness).

Objective: maximize ``sum_e sum_k e_k * weight(e)``.

:func:`resolve_conflicts` answers an instance without building that
model whenever a bounded enumeration of its feasible set
(:mod:`repro.alignment.enumeration`) proves the optimal cut unique; the
model and the 0-1 solver remain the path for ties, for instances past
the enumeration cap, and for the ``presolve=False`` reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..ilp import (
    MAXIMIZE, Solution, SolveStats, ZeroOneModel, solve as ilp_solve,
)
from ..obs.tracing import add_event as obs_event, span as obs_span
from ..resilience.deadline import checkpoint, remaining_budget
from ..resilience.degrade import note_degradation
from ..resilience.faults import fault_point
from . import enumeration
from .cag import CAG, Node
from .lattice import Partitioning

#: ``SolveStats.backend`` of a resolution answered without a solver
ENUMERATION_BACKEND = "enumeration"


def _node_var(node: Node, k: int) -> str:
    return f"n:{node[0]}[{node[1]}]@{k}"


def _edge_var(src: Node, dst: Node, k: int) -> str:
    return f"e:{src[0]}[{src[1]}]${dst[0]}[{dst[1]}]@{k}"


@dataclass
class AlignmentILP:
    """A built alignment model plus the metadata to decode solutions."""

    model: ZeroOneModel
    cag: CAG
    d: int
    directed_edges: List[Tuple[Node, Node, float]]

    @property
    def num_variables(self) -> int:
        return self.model.num_variables

    @property
    def num_constraints(self) -> int:
        return self.model.num_constraints


def _check_rank(cag: CAG, d: int) -> None:
    if any(dim >= d for _a, dim in cag.nodes):
        raise ValueError(
            f"CAG contains a dimension index >= template rank {d}"
        )


def _directed_edges(cag: CAG) -> List[Tuple[Node, Node, float]]:
    """Edge-direction normalization: every edge oriented from the
    lexicographically smaller array to the larger one."""
    directed: List[Tuple[Node, Node, float]] = []
    for (a, b), weight in sorted(cag.weights.items()):
        src, dst = (a, b) if a[0] <= b[0] else (b, a)
        directed.append((src, dst, weight))
    return directed


def model_size(cag: CAG, d: int) -> Tuple[int, int]:
    """(variables, constraints) of the appendix model for ``cag``,
    counted from the CAG without building the model."""
    directed = _directed_edges(cag)
    ranks: Dict[str, int] = {}
    for array, _dim in cag.nodes:
        ranks[array] = ranks.get(array, 0) + 1
    groups = sum(1 for rank in ranks.values() if rank >= 2)  # type2
    groups += len({(dst, src[0]) for src, dst, _w in directed})  # IN
    groups += len({(src, dst[0]) for src, dst, _w in directed})  # OUT
    return (
        d * (len(cag.nodes) + len(directed)),
        len(cag.nodes) + d * groups,
    )


def build_alignment_model(cag: CAG, d: int, name: str = "alignment") -> AlignmentILP:
    """Translate a CAG + template rank ``d`` into the appendix 0-1 model."""
    _check_rank(cag, d)
    model = ZeroOneModel(name=name, sense=MAXIMIZE)

    nodes = sorted(cag.nodes)
    arrays: Dict[str, List[Node]] = {}
    for node in nodes:
        arrays.setdefault(node[0], []).append(node)

    directed = _directed_edges(cag)

    # Variables.
    for node in nodes:
        for k in range(d):
            model.add_var(_node_var(node, k))
    for src, dst, _w in directed:
        for k in range(d):
            model.add_var(_edge_var(src, dst, k))

    # (type1) node constraints.
    for node in nodes:
        model.add_constraint(
            {_node_var(node, k): 1.0 for k in range(d)},
            "==",
            1.0,
            name=f"type1:{node[0]}[{node[1]}]",
        )
    # (type2) array constraints.
    for array, array_nodes in sorted(arrays.items()):
        if len(array_nodes) < 2:
            continue
        for k in range(d):
            model.add_constraint(
                {_node_var(node, k): 1.0 for node in array_nodes},
                "<=",
                1.0,
                name=f"type2:{array}@{k}",
            )

    # Group edges for IN/OUT constraints.
    in_groups: Dict[Tuple[Node, str], List[Tuple[Node, Node]]] = {}
    out_groups: Dict[Tuple[Node, str], List[Tuple[Node, Node]]] = {}
    for src, dst, _w in directed:
        in_groups.setdefault((dst, src[0]), []).append((src, dst))
        out_groups.setdefault((src, dst[0]), []).append((src, dst))

    for (sink, src_array), edges in sorted(in_groups.items()):
        for k in range(d):
            coeffs = {_edge_var(s, t, k): 1.0 for s, t in edges}
            coeffs[_node_var(sink, k)] = -1.0
            model.add_constraint(
                coeffs, "<=", 0.0,
                name=f"in:{sink[0]}[{sink[1]}]<-{src_array}@{k}",
            )
    for (source, dst_array), edges in sorted(out_groups.items()):
        for k in range(d):
            coeffs = {_edge_var(s, t, k): 1.0 for s, t in edges}
            coeffs[_node_var(source, k)] = -1.0
            model.add_constraint(
                coeffs, "<=", 0.0,
                name=f"out:{source[0]}[{source[1]}]->{dst_array}@{k}",
            )

    # Objective: maximize satisfied edge weight.
    objective: Dict[str, float] = {}
    for src, dst, weight in directed:
        for k in range(d):
            objective[_edge_var(src, dst, k)] = weight
    model.set_objective(objective)

    return AlignmentILP(model=model, cag=cag, d=d, directed_edges=directed)


@dataclass
class AlignmentResolution:
    """Result of conflict resolution."""

    resolved: CAG  # the input CAG with cut edges removed (conflict-free)
    partitioning: Partitioning  # components of the resolved CAG
    assignment: Dict[Node, int]  # the ILP's partition index per node
    cut_weight: float
    solution: Solution
    num_variables: int
    num_constraints: int
    optimal: bool = True  # False when a deadline forced a fallback


def greedy_orientation(cag: CAG, d: int) -> Dict[Node, int]:
    """Greedy CAG orientation: the anytime fallback when the alignment
    ILP's budget expires without a proven optimum.

    Starts from the identity alignment (dimension ``i`` of every array
    on template axis ``i`` — always feasible, and the paper's default
    when no conflicts exist), then makes one deterministic
    local-improvement pass: each node moves to the axis that maximizes
    the satisfied weight of its incident edges, subject to the type-2
    rule that two dimensions of one array never share an axis.
    """
    nodes = sorted(cag.nodes)
    assignment: Dict[Node, int] = {node: node[1] for node in nodes}

    neighbors: Dict[Node, List[Tuple[Node, float]]] = {n: [] for n in nodes}
    for (a, b), weight in cag.weights.items():
        neighbors[a].append((b, weight))
        neighbors[b].append((a, weight))

    by_array: Dict[str, List[Node]] = {}
    for node in nodes:
        by_array.setdefault(node[0], []).append(node)

    # Visit heavy nodes first so they claim their best axis.
    def incident_weight(node: Node) -> float:
        return sum(w for _n, w in neighbors[node])

    for node in sorted(nodes, key=lambda n: (-incident_weight(n), n)):
        taken = {
            assignment[sib] for sib in by_array[node[0]] if sib != node
        }
        best_k = assignment[node]
        best_gain = sum(
            w for other, w in neighbors[node]
            if assignment[other] == best_k
        )
        for k in range(d):
            if k == best_k or k in taken:
                continue
            gain = sum(
                w for other, w in neighbors[node]
                if assignment[other] == k
            )
            if gain > best_gain:
                best_gain = gain
                best_k = k
        assignment[node] = best_k
    return assignment


def _enumerated_solution(
    cag: CAG, d: int, assignment: Dict[Node, int], stats: SolveStats
) -> Solution:
    """The appendix model's solution for a node assignment: every node
    and edge switch, and the satisfied weight as the objective."""
    values: Dict[str, int] = {}
    for node in sorted(cag.nodes):
        for k in range(d):
            values[_node_var(node, k)] = int(assignment[node] == k)
    objective = 0.0
    for src, dst, weight in _directed_edges(cag):
        inside = assignment[src] == assignment[dst]
        for k in range(d):
            values[_edge_var(src, dst, k)] = int(
                inside and assignment[src] == k
            )
        if inside:
            objective += weight
    return Solution(
        status="optimal", objective=objective, values=values, stats=stats
    )


def _solve_model(
    cag: CAG, d: int, name: str, backend: str
) -> Tuple[Solution, Dict[Node, int]]:
    """Build the appendix model, run the 0-1 solver on it and decode the
    node assignment — the solver's incumbent, or the greedy orientation
    when a deadline left it none (both noted as degradations)."""
    ilp = build_alignment_model(cag, d, name=name)
    solution = ilp_solve(ilp.model, backend=backend)
    if solution.has_incumbent:
        assignment: Dict[Node, int] = {}
        for node in cag.nodes:
            for k in range(d):
                if solution.values.get(_node_var(node, k)) == 1:
                    assignment[node] = k
                    break
        if not solution.is_optimal:
            note_degradation(
                "alignment", "incumbent",
                f"solver stopped at {solution.status}; "
                f"using best incumbent for {name!r}",
            )
    elif solution.status == "unknown":
        # Budget expired before any incumbent: fall back to the
        # greedy orientation heuristic.
        assignment = greedy_orientation(cag, d)
        note_degradation(
            "alignment", "greedy-fallback",
            f"no incumbent within budget; greedy orientation "
            f"for {name!r}",
        )
    else:
        # The model is feasible by construction (identity alignment
        # always satisfies it); a proven "infeasible" is a solver bug.
        raise RuntimeError(
            f"alignment ILP unexpectedly {solution.status} for {name!r}"
        )
    return solution, assignment


def resolve_conflicts(
    cag: CAG, d: int, backend: str = "scipy", name: str = "alignment",
    presolve: bool = True,
) -> AlignmentResolution:
    """Optimally resolve the inter-dimensional alignment conflicts of
    ``cag`` for a ``d``-dimensional template.

    Returns the conflict-free CAG obtained by removing the minimum-weight
    set of partition-crossing edges.  The instance is first enumerated
    (:func:`~repro.alignment.enumeration.enumerate_optimum`, at most
    ``VISIT_CAP`` search nodes); if exactly one cut-edge set reaches the
    optimal weight it is the answer of every exact method and is
    returned at once (``path`` ``direct``), with the canonical
    assignment and the appendix model's sizes and switch values, but
    without building the model.  Otherwise the appendix model goes to
    the 0-1 solver, whose pick is then the answer:

    * ``tie`` — two or more cut sets share the optimal weight;
    * ``overflow`` — the enumeration cap was exceeded;
    * ``reference`` — no enumeration was attempted: ``presolve=False``
      (the reference switch of ``qa/`` and the equivalence tests), or a
      request deadline with no budget left, which degrades below.

    If a request deadline cut the solve short, the best incumbent (or
    the greedy orientation) is used instead and the resolution is
    flagged ``optimal=False`` with a degradation note.  The
    ``ilp.solve`` fault site and deadline checkpoint fire once per
    resolution on every path.
    """
    with obs_span("alignment.resolve", name=name, template_rank=d) as sp:
        _check_rank(cag, d)
        num_variables, num_constraints = model_size(cag, d)
        sp.set_attr("variables", num_variables)
        sp.set_attr("constraints", num_constraints)
        path = "reference"
        budget = remaining_budget()
        if presolve and (budget is None or budget > 0.0):
            start = time.perf_counter()
            found = enumeration.enumerate_optimum(
                cag, d, enumeration.VISIT_CAP
            )
            elapsed = time.perf_counter() - start
            sp.set_attr("assignments", found.visited)
            sp.set_attr("optima", found.optima)
            if found.assignment is None:
                path = "overflow"
            elif found.optima > 1:
                path = "tie"
            else:
                path = "direct"
        sp.set_attr("path", path)
        if path == "direct":
            fault_point("ilp.solve")
            checkpoint("ilp.solve")
            assignment = found.assignment
            solution = _enumerated_solution(cag, d, assignment, SolveStats(
                backend=ENUMERATION_BACKEND, wall_time=elapsed,
                nodes=found.visited,
            ))
        else:
            solution, assignment = _solve_model(cag, d, name, backend)
        cut_keys = []
        cut_weight = 0.0
        for (a, b), weight in cag.weights.items():
            if assignment[a] != assignment[b]:
                cut_keys.append((a, b))
                cut_weight += weight
        if cut_keys:
            obs_event(
                "alignment.cut",
                name=name,
                cut_edges=sorted(
                    f"{a[0]}[{a[1]}]--{b[0]}[{b[1]}]" for a, b in cut_keys
                ),
                cut_weight=cut_weight,
            )
        resolved = cag.drop_edges(cut_keys)
    if resolved.has_conflict():  # pragma: no cover - guarded by type2
        raise AssertionError("ILP resolution left a conflict")
    return AlignmentResolution(
        resolved=resolved,
        partitioning=Partitioning.from_cag(resolved),
        assignment=assignment,
        cut_weight=cut_weight,
        solution=solution,
        num_variables=num_variables,
        num_constraints=num_constraints,
        optimal=solution.is_optimal,
    )
