"""Graph-level presolve + exact elimination for layout selection: the
numpy kernel.

``select_layouts`` runs this kernel on graphs wider than
``LIST_KERNEL_CELLS`` remap-edge cells, and on any graph whose
elimination order overflows ``TABLE_CAP`` (only this kernel conditions
on a cutset); narrower graphs take the plain-Python kernel of
:mod:`repro.selection.minsum`, which shares the presolve state, the
elimination order and every floating-point sum with this one.  Importing
this module imports numpy.

The selection ILP (one candidate per phase, remap edges) carries a lot
of slack a solver-agnostic pass can remove up front, in the spirit of
the constraint-network propagation Chen & Kandemir apply to 0-1 layout
programs.  Two optimum-preserving reductions run to a fixpoint on the
data layout graph itself:

* **dead-end elimination** (Goldstein's criterion): candidate ``i`` of
  phase ``p`` is pruned when some ``i'`` satisfies ``node(i') - node(i)
  + sum_e max_j [e(i', j) - e(i, j)] < 0`` — switching ``i -> i'``
  strictly improves *every* completion, so ``i`` is in no optimum;
* **conditioning**: a phase reduced to one candidate is fixed, and its
  remap-edge costs fold into the neighbouring phases' node costs.

What survives is a residual graph whose connected components are solved
independently — by exact **min-sum variable elimination** (nonserial
dynamic programming over elimination buckets), whose cost is exponential
only in the induced width of the elimination order.  A component whose
order passes ``TABLE_CAP`` is **conditioned on a cutset** of phases,
each assignment eliminated on its own; no 0-1 model is built.

Canonical tie-breaking: the answer is the lexicographically smallest
selection vector among the optima — exactly the assignment the
branch-bound backend's lexicographically-greatest 0-1 rule decodes to.
Components eliminate phases in the greedy min-table order and backtrack
in reverse, taking the *first* argmin at every step.  A tie-free
backtrack proves the optimum unique, hence the smallest; a tie triggers
ascending conditioning; cutset assignments are ranked by objective, then
by selection in ascending phase order (see :func:`eliminate_component`).
So the fast path and the ILP path agree bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..resilience.deadline import current_deadline
from ..resilience.errors import DeadlineExceeded
from .layout_graph import DataLayoutGraph
from .minsum import (
    TABLE_CAP,
    SelectionPresolve,
    _elimination_order,
    initial_state,
    reduce_to_fixpoint,
    residual_components,
)

#: min-sum factors: (ascending phase scope, cost tensor over it)
Factors = List[Tuple[Tuple[int, ...], "np.ndarray"]]


def presolve_selection(
    graph: DataLayoutGraph,
    allowed: Optional[Dict[int, set]] = None,
) -> SelectionPresolve:
    """Run dead-end elimination + conditioning to a fixpoint.

    Both rules only remove candidates that appear in **no** optimum (and
    fix phases whose candidate appears in **every** optimum), so the
    residual problem has exactly the original optima, shifted by a
    constant.  Raises ``RuntimeError`` when ``allowed`` empties a phase
    (the ILP would be infeasible — same outcome as the slow path).

    The state holds live candidates only; the fixpoint loop, which
    re-checks a phase only when its neighbourhood changed, is
    :func:`repro.selection.minsum.reduce_to_fixpoint`.
    """
    active, sums = initial_state(graph, allowed)
    node: Dict[int, np.ndarray] = {
        p: np.array(graph.node_costs[p], dtype=np.float64)[positions]
        for p, positions in active.items()
    }
    matrices: Dict[Tuple[int, int], np.ndarray] = {}
    for (p, q), rows in sums.items():
        matrix = np.array(rows, dtype=np.float64)
        if matrix.shape != (len(active[p]), len(active[q])):
            matrix = matrix[np.ix_(active[p], active[q])]
        matrices[p, q] = matrix

    fixed, pruned, checks = reduce_to_fixpoint(
        active, node, matrices,
        lambda costs, matrix, axis: costs + matrix.take(0, axis=axis),
        _undominated,
        lambda cells, keep, axis: cells.compress(keep, axis=axis),
    )

    linked = {key for key, matrix in matrices.items() if matrix.any()}
    return SelectionPresolve(
        graph=graph,
        fixed=fixed,
        active=active,
        node=node,
        matrices=matrices,
        linked=linked,
        components=residual_components(active, sorted(linked)),
        pruned=pruned,
        checks=checks,
    )


def _undominated(p: int, costs: "np.ndarray", keys: List[Tuple[int, int]],
                 matrices: Dict[Tuple[int, int], "np.ndarray"]) -> List[bool]:
    """Per candidate of ``p``, whether no other one dominates it."""
    diff = costs[:, None] - costs[None, :]
    for key in keys:
        sub = matrices[key] if key[0] == p else matrices[key].T
        diff = diff + (sub[:, None, :] - sub[None, :, :]).max(axis=2)
    # diff[a, b] < 0: switching b -> a strictly improves every
    # completion, so candidate b survives in no optimum.
    return (~(diff < 0.0).any(axis=0)).tolist()


def _align(arr: "np.ndarray", scope: Tuple[int, ...],
           target: Tuple[int, ...]) -> "np.ndarray":
    """Reshape a factor over ``scope`` for broadcasting over ``target``.

    Both are ascending phase tuples with ``scope`` a subset of
    ``target``, so inserting singleton axes preserves axis order.
    """
    shape = [1] * len(target)
    for size, p in zip(arr.shape, scope):
        shape[target.index(p)] = size
    return arr.reshape(shape)


def _eliminate(
    pre: SelectionPresolve,
    factors: Factors,
    sizes: Dict[int, int],
    order: List[int],
) -> Tuple[Dict[int, int], Set[int]]:
    """Min-sum eliminate ``order``, then backtrack in reverse taking the
    first argmin at every step: the position chosen per phase, and the
    phases whose argmin was tied.

    One bucket table is alive at a time: it is summed in place, reduced
    to its min table and dropped.  The backtrack re-sums the one row it
    needs from the bucket's factors in the same order (``0 + f1 + f2
    ...``), the same IEEE additions that filled the table, so the row,
    its first argmin and its ties are the table's."""
    deadline = current_deadline()
    #: per eliminated phase: (phase, its bucket's factors in summing
    #: order)
    record: List[Tuple[int, Factors]] = []
    for q in order:
        if deadline is not None:
            deadline.check("selection.elimination")
        bucket = sorted(
            (f for f in factors if q in f[0]), key=lambda f: f[0]
        )
        factors = [f for f in factors if q not in f[0]]
        target: Tuple[int, ...] = tuple(sorted(
            {p for scope, _ in bucket for p in scope}
        ))
        combined = np.zeros(tuple(sizes[p] for p in target))
        pre.cells += combined.size
        for scope, arr in bucket:
            np.add(combined, _align(arr, scope, target), out=combined)
        record.append((q, bucket))
        if len(target) > 1:
            factors.append((
                tuple(p for p in target if p != q),
                combined.min(axis=target.index(q)),
            ))
        del combined  # before the next bucket is allocated

    local: Dict[int, int] = {}
    tied: Set[int] = set()
    for q, bucket in reversed(record):
        vector = np.zeros(sizes[q])
        for scope, arr in bucket:
            vector += arr[tuple(
                slice(None) if p == q else local[p] for p in scope
            )]
        local[q] = int(np.argmin(vector))
        if np.count_nonzero(vector == vector[local[q]]) > 1:
            tied.add(q)
    return local, tied


def _restrict(factors: Factors, fix: Dict[int, int]) -> Factors:
    """``factors`` with each phase of ``fix`` cut down to its one
    position (a one-candidate axis)."""
    out = []
    for scope, arr in factors:
        for axis, p in enumerate(scope):
            if p in fix:
                arr = np.take(arr, [fix[p]], axis=axis)
        out.append((scope, arr))
    return out


def eliminate_component(
    pre: SelectionPresolve,
    comp: List[int],
    table_cap: int = TABLE_CAP,
) -> Dict[int, int]:
    """Exactly solve one residual component by variable elimination,
    conditioned on a cutset where its order does not fit ``table_cap``
    (>= 1).

    Returns the optimal candidate position per phase under the canonical
    tie-break.  Between buckets, raises ``DeadlineExceeded`` once the
    request's budget has passed (unless a cutset assignment is solved:
    the best one is returned and ``pre.interrupted`` set) and
    ``RequestTimeout`` once its hard limit has.
    """
    if table_cap < 1:
        raise ValueError(f"table_cap must be at least 1, got {table_cap}")
    factors: Factors = [((p,), pre.node[p]) for p in comp]
    factors.extend(
        ((p, q), sub) for p, q, sub in pre.component_edges(comp)
    )
    local = _lex_min(
        pre, factors, {p: len(pre.active[p]) for p in comp}, table_cap
    )
    return {p: pre.active[p][local[p]] for p in comp}


def _lex_min(pre: SelectionPresolve, factors: Factors,
             sizes: Dict[int, int], table_cap: int) -> Dict[int, int]:
    """The lexicographically smallest optimum of ``factors``, a position
    per phase of ``sizes``."""
    scopes = [scope for scope, _ in factors]

    # Greedy order (``last=None``): canonical only when no argmin is
    # tied, which proves the optimum unique.  After a tie, condition
    # phases in ascending order: eliminated last, a phase's first argmin
    # is its value in the smallest optimum; fix it (a one-candidate
    # axis) and go on until the rest follows without ties.  What is left
    # when an order overflows is conditioned on a cutset.
    sizes = dict(sizes)
    fix: Dict[int, int] = {}
    for last in [None, *sorted(sizes)]:
        order, widest, _ = _elimination_order(scopes, sizes, last=last)
        if widest > table_cap:
            local = _condition(pre, factors, sizes, table_cap, last)
            break
        pre.max_table = max(pre.max_table, widest)
        local, tied = _eliminate(pre, factors, sizes, order)
        if tied <= {last}:
            break
        if last is None:
            pre.tied += 1
        else:
            fix[last] = local[last]
            factors = _restrict(factors, {last: fix[last]})
            sizes[last] = 1
    local.update(fix)
    return local


def _condition(pre: SelectionPresolve, factors: Factors,
               sizes: Dict[int, int], table_cap: int,
               last: Optional[int]) -> Dict[int, int]:
    """The lexicographically smallest optimum of ``factors`` when the
    greedy order keeping ``last`` for the end overflows ``table_cap``.

    Phases join a cutset until that order fits, each time the one with
    the most candidates in the widest bucket (smallest index on ties).
    Each assignment of the cutset, ascending, is a problem of its own,
    solved by :func:`_lex_min` (a nested overflow conditions again), and
    the best by ``(objective, selection in ascending phase order)`` is
    kept: the smallest optimum has some cutset assignment, and under it
    is that problem's own smallest optimum."""
    scopes = [scope for scope, _ in factors]
    reduced = dict(sizes)
    cutset: List[int] = []
    while True:
        _order, widest, wide = _elimination_order(scopes, reduced, last=last)
        if widest <= table_cap:
            break
        cutset.append(max(wide, key=lambda q: (reduced[q], -q)))
        reduced[cutset[-1]] = 1
    cutset.sort()
    pre.cutset = max(pre.cutset, len(cutset))

    best: Tuple = ()
    for values in itertools.product(*(range(sizes[p]) for p in cutset)):
        fix = dict(zip(cutset, values))
        try:
            local = _lex_min(
                pre, _restrict(factors, fix), reduced, table_cap
            )
        except DeadlineExceeded:
            if not best:
                raise
            pre.interrupted = True
            break
        pre.conditioned += 1
        local.update(fix)
        cost = sum(
            float(arr[tuple(local[p] for p in scope)])
            for scope, arr in factors
        )
        key = (cost, [local[p] for p in sorted(local)])
        if not best or key < best[0]:
            best = (key, local)
    return best[1]
