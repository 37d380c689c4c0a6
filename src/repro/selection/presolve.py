"""Layout selection's numpy kernel: elimination arithmetic for wide
graphs.

``select_layouts`` runs it on graphs wider than ``LIST_KERNEL_CELLS``
remap-edge cells.  The algorithm, and the list kernel narrower graphs
take, are :mod:`repro.selection.minsum`'s; this module brings the
presolve over arrays and its :class:`~repro.selection.minsum.Kernel`,
every floating-point sum the list kernel's.  Importing it imports numpy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..resilience.deadline import current_deadline
from .layout_graph import DataLayoutGraph
from .minsum import (
    Kernel,
    SelectionPresolve,
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
        kernel=KERNEL,
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


def _restrict(factors: Factors, sizes: Dict[int, int],
              fix: Dict[int, int]) -> Factors:
    """``factors`` with each phase of ``fix`` cut down to its one
    position (a one-candidate axis)."""
    out = []
    for scope, arr in factors:
        for axis, p in enumerate(scope):
            if p in fix:
                arr = np.take(arr, [fix[p]], axis=axis)
        out.append((scope, arr))
    return out


def _cost(factors: Factors, sizes: Dict[int, int],
          local: Dict[int, int]) -> float:
    return sum(
        float(arr[tuple(local[p] for p in scope)]) for scope, arr in factors
    )


#: numpy's arithmetic: a remap matrix is its own factor table
KERNEL = Kernel(lambda matrix: matrix, _eliminate, _restrict, _cost)
