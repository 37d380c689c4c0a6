"""Graph-level presolve + exact elimination for layout selection.

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
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..resilience.deadline import current_deadline
from ..resilience.errors import DeadlineExceeded
from .layout_graph import DataLayoutGraph

#: largest elimination-bucket tensor in elements.
#: The limit is memory, not time (a 12M-element bucket takes 0.2 s, the
#: solver seconds): 2**19 float64 is 4 MiB, and a component holds one
#: bucket, its min table and the min tables its backtrack re-reads
#: (under tracemalloc 1.23-1.36x the widest table on the widest
#: extended inputs), about 6 MiB beside a ~42 MiB process.
TABLE_CAP = 1 << 19

#: min-sum factors: (ascending phase scope, cost tensor over it)
Factors = List[Tuple[Tuple[int, ...], "np.ndarray"]]


@dataclass
class SelectionPresolve:
    """Fixpoint of DEE + conditioning over a data layout graph."""

    graph: DataLayoutGraph
    #: phases proven to a single candidate (value is the position)
    fixed: Dict[int, int]
    #: residual phases -> surviving candidate positions (ascending)
    active: Dict[int, List[int]]
    #: residual phases -> conditioned node costs of the survivors, in
    #: ``active`` order
    node: Dict[int, "np.ndarray"]
    #: merged remap matrices between residual phases, keyed (p, q),
    #: p < q: rows are ``active[p]``, columns ``active[q]``
    matrices: Dict[Tuple[int, int], "np.ndarray"]
    #: residual connected components (phases ascending)
    components: List[List[int]]
    #: number of (phase, candidate) pairs pruned by dead-end elimination
    pruned: int = 0
    #: number of phase dead-end checks the fixpoint ran
    checks: int = 0
    #: elimination bookkeeping, updated by :func:`eliminate_component`:
    #: the largest bucket table built and the sum of every bucket
    #: table built (elements), the number of problems whose first
    #: backtrack tied and so were conditioned in ascending order, the
    #: number solved under a cutset assignment and the largest cutset
    max_table: int = 0
    cells: int = 0
    tied: int = 0
    conditioned: int = 0
    cutset: int = 0
    #: a deadline stopped a cutset enumeration: the answer is the best
    #: assignment solved by then, not a proven optimum
    interrupted: bool = False

    def component_edges(
        self, comp: List[int]
    ) -> List[Tuple[int, int, "np.ndarray"]]:
        """The nonzero edges inside ``comp``."""
        members = set(comp)
        return [
            (p, q, matrix)
            for (p, q), matrix in sorted(self.matrices.items())
            if p in members and q in members and matrix.any()
        ]


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

    The state holds live candidates only.  A phase is checked once, then
    again only when a neighbour lost candidates or was conditioned into
    it: its own pruning moves no ``diff`` between survivors, so any
    other check would prune nothing (DESIGN.md §11.2).
    """
    node: Dict[int, np.ndarray] = {}
    active: Dict[int, List[int]] = {}
    for phase_index, costs in sorted(graph.node_costs.items()):
        positions = list(range(len(costs)))
        if allowed is not None and phase_index in allowed:
            positions = [c for c in positions if c in allowed[phase_index]]
            if not positions:
                raise RuntimeError("selection ILP infeasible")
        active[phase_index] = positions
        node[phase_index] = np.array(costs, dtype=np.float64)[positions]

    # Merge remap edges into one matrix per unordered phase pair; a
    # self-edge only ever charges its (i, i) diagonal, which is always
    # zero (same layout, same array), so it is dropped.
    sums: Dict[Tuple[int, int], List[List[float]]] = {}
    for edge in graph.edges:
        p, q = edge.src_phase, edge.dst_phase
        if p == q:
            continue
        key = (p, q) if p < q else (q, p)
        if key not in sums:
            sums[key] = [[0.0] * len(graph.node_costs[key[1]])
                         for _ in graph.node_costs[key[0]]]
        rows = sums[key]
        for (i, j), cost in edge.costs.items():
            if p < q:
                rows[i][j] += cost
            else:
                rows[j][i] += cost
    matrices: Dict[Tuple[int, int], np.ndarray] = {}
    for (p, q), rows in sums.items():
        matrix = np.array(rows, dtype=np.float64)
        if matrix.shape != (len(active[p]), len(active[q])):
            matrix = matrix[np.ix_(active[p], active[q])]
        matrices[p, q] = matrix

    fixed: Dict[int, int] = {}
    pruned = checks = 0

    #: phase -> live matrix keys touching it, in ``matrices`` order
    incident: Dict[int, List[Tuple[int, int]]] = {p: [] for p in node}
    for key in matrices:
        incident[key[0]].append(key)
        incident[key[1]].append(key)
    #: phases whose dead-end check may prune: never checked, or a
    #: neighbour changed since
    dirty = set(active)

    changed = True
    while changed:
        changed = False
        # Conditioning: fold singleton phases into their neighbours.
        for p in sorted(active):
            if len(active[p]) != 1:
                continue
            for key in incident.pop(p):
                axis = key.index(p)
                q = key[1 - axis]
                incident[q].remove(key)
                node[q] = node[q] + matrices.pop(key).take(0, axis=axis)
                dirty.add(q)
            fixed[p] = active.pop(p)[0]
            del node[p]
            changed = True
        # Dead-end elimination over the surviving candidates.
        for p in sorted(active):
            if len(active[p]) < 2 or p not in dirty:
                continue
            dirty.discard(p)
            checks += 1
            costs = node[p]
            diff = costs[:, None] - costs[None, :]
            for key in incident[p]:
                sub = matrices[key] if key[0] == p else matrices[key].T
                diff = diff + (
                    sub[:, None, :] - sub[None, :, :]
                ).max(axis=2)
            # diff[a, b] < 0: switching b -> a strictly improves every
            # completion, so candidate b survives in no optimum.
            dominated = (diff < 0.0).any(axis=0)
            if dominated.any():
                keep = ~dominated
                active[p] = [c for c, k in zip(active[p], keep) if k]
                node[p] = costs[keep]
                for key in incident[p]:
                    axis = key.index(p)
                    matrices[key] = matrices[key].compress(keep, axis=axis)
                    dirty.add(key[1 - axis])
                pruned += int(dominated.sum())
                changed = True

    # Residual connected components (every live edge joins two).
    parent = {p: p for p in active}

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for (p, q), matrix in matrices.items():
        if matrix.any():
            parent[find(p)] = find(q)
    groups: Dict[int, List[int]] = {}
    for p in sorted(active):
        groups.setdefault(find(p), []).append(p)
    components = sorted(groups.values())

    return SelectionPresolve(
        graph=graph,
        fixed=fixed,
        active=active,
        node=node,
        matrices=matrices,
        components=components,
        pruned=pruned,
        checks=checks,
    )


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


def _elimination_order(
    scopes: List[Tuple[int, ...]],
    sizes: Dict[int, int],
    last: Optional[int] = None,
) -> Tuple[List[int], int, frozenset]:
    """Simulate bucket elimination over factor ``scopes``, each phase of
    ``sizes`` in at least one: the order followed, its largest bucket
    table in elements and that bucket's phases.  Each step takes the
    phase whose bucket table is smallest (largest index on ties);
    ``last`` is kept for the end.

    A phase's bucket is the phase and its neighbours (the phases it
    shares a scope with); eliminating ``q`` joins its neighbours into a
    clique, so only their tables are recomputed."""
    near: Dict[int, Set[int]] = {p: set() for p in sizes}
    for scope in scopes:
        for p in scope:
            near[p].update(scope)

    def table(p: int) -> int:
        return math.prod(sizes[r] for r in near[p])

    tables = {p: table(p) for p in sizes}
    out: List[int] = []
    widest, wide = 0, frozenset()
    while tables:
        q = min(
            (p for p in tables if p != last),
            key=lambda p: (tables[p], -p), default=last,
        )
        members = near.pop(q)
        size = tables.pop(q)
        if size > widest:
            widest, wide = size, frozenset(members)
        members.discard(q)
        for r in members:
            near[r] |= members
            near[r].discard(q)
            tables[r] = table(r)
        out.append(q)
    return out, widest, wide


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
