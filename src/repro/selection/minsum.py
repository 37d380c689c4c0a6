"""Layout selection's exact algorithm, written once, and its kernel
over plain Python lists.

The selection ILP (one candidate per phase, remap edges) carries a lot
of slack a solver-agnostic pass can remove up front, in the spirit of
the constraint-network propagation Chen & Kandemir apply to 0-1 layout
programs.  Two optimum-preserving reductions run to a fixpoint on the
data layout graph itself (:func:`reduce_to_fixpoint`):

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

Two kernels run this algorithm, each bringing only its arithmetic: its
``presolve_selection`` and the :class:`Kernel` it records in the
presolve state.  Every cost is the same IEEE sum in the same order,
every min and first argmin the same comparison, so both return the
same presolve state, selection and ``ilp.presolve`` counters.  This
module's kernel works over lists: the paper's programs' widest table is
324 cells, and numpy arrays of a few dozen elements cost more than the
loops they replace.  numpy's (:mod:`repro.selection.presolve`) is
elimination arithmetic for wide graphs, which ``select_layouts`` sends
there by their remap-edge cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import sub
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence,
    Set, Tuple,
)

from ..resilience.deadline import current_deadline
from ..resilience.errors import DeadlineExceeded
from .layout_graph import DataLayoutGraph

#: largest elimination-bucket table in elements.
#: The limit is memory, not time (a 12M-element bucket takes 0.2 s, the
#: solver seconds): 2**19 float64 is 4 MiB, and a component holds one
#: bucket, its min table and the min tables its backtrack re-reads
#: (under tracemalloc 1.23-1.36x the widest table on the widest
#: extended inputs), about 6 MiB beside a ~41 MiB process (the
#: ``tool-extended`` benchmark's peak, numpy loaded; ``tool-paper``,
#: which never loads it, peaks at ~27 MiB).
TABLE_CAP = 1 << 19

#: min-sum factors of the list kernel: (ascending phase scope, its
#: table flattened in row-major order)
Factors = List[Tuple[Tuple[int, ...], List[float]]]


class Kernel(NamedTuple):
    """A kernel's arithmetic over factors ``(ascending phase scope,
    table)``, ``sizes`` giving each phase's axis length in them."""

    #: a remap matrix of the presolve state as a factor table
    table: Callable[[Any], Any]
    #: ``(pre, factors, sizes, order) -> (local, tied)``: ``_eliminate``
    eliminate: Callable[..., Tuple[Dict[int, int], Set[int]]]
    #: ``(factors, sizes, fix) -> factors``: ``_restrict``
    restrict: Callable[..., Any]
    #: ``(factors, sizes, local) -> float``: the objective of a position
    #: per phase, summed over ``factors`` in order
    cost: Callable[..., float]


@dataclass
class SelectionPresolve:
    """Fixpoint of DEE + conditioning over a data layout graph.

    The numpy kernel holds ``node`` and ``matrices`` as arrays, the list
    kernel as lists of floats and lists of rows."""

    graph: DataLayoutGraph
    #: phases proven to a single candidate (value is the position)
    fixed: Dict[int, int]
    #: residual phases -> surviving candidate positions (ascending)
    active: Dict[int, List[int]]
    #: residual phases -> conditioned node costs of the survivors, in
    #: ``active`` order
    node: Dict[int, Sequence[float]]
    #: merged remap matrices between residual phases, keyed (p, q),
    #: p < q: rows are ``active[p]``, columns ``active[q]``
    matrices: Dict[Tuple[int, int], Sequence[Sequence[float]]]
    #: the keys of ``matrices`` with a nonzero entry
    linked: Set[Tuple[int, int]]
    #: residual connected components (phases ascending)
    components: List[List[int]]
    #: the arithmetic :func:`eliminate_component` solves them with
    kernel: Kernel
    #: number of (phase, candidate) pairs pruned by dead-end elimination
    pruned: int = 0
    #: number of phase dead-end checks the fixpoint ran
    checks: int = 0
    #: elimination bookkeeping, updated by ``eliminate_component``:
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
    ) -> List[Tuple[int, int, Sequence[Sequence[float]]]]:
        """The nonzero edges inside ``comp``."""
        members = set(comp)
        return [
            (p, q, matrix)
            for (p, q), matrix in sorted(self.matrices.items())
            if p in members and q in members and (p, q) in self.linked
        ]


def initial_state(
    graph: DataLayoutGraph,
    allowed: Optional[Dict[int, set]],
) -> Tuple[Dict[int, List[int]], Dict[Tuple[int, int], List[List[float]]]]:
    """Each phase's allowed positions, and the remap edges merged into
    one full matrix per unordered phase pair ``(p, q)``, ``p < q``.

    Raises ``RuntimeError`` when ``allowed`` empties a phase.  A
    self-edge only ever charges its (i, i) diagonal, which is always
    zero (same layout, same array), so it is dropped."""
    active: Dict[int, List[int]] = {}
    for phase_index, costs in sorted(graph.node_costs.items()):
        positions = list(range(len(costs)))
        if allowed is not None and phase_index in allowed:
            positions = [c for c in positions if c in allowed[phase_index]]
            if not positions:
                raise RuntimeError("selection ILP infeasible")
        active[phase_index] = positions
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
    return active, sums


def residual_components(
    phases: Iterable[int], links: Iterable[Tuple[int, int]]
) -> List[List[int]]:
    """Connected components of ``phases`` joined by ``links``, each
    ascending, in ascending order."""
    parent = {p: p for p in phases}

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for p, q in links:
        parent[find(p)] = find(q)
    groups: Dict[int, List[int]] = {}
    for p in sorted(parent):
        groups.setdefault(find(p), []).append(p)
    return sorted(groups.values())


def presolve_selection(
    graph: DataLayoutGraph,
    allowed: Optional[Dict[int, set]] = None,
) -> SelectionPresolve:
    """Dead-end elimination + conditioning to a fixpoint, over lists:
    :func:`repro.selection.presolve.presolve_selection`, the same checks
    in the same order on the same floats."""
    active, sums = initial_state(graph, allowed)
    node: Dict[int, List[float]] = {
        p: [float(graph.node_costs[p][c]) for c in positions]
        for p, positions in active.items()
    }
    matrices: Dict[Tuple[int, int], List[List[float]]] = {}
    for (p, q), rows in sums.items():
        if (len(active[p]) != len(graph.node_costs[p])
                or len(active[q]) != len(graph.node_costs[q])):
            rows = [[rows[i][j] for j in active[q]] for i in active[p]]
        matrices[p, q] = rows
    fixed, pruned, checks = reduce_to_fixpoint(
        active, node, matrices, _fold, _undominated, _compress
    )
    linked = {key for key, matrix in matrices.items() if any(map(any, matrix))}
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


def reduce_to_fixpoint(
    active: Dict[int, List[int]],
    node: Dict[int, Any],
    matrices: Dict[Tuple[int, int], Any],
    fold: Callable[[Any, Any, int], Any],
    undominated: Callable[..., List[bool]],
    compress: Callable[[Any, List[bool], int], Any],
) -> Tuple[Dict[int, int], int, int]:
    """Conditioning and dead-end elimination over ``active``, ``node``
    and ``matrices``, in place, to a fixpoint: the fixed phases, the
    candidates pruned and the dead-end checks run.

    A kernel brings its arithmetic: ``fold(node, matrix, axis)`` adds a
    singleton's row (``axis`` 0) or column (1) of ``matrix`` to a
    neighbour's node costs, ``undominated(p, costs, keys, matrices)``
    tells which of ``p``'s candidates survive, and ``compress(costs or
    matrix, keep, axis)`` drops the others along ``axis``.

    A phase is checked once, then again only when a neighbour lost
    candidates or was conditioned into it: its own pruning moves no
    ``diff`` between survivors, so any other check would prune nothing
    (DESIGN.md §11.2)."""
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
                node[q] = fold(node[q], matrices.pop(key), axis)
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
            keep = undominated(p, node[p], incident[p], matrices)
            if not all(keep):
                active[p] = [c for c, k in zip(active[p], keep) if k]
                node[p] = compress(node[p], keep, 0)
                for key in incident[p]:
                    axis = key.index(p)
                    matrices[key] = compress(matrices[key], keep, axis)
                    dirty.add(key[1 - axis])
                pruned += keep.count(False)
                changed = True
    return fixed, pruned, checks


def _fold(costs: List[float], matrix: List[List[float]],
          axis: int) -> List[float]:
    along = matrix[0] if axis == 0 else [row[0] for row in matrix]
    return [a + b for a, b in zip(costs, along)]


def _compress(cells: List, keep: List[bool], axis: int) -> List:
    if axis == 0:
        return [x for x, k in zip(cells, keep) if k]
    return [[x for x, k in zip(row, keep) if k] for row in cells]


def _undominated(
    p: int,
    costs: List[float],
    keys: List[Tuple[int, int]],
    matrices: Dict[Tuple[int, int], List[List[float]]],
) -> List[bool]:
    """Per candidate of ``p``, whether no other one dominates it:
    ``b`` falls when some ``a`` has ``costs[a] - costs[b] + sum over
    keys of max_j (e(a, j) - e(b, j)) < 0``, summed in ``keys`` order."""
    # each incident matrix with p's candidates as rows
    incident = [
        matrices[key] if key[0] == p else list(zip(*matrices[key]))
        for key in keys
    ]
    keep = []
    for b, cost_b in enumerate(costs):
        alive = True
        for a, cost_a in enumerate(costs):
            if a == b:
                continue
            diff = cost_a - cost_b
            for rows in incident:
                diff = diff + max(map(sub, rows[a], rows[b]))
            if diff < 0.0:
                alive = False
                break
        keep.append(alive)
    return keep


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


def _broadcast(
    table: List[float],
    scope: Tuple[int, ...],
    target: Tuple[int, ...],
    sizes: Dict[int, int],
) -> List[float]:
    """``table`` over ``scope`` laid out over ``target`` (both ascending,
    ``scope`` within ``target``, row-major), repeated along the phases
    it lacks."""
    cells = table
    inner = 1  # cells per block of the phases after the current one
    for p in reversed(target):
        count = sizes[p]
        if p not in scope and count > 1:
            if inner == 1:
                cells = [x for x in cells for _ in range(count)]
            elif inner == len(cells):
                cells = cells * count
            else:
                cells = [x for i in range(0, len(cells), inner)
                         for x in cells[i:i + inner] * count]
        inner *= count
    return cells


def _row(table: List[float], scope: Tuple[int, ...], sizes: Dict[int, int],
         q: int, local: Dict[int, int]) -> List[float]:
    """The cells of ``table`` over ``scope`` along ``q``, every other
    phase of ``scope`` at its position in ``local``."""
    base, stride = 0, 1
    for p in reversed(scope):
        if p == q:
            step = stride
        else:
            base += stride * local[p]
        stride *= sizes[p]
    return table[base:base + step * sizes[q]:step]


def _eliminate(
    pre: SelectionPresolve,
    factors: Factors,
    sizes: Dict[int, int],
    order: List[int],
) -> Tuple[Dict[int, int], Set[int]]:
    """Min-sum eliminate ``order``, then backtrack in reverse taking the
    first argmin at every step: the position chosen per phase, and the
    phases whose argmin was tied.

    Each cell is ``f1 + f2 ...`` over the bucket's factors in ascending
    scope order, as the numpy kernel adds them onto its zeros (``0 +
    f1`` is ``f1`` up to the sign of a zero, which no comparison sees);
    the backtrack re-sums the one row it needs the same way."""
    deadline = current_deadline()
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
        combined: List[float] = []
        for scope, table in bucket:
            cells = _broadcast(table, scope, target, sizes)
            combined = (
                [a + b for a, b in zip(combined, cells)] if combined
                else cells
            )
        pre.cells += len(combined)
        record.append((q, bucket))
        if len(target) > 1:
            step = math.prod(sizes[p] for p in target[target.index(q) + 1:])
            span = step * sizes[q]
            factors.append((
                tuple(p for p in target if p != q),
                [min(combined[base:base + span:step])
                 for outer in range(0, len(combined), span)
                 for base in range(outer, outer + step)],
            ))

    local: Dict[int, int] = {}
    tied: Set[int] = set()
    for q, bucket in reversed(record):
        vector: List[float] = []
        for scope, table in bucket:
            row = _row(table, scope, sizes, q, local)
            vector = [a + b for a, b in zip(vector, row)] if vector else row
        best = min(vector)
        local[q] = vector.index(best)
        if vector.count(best) > 1:
            tied.add(q)
    return local, tied


def _restrict(factors: Factors, sizes: Dict[int, int],
              fix: Dict[int, int]) -> Factors:
    """``factors`` with each phase of ``fix`` cut down to its one
    position (a one-candidate axis)."""
    out = []
    for scope, table in factors:
        shape = [sizes[p] for p in scope]
        for axis, p in enumerate(scope):
            if p in fix:
                inner = math.prod(shape[axis + 1:])
                span = inner * shape[axis]
                start = inner * fix[p]
                table = [x for outer in range(0, len(table), span)
                         for x in table[outer + start:outer + start + inner]]
                shape[axis] = 1
        out.append((scope, table))
    return out


def _cost(factors: Factors, sizes: Dict[int, int],
          local: Dict[int, int]) -> float:
    # each factor's cell at ``local``: its row along its first phase
    return sum(
        _row(table, scope, sizes, scope[0], local)[local[scope[0]]]
        for scope, table in factors
    )


#: the list kernel's arithmetic
KERNEL = Kernel(lambda matrix: [x for row in matrix for x in row],
                _eliminate, _restrict, _cost)


def eliminate_component(
    pre: SelectionPresolve,
    comp: List[int],
    table_cap: int = TABLE_CAP,
) -> Dict[int, int]:
    """Exactly solve one residual component of either kernel's presolve
    state by variable elimination, conditioned on a cutset where its
    order does not fit ``table_cap`` (>= 1).

    Returns the optimal candidate position per phase under the canonical
    tie-break.  Between buckets, raises ``DeadlineExceeded`` once the
    request's budget has passed (unless a cutset assignment is solved:
    the best one is returned and ``pre.interrupted`` set) and
    ``RequestTimeout`` once its hard limit has.
    """
    if table_cap < 1:
        raise ValueError(f"table_cap must be at least 1, got {table_cap}")
    factors = [((p,), pre.node[p]) for p in comp]
    factors.extend(
        ((p, q), pre.kernel.table(matrix))
        for p, q, matrix in pre.component_edges(comp)
    )
    local = _lex_min(
        pre, factors, {p: len(pre.active[p]) for p in comp}, table_cap
    )
    return {p: pre.active[p][local[p]] for p in comp}


def _lex_min(pre: SelectionPresolve, factors: List,
             sizes: Dict[int, int], table_cap: int) -> Dict[int, int]:
    """The lexicographically smallest optimum of ``factors``, a position
    per phase of ``sizes``."""
    kernel = pre.kernel
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
        local, tied = kernel.eliminate(pre, factors, sizes, order)
        if tied <= {last}:
            break
        if last is None:
            pre.tied += 1
        else:
            fix[last] = local[last]
            factors = kernel.restrict(factors, sizes, {last: fix[last]})
            sizes[last] = 1
    local.update(fix)
    return local


def _condition(pre: SelectionPresolve, factors: List,
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
    kernel = pre.kernel
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
                pre, kernel.restrict(factors, sizes, fix), reduced, table_cap
            )
        except DeadlineExceeded:
            if not best:
                raise
            pre.interrupted = True
            break
        pre.conditioned += 1
        local.update(fix)
        key = (kernel.cost(factors, sizes, local),
               [local[p] for p in sorted(local)])
        if not best or key < best[0]:
            best = (key, local)
    return best[1]
