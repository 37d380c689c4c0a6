"""Exact inter-dimensional alignment by bounded enumeration.

The appendix 0-1 program (:mod:`repro.alignment.ilp`) asks for a
``d``-partitioning of a CAG that keeps the most edge weight inside
partitions.  Its feasible set is small and has a direct description:
per array, an injective map of its dimensions into the ``d`` partitions
(type 1 + type 2).  A conflict instance of the paper's programs has a
handful of arrays of rank ``d`` — tomcatv's two import resolutions are
six 2-D arrays, 64 assignments — so walking that set costs less than
starting a solver on it.

:func:`enumerate_optimum` walks it depth first, array by array in
sorted order, and reports the optimum together with a *uniqueness
certificate*: the number of distinct cut-edge sets that reach the
optimal weight.  When that number is one, every exact method must
return the same cut, so the caller may answer without a solver; when
it is larger the choice among the ties is the solver's to make (see
``resolve_conflicts``).

* **Sub-problems.**  Arrays joined by a CAG edge are searched together;
  arrays no edge path connects are independent.  The unit is the
  *array*, never the node: two dimensions of one array that sit in
  different edge-components are still coupled by type 2.
* **Symmetry.**  Relabelling the partitions of a sub-problem changes no
  cut set, so its first array is pinned to the identity map.
* **Bound.**  A branch is dropped only on a *strict* deficit — weight
  satisfied so far plus the weight of every undecided edge below the
  incumbent by more than the tolerance — so every optimum is reached
  and ties are counted, not lost.
* **Canonical optimum.**  Arrays, dimensions and maps are visited in
  ascending order, so the first assignment to reach the optimal weight
  is the lexicographically smallest one — the assignment whose node
  switches ``n:a[i]@k`` are lexicographically greatest, the canonical
  optimum :mod:`repro.ilp.branch_bound` defines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cag import CAG, Node

#: search nodes (partial or complete assignments) one resolution may
#: visit before it is handed to the 0-1 solver instead.  A visit costs
#: 0.5-1 us, so the cap is about one HiGHS start-up (~10 ms); the largest
#: instance of the benchmark populations visits 43.
VISIT_CAP = 2 ** 14

#: two cut weights closer than this, relative to the CAG's total weight,
#: count as tied (the same epsilon ``ilp/branch_bound.py`` prunes with)
_TOL = 1e-9


@dataclass(frozen=True)
class Enumeration:
    """Outcome of one bounded enumeration."""

    #: canonical optimal assignment; ``None`` when the cap was exceeded
    assignment: Optional[Dict[Node, int]]
    #: search nodes visited
    visited: int
    #: distinct cut-edge sets reaching the optimal weight (0 on overflow)
    optima: int


class _Overflow(Exception):
    """The visit budget ran out."""


#: a back edge of array ``i``: (dimension slot in ``i``, earlier array,
#: dimension slot there, weight, bit in the satisfied-edge mask)
_BackEdge = Tuple[int, int, int, float, int]


def _search(
    ranks: List[int],
    back_edges: List[List[_BackEdge]],
    d: int,
    tol: float,
    budget: int,
) -> Tuple[int, int, Tuple[Tuple[int, ...], ...]]:
    """Depth-first search of one sub-problem.

    ``ranks[i]`` is the number of dimensions of the ``i``-th array and
    ``back_edges[i]`` its edges to arrays before it.  Returns (search
    nodes visited, distinct optimal satisfied-edge sets, the first
    optimal choice of maps); raises :class:`_Overflow` past ``budget``.
    """
    n = len(ranks)
    maps = [list(itertools.permutations(range(d), r)) for r in ranks]
    maps[0] = maps[0][:1]  # identity: partition labels are symmetric
    undecided = [0.0] * (n + 1)  # weight of back edges of arrays >= i
    for i in range(n - 1, -1, -1):
        undecided[i] = undecided[i + 1] + sum(
            max(w, 0.0) for _s, _j, _t, w, _b in back_edges[i]
        )

    best = float("-inf")
    #: satisfied-edge mask -> (weight, choice of maps), in visit order
    found: Dict[int, Tuple[float, Tuple[Tuple[int, ...], ...]]] = {}
    chosen: List[Tuple[int, ...]] = [()] * n
    visited = 0

    def place(i: int, value: float, mask: int) -> None:
        nonlocal best, visited
        if i == n:
            if value >= best - tol:
                best = max(best, value)
                found.setdefault(mask, (value, tuple(chosen)))
            return
        back = back_edges[i]
        rest = undecided[i + 1]
        for option in maps[i]:
            visited += 1
            if visited > budget:
                raise _Overflow
            v, m = value, mask
            for slot, j, other_slot, weight, bit in back:
                if option[slot] == chosen[j][other_slot]:
                    v += weight
                    m |= bit
            if v + rest < best - tol:
                continue
            chosen[i] = option
            place(i + 1, v, m)

    place(0, 0.0, 0)
    optimal = [c for v, c in found.values() if v >= best - tol]
    return visited, len(optimal), optimal[0]


def enumerate_optimum(cag: CAG, d: int, cap: int = VISIT_CAP) -> Enumeration:
    """Exact optimum of the alignment problem on ``cag`` by enumeration,
    visiting at most ``cap`` search nodes.

    Every dimension index in ``cag`` must be below ``d`` (the caller
    checks, as ``build_alignment_model`` does).
    """
    dims: Dict[str, List[int]] = {}
    for array, dim in sorted(cag.nodes):
        dims.setdefault(array, []).append(dim)
    edges = sorted(cag.weights.items())

    # Sub-problems: arrays joined by an edge, all dimensions of an
    # array together.
    parent = {array: array for array in dims}

    def find(array: str) -> str:
        while parent[array] != array:
            parent[array] = parent[parent[array]]
            array = parent[array]
        return array

    for (a, b), _w in edges:
        parent[find(a[0])] = find(b[0])
    groups: Dict[str, List[str]] = {}
    for array in dims:  # ascending, so every group is sorted too
        groups.setdefault(find(array), []).append(array)

    tol = _TOL * max(1.0, sum(abs(w) for _e, w in edges))
    assignment: Dict[Node, int] = {}
    visited = 0
    optima = 1
    for arrays in groups.values():
        index = {array: i for i, array in enumerate(arrays)}
        back_edges: List[List[_BackEdge]] = [[] for _ in arrays]
        for bit, ((a, b), weight) in enumerate(edges):
            if a[0] not in index:
                continue
            i, j = index[a[0]], index[b[0]]
            late, early = (a, b) if i > j else (b, a)
            back_edges[max(i, j)].append((
                dims[late[0]].index(late[1]), min(i, j),
                dims[early[0]].index(early[1]), weight, 1 << bit,
            ))
        try:
            seen, count, maps = _search(
                [len(dims[array]) for array in arrays], back_edges, d,
                tol, cap - visited,
            )
        except _Overflow:
            return Enumeration(assignment=None, visited=cap, optima=0)
        visited += seen
        optima *= count
        for array, option in zip(arrays, maps):
            for dim, part in zip(dims[array], option):
                assignment[(array, dim)] = part
    return Enumeration(assignment=assignment, visited=visited, optima=optima)
