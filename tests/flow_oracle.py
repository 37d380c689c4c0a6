"""The numpy absorbed-flow solve that ``selection.layout_graph`` used
before its plain-Python one, kept as a test oracle only.

It builds the dense transient-to-transient block ``Q`` and the
transient-to-referencing block ``R``, finds which referencing phases
each transient phase reaches by squaring the 0/1 hop matrix, clears the
rows of ``Q`` that reach none, and hands ``I - Q`` to
``numpy.linalg.solve`` (LAPACK's LU with partial pivoting).
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.pcfg import EXIT


def numpy_absorbed_flow(
    edges: Dict[object, Dict[object, float]], refs: frozenset
) -> List[Tuple[int, int, float]]:
    """``(src, dst, freq)`` absorption frequencies of the chain whose
    absorbing states are ``refs`` and the exit, as
    ``layout_graph._absorbed_flow`` returns them."""
    sources = sorted(src for src in refs if src in edges)
    column = {dst: j for j, dst in enumerate(sources)}
    row: Dict[object, int] = {}
    pending = [v for src in sources for v in edges[src]]
    while pending:
        node = pending.pop()
        if node in refs or node == EXIT or node in row:
            continue
        row[node] = len(row)
        pending.extend(edges[node])

    shares: List[List[float]] = []
    if row:
        q = np.zeros((len(row), len(row)))
        r = np.zeros((len(row), len(sources)))
        for node, i in row.items():
            total = sum(edges[node].values())
            for succ, freq in edges[node].items():
                if succ in row:
                    q[i, row[succ]] = freq / total
                elif succ in column:
                    r[i, column[succ]] = freq / total
        # Which referencing phases each transient phase can reach: k
        # squarings cover paths of 2**k hops (0/1 counts, so a zero is
        # structural, not a cancellation).
        hop = np.eye(len(row)) + (q > 0.0)
        for _ in range(len(row).bit_length()):
            hop = np.minimum(hop @ hop, 1.0)
        reach = hop @ r > 0.0
        q[~reach.any(axis=1)] = 0.0
        x = np.linalg.solve(np.eye(len(row)) - q, r)
        shares = np.where(reach, x, 0.0).tolist()  # plain floats

    transitions: List[Tuple[int, int, float]] = []
    for src in sources:
        absorbed = [0.0] * len(sources)
        for succ, freq in edges[src].items():
            if succ in column:
                absorbed[column[succ]] += freq
            elif succ in row:
                for j, share in enumerate(shares[row[succ]]):
                    absorbed[j] += freq * share
        transitions.extend(
            (src, dst, freq) for dst, freq in zip(sources, absorbed)
            if freq > 0.0
        )
    return transitions
