"""The bucket-materialising min-sum elimination that
``selection.presolve._eliminate`` ran before it kept one table alive,
kept as a test oracle only.

Every bucket tensor is summed out of place and recorded whole (the
eliminated phase's axis moved last), so a component holds all of its
buckets until the backtrack reads one row of each.  Same order, same
additions, same first argmin and tie test as the live code: the two
must return equal ``(local, tied)`` on every input.
"""

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.selection.presolve import Factors, _align


def materialising_eliminate(
    factors: Factors,
    sizes: Dict[int, int],
    order: List[int],
) -> Tuple[Dict[int, int], Set[int]]:
    record: List[Tuple[int, Tuple[int, ...], np.ndarray]] = []
    for q in order:
        bucket = [f for f in factors if q in f[0]]
        factors = [f for f in factors if q not in f[0]]
        target: Tuple[int, ...] = tuple(sorted(
            {p for scope, _ in bucket for p in scope}
        ))
        combined = np.zeros(tuple(sizes[p] for p in target))
        for scope, arr in sorted(bucket, key=lambda f: f[0]):
            combined = combined + _align(arr, scope, target)
        axis = target.index(q)
        rest = target[:axis] + target[axis + 1:]
        record.append((q, rest, np.moveaxis(combined, axis, -1)))
        if rest:
            factors.append((rest, combined.min(axis=axis)))

    local: Dict[int, int] = {}
    tied: Set[int] = set()
    for q, rest, tensor in reversed(record):
        vector = tensor[tuple(local[r] for r in rest)]
        local[q] = int(np.argmin(vector))
        if np.count_nonzero(vector == vector[local[q]]) > 1:
            tied.add(q)
    return local, tied
