"""Event-level communication patterns.

Collective operations are built from point-to-point sends and receives —
as the Fortran D runtime built them — instead of analytic formulas.  Both
the SPMD code generator (collectives *in context*, where entry skew and
serialization against neighbouring phases are emergent) and the
training-set generator (collectives *in isolation*, balanced entry) emit
the same structures, so the estimator's trained costs genuinely are
microbenchmark measurements of the machine, and in-context behaviour may
deviate — the same relationship the paper's tool has to its machine.

All helpers append ops to per-processor op lists (see
:mod:`repro.machine.simulator` for the op forms).

Algorithms:

* **broadcast** — binomial tree rooted at 0: round ``r`` has processors
  ``< 2^r`` send to partner ``+ 2^r``;
* **reduction** — mirrored binomial tree toward 0, with a combine-cost
  compute op per received message;
* **all-to-all / transpose / redistribution** — direct pairwise exchange:
  each processor sends ``P - 1`` chunks of ``local/P`` bytes round-robin
  (rank-ordered to avoid hot spots), then drains its receives.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def _resolve(ranks: Optional[Sequence[int]], nprocs_all: int):
    """Participant ranks of a collective: the whole machine, or the
    subgroup ``ranks`` (e.g. one axis of a processor grid)."""
    if ranks is None:
        return list(range(nprocs_all))
    return list(ranks)


def append_broadcast(
    programs: Sequence[List[tuple]],
    nbytes: int,
    buffered: bool = False,
    root: int = 0,
    ranks: Optional[Sequence[int]] = None,
) -> None:
    """Binomial-tree broadcast of ``nbytes`` from participant ``root``
    (an index into ``ranks``) to every participant.

    ``ranks`` restricts the collective to a processor subgroup (e.g. one
    axis of a multi-dimensional grid); positions are relative to the
    root (rotation keeps the tree shape)."""
    group = _resolve(ranks, len(programs))
    nprocs = len(group)
    if nprocs <= 1:
        return
    span = 1
    while span < nprocs:
        for rel in range(span):
            partner = rel + span
            if partner >= nprocs:
                continue
            src = group[(root + rel) % nprocs]
            dst = group[(root + partner) % nprocs]
            programs[src].append(("send", dst, nbytes, buffered))
            programs[dst].append(("recv", src))
        span *= 2


def append_reduction(
    programs: Sequence[List[tuple]],
    nbytes: int,
    combine_cost: float = 0.0,
    root: int = 0,
) -> None:
    """Binomial-tree reduction of ``nbytes`` onto processor ``root``."""
    nprocs = len(programs)
    if nprocs <= 1:
        return
    span = 1
    while span < nprocs:
        span *= 2
    span //= 2
    while span >= 1:
        for rel in range(span):
            partner = rel + span
            if partner >= nprocs:
                continue
            src = (root + partner) % nprocs
            dst = (root + rel) % nprocs
            programs[src].append(("send", dst, nbytes, False))
            programs[dst].append(("recv", src))
            if combine_cost > 0.0:
                programs[dst].append(("compute", combine_cost))
        span //= 2


def append_alltoall(
    programs: Sequence[List[tuple]],
    local_bytes: int,
    buffered: bool = True,
    ranks: Optional[Sequence[int]] = None,
) -> None:
    """Direct pairwise exchange of each participant's ``local_bytes``
    (chunk ``local/P`` per partner).  This is the runtime's transpose /
    redistribution primitive."""
    group = _resolve(ranks, len(programs))
    nprocs = len(group)
    if nprocs <= 1:
        return
    chunk = max(local_bytes // nprocs, 1)
    for step in range(1, nprocs):
        for pos, proc in enumerate(group):
            programs[proc].append(
                ("send", group[(pos + step) % nprocs], chunk, buffered)
            )
    for step in range(1, nprocs):
        for pos, proc in enumerate(group):
            programs[proc].append(("recv", group[(pos - step) % nprocs]))


def append_reduce_broadcast(
    programs: Sequence[List[tuple]],
    nbytes: int,
    combine_cost: float = 0.0,
) -> None:
    """Global reduction whose result every participant needs (the
    Fortran D scheme for scalar reductions): reduce to 0, broadcast
    back."""
    append_reduction(programs, nbytes, combine_cost=combine_cost, root=0)
    append_broadcast(programs, nbytes, buffered=False, root=0)
