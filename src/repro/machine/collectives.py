"""Collective-communication timing models on the hypercube: the two
the compiler model prices a remapping with.

* **transpose / all-to-all** — direct pairwise exchange: each node sends
  ``P - 1`` chunks, so its local data crosses the network once;
* **redistribute** — the general layout-change pattern priced as an
  all-to-all of the array's per-node share.

Each returns the *makespan* of the collective.
"""

from __future__ import annotations

from .params import MachineParams


def transpose_time(params: MachineParams, nprocs: int,
                   local_bytes: int, buffered: bool = True) -> float:
    """All-to-all exchange of a node's ``local_bytes`` of array data.

    Direct pairwise exchange (the Fortran D runtime's transpose): each
    node sends ``P - 1`` chunks of ``local/P`` bytes, so the local data
    crosses the network exactly once; per-chunk software latency is paid
    ``P - 1`` times.  Transposes pack strided slices, so they are buffered
    by default."""
    if nprocs <= 1:
        return 0.0
    chunk = max(local_bytes // nprocs, 1)
    per_partner = params.message_time(chunk, hops=1, buffered=buffered)
    return (nprocs - 1) * per_partner


def redistribute_time(params: MachineParams, nprocs: int,
                      total_bytes: int, buffered: bool = True) -> float:
    """Time to change an array's distribution (e.g. row -> column blocks):
    priced as the hypercube all-to-all over each node's share."""
    if nprocs <= 1:
        return 0.0
    local = max(total_bytes // nprocs, 1)
    return transpose_time(params, nprocs, local, buffered=buffered)
