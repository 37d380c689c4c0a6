"""Deterministic discrete-event simulator of an SPMD message-passing run.

Each processor executes a *node program*: a flat list of operations
produced by the SPMD code generator.  Operation forms (plain tuples, for
speed — node programs can run to hundreds of thousands of ops for
fine-grain pipelines):

``("compute", duration)``
    local computation for ``duration`` microseconds;
``("send", dst, nbytes, buffered)``
    asynchronous send: the sender is occupied for its software overhead
    and the message becomes available to ``dst`` after the full message
    time (pack/transit/unpack);
``("recv", src)``
    blocking receive of the next FIFO message from ``src``;
``("coll", coll_id)``
    a collective operation: all participants block until everyone has
    arrived, then all leave at ``max(entry times) + duration`` (durations
    and participant groups are registered per ``coll_id``).

The simulation is event-ordered with stable FIFO channels and contains no
randomness: identical inputs give identical makespans.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .network import point_to_point_time
from .params import MachineParams


class SimulationError(Exception):
    """Raised on deadlock or malformed node programs."""


@dataclass(frozen=True)
class Collective:
    """A registered collective: which processors take part and how long
    the operation takes once everyone has arrived."""

    participants: Tuple[int, ...]
    duration: float


@dataclass
class SimStats:
    """Aggregate counters of one simulated run."""

    messages: int = 0
    bytes_sent: int = 0
    compute_time: float = 0.0  # summed over processors
    recv_wait_time: float = 0.0
    collective_count: int = 0


@dataclass
class SimResult:
    """Outcome of a simulation."""

    makespan: float
    proc_times: List[float]
    stats: SimStats


def simulate(
    programs: Sequence[Sequence[tuple]],
    params: MachineParams,
    collectives: Optional[Dict[int, Collective]] = None,
) -> SimResult:
    """Run the node programs to completion and return timing results."""
    nprocs = len(programs)
    collectives = collectives or {}
    clocks = [0.0] * nprocs
    pcs = [0] * nprocs
    lengths = [len(p) for p in programs]
    channels: Dict[Tuple[int, int], Deque[float]] = {}
    coll_entries: Dict[int, Dict[int, float]] = {}
    coll_done: Dict[int, float] = {}
    stats = SimStats()

    def runnable(proc: int) -> bool:
        return pcs[proc] < lengths[proc]

    remaining = sum(lengths)
    while remaining > 0:
        progress = False
        for proc in range(nprocs):
            ops = programs[proc]
            while pcs[proc] < lengths[proc]:
                op = ops[pcs[proc]]
                kind = op[0]
                if kind == "compute":
                    clocks[proc] += op[1]
                    stats.compute_time += op[1]
                elif kind == "send":
                    _, dst, nbytes, buffered = op
                    if not 0 <= dst < nprocs:
                        raise SimulationError(
                            f"send to invalid processor {dst}"
                        )
                    start = clocks[proc]
                    clocks[proc] = start + params.send_overhead(
                        nbytes, buffered=buffered
                    )
                    arrival = start + point_to_point_time(
                        params, proc, dst, nbytes, buffered=buffered
                    )
                    channels.setdefault((proc, dst), deque()).append(arrival)
                    stats.messages += 1
                    stats.bytes_sent += nbytes
                elif kind == "recv":
                    src = op[1]
                    queue = channels.get((src, proc))
                    if not queue:
                        break  # blocked: message not sent yet
                    arrival = queue.popleft()
                    wait = max(arrival - clocks[proc], 0.0)
                    stats.recv_wait_time += wait
                    clocks[proc] = (
                        max(clocks[proc], arrival) + params.recv_overhead
                    )
                elif kind == "coll":
                    coll_id = op[1]
                    try:
                        coll = collectives[coll_id]
                    except KeyError:
                        raise SimulationError(
                            f"unregistered collective {coll_id}"
                        ) from None
                    if coll_id in coll_done:
                        clocks[proc] = max(clocks[proc], coll_done[coll_id])
                    else:
                        entries = coll_entries.setdefault(coll_id, {})
                        entries.setdefault(proc, clocks[proc])
                        if len(entries) < len(coll.participants):
                            break  # blocked: waiting for the others
                        completion = max(entries.values()) + coll.duration
                        coll_done[coll_id] = completion
                        clocks[proc] = completion
                        stats.collective_count += 1
                else:
                    raise SimulationError(f"unknown op kind {kind!r}")
                pcs[proc] += 1
                remaining -= 1
                progress = True
        if not progress:
            stuck = [
                (proc, programs[proc][pcs[proc]])
                for proc in range(nprocs)
                if runnable(proc)
            ]
            raise SimulationError(f"deadlock; blocked ops: {stuck[:8]}")

    return SimResult(
        makespan=max(clocks) if clocks else 0.0,
        proc_times=clocks,
        stats=stats,
    )
