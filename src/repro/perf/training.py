"""Machine-level training sets (paper Section 3).

The prototype bases its performance estimates on *over 100 training sets*
measured on the target machine: basic computations and communication
patterns (nearest-neighbour, send/receive, broadcast, reduction,
transpose), per processor count, memory access pattern (unit / non-unit
stride — non-unit requires message buffering) and observable message
latency (low latency for pipelined phases that overlap computation and
communication; high latency for loosely synchronous phases).

We reproduce the methodology: every training set is **generated by running
a microbenchmark on the simulated machine** and fitting a linear model
``alpha + beta * bytes`` by least squares over a size sweep.  The
estimator consults only the fitted training data — never the raw machine
parameters — so the estimator-vs-measured comparison is between a trained
model and the (more detailed) simulation, exactly as in the paper.

The paper measured its training sets once per target machine and then
only read them.  So do the shipped machines
(``repro.machine.params.MACHINES``) at the default processor counts:
their databases are the committed
``training_table.json`` beside this module, written by
``python -m repro.perf.training`` and held bit for bit to the simulation
by ``tests/test_training_pinned.py``.  Any other machine or processor
counts are simulated on first use.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..machine.params import MachineParams
from ..machine.patterns import (
    append_alltoall,
    append_broadcast,
    append_reduction,
)
from ..machine.simulator import simulate

PATTERNS = ("shift", "sendrecv", "broadcast", "reduction", "transpose")
LATENCIES = ("high", "low")
STRIDES = ("unit", "nonunit")

#: message sizes (bytes) swept when fitting each training set
_SIZES = (8, 64, 512, 4096, 32768, 262144)

#: processor counts a database is measured at unless told otherwise
PROC_COUNTS = (2, 4, 8, 16, 32, 64)

#: the shipped machines' databases at ``PROC_COUNTS``, as simulated
TABLE = Path(__file__).with_name("training_table.json")


@dataclass(frozen=True)
class TrainingKey:
    pattern: str
    procs: int
    stride: str  # "unit" | "nonunit"
    latency: str  # "high" | "low"


@dataclass
class TrainingSet:
    """One training set: measured (bytes, time) samples plus a fitted
    linear summary.

    Prediction interpolates piecewise-linearly between the measured
    samples (how the original tool consulted its training sets) and
    extrapolates beyond the largest sample with the fitted slope; the
    global ``alpha + beta * bytes`` fit is kept for reporting.
    """

    key: TrainingKey
    alpha: float
    beta: float
    samples: Tuple[Tuple[int, float], ...]

    def predict(self, nbytes: int) -> float:
        nbytes = max(nbytes, 0)
        samples = self.samples
        if not samples:
            return max(self.alpha + self.beta * nbytes, 0.0)
        x_last, y_last = samples[-1]
        if nbytes >= x_last:
            return max(y_last + self.beta * (nbytes - x_last), 0.0)
        if nbytes <= samples[0][0]:
            return max(samples[0][1], 0.0)
        # Two-point interpolation inside the bracketing pair of samples;
        # the same operations in the same order as ``np.interp``, which
        # tests/test_training.py holds it equal to bit for bit.
        i = 1
        while nbytes >= samples[i][0]:
            i += 1
        (x0, y0), (x1, y1) = samples[i - 1], samples[i]
        return (y1 - y0) / (x1 - x0) * (nbytes - x0) + y0


def _microbenchmark(
    params: MachineParams,
    pattern: str,
    procs: int,
    nbytes: int,
    buffered: bool,
) -> float:
    """Run one microbenchmark on the simulated machine: its makespan."""
    programs: List[List[tuple]] = [[] for _ in range(procs)]
    if pattern == "shift":
        for p in range(procs):
            if p + 1 < procs:
                programs[p].append(("send", p + 1, nbytes, buffered))
            if p - 1 >= 0:
                programs[p].append(("recv", p - 1))
    elif pattern == "sendrecv":
        programs[0].append(("send", 1, nbytes, buffered))
        programs[1].append(("recv", 0))
    # Event-level isolated collectives: all processors enter at once
    # (balanced entry).  In-context runs can deviate (entry skew,
    # interaction with neighbouring phases) — the honest gap between
    # trained model and measured execution.
    elif pattern == "broadcast":
        append_broadcast(programs, nbytes, buffered=buffered)
    elif pattern == "reduction":
        append_reduction(programs, nbytes, combine_cost=nbytes * 0.02)
    elif pattern == "transpose":
        append_alltoall(programs, nbytes, buffered=buffered)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return simulate(programs, params).makespan


def _measure_pattern(
    params: MachineParams,
    pattern: str,
    procs: int,
    nbytes: int,
    buffered: bool,
    latency: str,
    makespans: Dict[tuple, float],
) -> float:
    """One training sample.  A point-to-point set below two processors
    is free, and a low-latency one is a formula; anything else is
    simulated once per distinct microbenchmark, kept in ``makespans``:
    a collective's time does not depend on the latency class, nor a
    reduction's on buffering."""
    if pattern in ("shift", "sendrecv"):
        if procs < 2:
            return 0.0
        if latency == "low":
            # Overlapped send: the cost observed by a pipelined computation
            # is the sender-side occupancy plus receive handling.
            return params.send_overhead(nbytes, buffered) + \
                params.recv_overhead
    key = (pattern, procs, nbytes, buffered and pattern != "reduction")
    if key not in makespans:
        makespans[key] = _microbenchmark(params, *key)
    return makespans[key]


@dataclass
class TrainingDatabase:
    """All training sets for one machine + processor-count range."""

    machine: str
    sets: Dict[TrainingKey, TrainingSet] = field(default_factory=dict)
    op_costs: Dict[Tuple[str, str], float] = field(default_factory=dict)

    # -- queries ---------------------------------------------------------

    def lookup(self, pattern: str, procs: int, stride: str = "unit",
               latency: str = "high") -> TrainingSet:
        """Find the training set, falling back to the nearest measured
        processor count (the tool is used for arbitrary P)."""
        key = TrainingKey(pattern, procs, stride, latency)
        if key in self.sets:
            return self.sets[key]
        candidates = [
            k for k in self.sets
            if k.pattern == pattern and k.stride == stride
            and k.latency == latency
        ]
        if not candidates:
            raise KeyError(f"no training sets for pattern {pattern!r}")
        nearest = min(candidates, key=lambda k: abs(k.procs - procs))
        return self.sets[nearest]

    def predict(self, pattern: str, procs: int, nbytes: int,
                stride: str = "unit", latency: str = "high") -> float:
        if procs <= 1:
            return 0.0
        return self.lookup(pattern, procs, stride, latency).predict(nbytes)

    def __len__(self) -> int:
        return len(self.sets) + len(self.op_costs)


def generate_training_database(
    params: MachineParams,
    proc_counts: Tuple[int, ...] = PROC_COUNTS,
) -> TrainingDatabase:
    """Measure every (pattern, procs, stride, latency) microbenchmark on
    the simulated machine and fit the linear training sets.  Only a
    machine with no committed table gets here, so only then is numpy
    imported."""
    import numpy as np

    db = TrainingDatabase(machine=params.name)
    makespans: Dict[tuple, float] = {}
    for pattern in PATTERNS:
        for procs in proc_counts:
            for stride in STRIDES:
                buffered = stride == "nonunit"
                for latency in LATENCIES:
                    samples = []
                    for nbytes in _SIZES:
                        t = _measure_pattern(
                            params, pattern, procs, nbytes, buffered,
                            latency, makespans,
                        )
                        samples.append((nbytes, t))
                    xs = np.array([s[0] for s in samples], dtype=float)
                    ys = np.array([s[1] for s in samples], dtype=float)
                    design = np.vstack([np.ones_like(xs), xs]).T
                    (alpha, beta), *_ = np.linalg.lstsq(
                        design, ys, rcond=None
                    )
                    key = TrainingKey(pattern, procs, stride, latency)
                    db.sets[key] = TrainingSet(
                        key=key,
                        alpha=float(alpha),
                        beta=float(beta),
                        samples=tuple(samples),
                    )
    # Basic-computation training sets: per-operation costs by data type.
    for dtype in ("real", "double"):
        factor = params.dtype_factor(dtype)
        db.op_costs[("add", dtype)] = params.op_add * factor
        db.op_costs[("mul", dtype)] = params.op_mul * factor
        db.op_costs[("div", dtype)] = params.op_div * factor
        db.op_costs[("intrinsic", dtype)] = params.op_intrinsic * factor
        db.op_costs[("load", dtype)] = params.op_load * factor
        db.op_costs[("store", dtype)] = params.op_store * factor
    return db


def machine_cache_key(params: MachineParams) -> str:
    """Stable fingerprint of a machine's *parameters* (not its name).

    Two ``MachineParams`` that share a name but differ in any cost
    constant must not share training data, so the key is derived from
    every dataclass field value.
    """
    parts = ";".join(
        f"{f.name}={getattr(params, f.name)!r}" for f in fields(params)
    )
    return hashlib.sha256(parts.encode("utf-8")).hexdigest()


def _table_key(params: MachineParams, proc_counts: Tuple[int, ...]) -> str:
    return f"{machine_cache_key(params)} {','.join(map(str, proc_counts))}"


def table_database(
    params: MachineParams,
    proc_counts: Tuple[int, ...] = PROC_COUNTS,
) -> Optional[TrainingDatabase]:
    """The committed database of ``params`` at ``proc_counts``, with its
    sets in the order generation inserted them (``lookup``'s nearest-count
    fallback depends on it), or ``None`` when the table holds none."""
    try:
        table = json.loads(TABLE.read_text())
    except FileNotFoundError:
        return None
    entry = table.get(_table_key(params, tuple(proc_counts)))
    if entry is None:
        return None
    db = TrainingDatabase(machine=params.name)
    for pattern, procs, stride, latency, alpha, beta, samples in \
            entry["sets"]:
        key = TrainingKey(pattern, procs, stride, latency)
        db.sets[key] = TrainingSet(key=key, alpha=alpha, beta=beta,
                                   samples=tuple(map(tuple, samples)))
    for op, dtype, cost in entry["op_costs"]:
        db.op_costs[(op, dtype)] = cost
    return db


def write_table() -> int:
    """Simulate every shipped machine at ``PROC_COUNTS`` and write the
    table, one training set a line; returns the number of databases.
    JSON numbers are ``repr`` floats, so every value reads back to the
    bit."""
    from ..machine.params import MACHINES

    entries = []
    for params in MACHINES.values():
        db = generate_training_database(params)
        sets = ",\n".join(
            json.dumps([k.pattern, k.procs, k.stride, k.latency, ts.alpha,
                        ts.beta, [list(s) for s in ts.samples]])
            for k, ts in db.sets.items()
        )
        op_costs = json.dumps(
            [[op, dtype, cost] for (op, dtype), cost in db.op_costs.items()]
        )
        entries.append(
            f"{json.dumps(_table_key(params, PROC_COUNTS))}: {{\n"
            f"\"machine\": {json.dumps(params.name)},\n"
            f"\"op_costs\": {op_costs},\n"
            f"\"sets\": [\n{sets}]}}"
        )
    TABLE.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    return len(entries)


_DB_CACHE: Dict[Tuple[str, Tuple[int, ...]], TrainingDatabase] = {}
_DB_CACHE_LOCK = threading.Lock()


def cached_training_database(params: MachineParams) -> TrainingDatabase:
    """Training databases are deterministic per machine; cache them.

    A shipped machine's database is read from the committed table (a
    millisecond or two); any other is simulated, 324 microbenchmarks at
    the default counts (a few hundred milliseconds).  Safe under concurrent
    access: lookups and inserts are guarded by a lock, and concurrent
    first calls for the same machine converge on a single canonical
    instance (reading or generating runs outside the lock; both are
    pure).
    """
    key = (machine_cache_key(params), PROC_COUNTS)
    with _DB_CACHE_LOCK:
        db = _DB_CACHE.get(key)
    if db is not None:
        return db
    db = table_database(params, PROC_COUNTS)
    if db is None:
        db = generate_training_database(params, PROC_COUNTS)
    with _DB_CACHE_LOCK:
        return _DB_CACHE.setdefault(key, db)


if __name__ == "__main__":  # rewrite the committed table
    print(f"{write_table()} databases -> {TABLE}")
