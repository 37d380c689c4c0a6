"""The training database, held to the bit, and the work it costs.

Every training set of every machine — its fitted ``alpha`` and ``beta``
and each ``(bytes, time)`` sample, as ``float.hex`` — and every
basic-operation cost is one line of ``tests/golden/training_pinned.txt``,
recorded before generation stopped simulating a microbenchmark once per
(latency, buffering) pair it does not depend on.  A moved set is named.
Re-pin at the parent commit with
``PYTHONPATH=src python -m tests.test_training_pinned``.

The committed table the shipped machines load
(``repro/perf/training_table.json``) is one more input, held to the same
rows: a stale table fails here, and the failure names the command that
rewrites it.

The counting test holds the work: 324 simulations per database (each
distinct microbenchmark once), none for a low-latency ``shift`` or
``sendrecv`` set, whose time is a formula.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import replace

import pytest

import repro.perf.training as training
from repro.machine import IPSC860, MACHINES
from repro.perf.training import generate_training_database, table_database

GOLDEN = pathlib.Path(__file__).parent / "golden" / "training_pinned.txt"

#: (machine, processor counts) per pinned database: each machine at the
#: default counts, and counts below two and odd ones on the iPSC/860
DATABASES = [(name, None) for name in sorted(MACHINES)] + [
    ("ipsc860", (1, 3, 5)),
]

#: each pinned database as simulated, then each machine's as the
#: committed table holds it, under the same rows
SOURCES = [(*d, "simulated") for d in DATABASES] + [
    (name, None, "table") for name in sorted(MACHINES)
]

#: sha256 of the golden file's lines
PINNED = "f3c2fe853b3119d4"

REWRITE = "stale training table; rewrite it with " \
    "`PYTHONPATH=src python -m repro.perf.training`"


def _label(machine, proc_counts):
    if proc_counts is None:
        return machine
    return f"{machine}@{','.join(map(str, proc_counts))}"


def simulated(machine, proc_counts):
    params = MACHINES[machine]
    return (generate_training_database(params) if proc_counts is None
            else generate_training_database(params, proc_counts))


def lines(label, db):
    """One ``label key digest`` row per training set and op cost."""
    rows = []
    for key, ts in db.sets.items():
        text = f"{ts.alpha.hex()} {ts.beta.hex()} " + " ".join(
            f"{x}:{y.hex()}" for x, y in ts.samples
        )
        rows.append(
            f"{label} {key.pattern}/{key.procs}/{key.stride}/{key.latency} "
            f"{hashlib.sha256(text.encode()).hexdigest()[:16]}"
        )
    for (op, dtype), cost in db.op_costs.items():
        rows.append(f"{label} op:{op}/{dtype} {cost.hex()}")
    return rows


def every_line():
    return [row for db in DATABASES
            for row in lines(_label(*db), simulated(*db))]


def digest(rows):
    return hashlib.sha256("".join(f"{r}\n" for r in rows).encode()) \
        .hexdigest()[:16]


class TestPinnedTrainingDatabase:
    @pytest.mark.parametrize("database", SOURCES, ids=[
        _label(m, c) if source == "simulated" else f"{m}-table"
        for m, c, source in SOURCES
    ])
    def test_every_set_is_unchanged(self, database):
        machine, proc_counts, source = database
        label = _label(machine, proc_counts)
        pinned = [r for r in GOLDEN.read_text().splitlines()
                  if r.split(" ", 1)[0] == label]
        if source == "simulated":
            db, hint = simulated(machine, proc_counts), ""
        else:
            db, hint = table_database(MACHINES[machine]), REWRITE
            assert db is not None, hint
        got = lines(label, db)
        moved = sorted(set(pinned) ^ set(got))
        assert not moved, (hint, moved[:10])
        assert got == pinned, hint  # and in the same order

    def test_only_shipped_machines_at_default_counts_are_tabled(self):
        assert table_database(IPSC860, (1, 3, 5)) is None
        assert table_database(replace(IPSC860, op_add=0.2)) is None
        assert table_database(replace(IPSC860, name="custom")) is None

    def test_golden_file_digest(self):
        assert digest(GOLDEN.read_text().splitlines()) == PINNED


class TestSimulatedOnce:
    def test_each_distinct_microbenchmark_is_simulated_once(
        self, monkeypatch
    ):
        simulate, microbenchmark = training.simulate, training._microbenchmark
        runs, benchmarks = [], []

        def counting(programs, params):
            runs.append(programs)
            return simulate(programs, params)

        def recording(params, *key):
            benchmarks.append(key)
            return microbenchmark(params, *key)

        monkeypatch.setattr(training, "simulate", counting)
        monkeypatch.setattr(training, "_microbenchmark", recording)
        generate_training_database(IPSC860)
        assert len(runs) == 324  # 720 when every set simulated alone
        assert len(set(benchmarks)) == len(benchmarks) == 324
        # a reduction is simulated unbuffered only, at either stride
        assert not any(p == "reduction" and b for p, _, _, b in benchmarks)

    @pytest.mark.parametrize("pattern", ["shift", "sendrecv"])
    def test_low_latency_point_to_point_is_a_formula(
        self, monkeypatch, pattern
    ):
        def refuse(programs, params):
            raise AssertionError("a low-latency set ran the simulator")

        monkeypatch.setattr(training, "simulate", refuse)
        for buffered in (False, True):
            t = training._measure_pattern(
                IPSC860, pattern, 8, 4096, buffered, "low", {}
            )
            assert t == IPSC860.send_overhead(4096, buffered) + \
                IPSC860.recv_overhead


if __name__ == "__main__":  # re-pin: rewrite the file, print its digest
    rows = every_line()
    GOLDEN.write_text("".join(f"{r}\n" for r in rows))
    print(f"{len(rows)} rows, digest {digest(rows)}")
