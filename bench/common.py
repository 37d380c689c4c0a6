"""Shared pieces: metric names, percentiles, the set-up clock, CPU and
memory of a process set read from ``/proc``."""

from __future__ import annotations

import json
import os
import resource
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: scratch space inside the checkout (the benchmark may write nowhere
#: else); every run removes what it created
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def benchmark_spec() -> Dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class SetupClock:
    """Accumulates the segments that make up ``setup_s``.  Segments are
    timed explicitly, so work the harness does for its own purposes
    between them (the extra set-up probes) is not charged to set-up."""

    def __init__(self) -> None:
        self.segments: Dict[str, float] = {}

    @contextmanager
    def segment(self, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.segments[name] = self.segments.get(name, 0.0) + seconds

    @property
    def total_s(self) -> float:
        return sum(self.segments.values())


# -- CPU and memory --------------------------------------------------------


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def group_stats(pgid: int) -> Dict[int, List[bytes]]:
    """``/proc/<pid>/stat`` of every process whose process group is
    ``pgid``: pid -> the fields after ``pid (comm)``, so index 0 is the
    state (field 3 of stat) and index k is field k + 3."""
    stats = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were looking
        if int(fields[2]) == pgid:  # field 5: pgrp
            stats[int(entry)] = fields
    return stats


def group_cpu_s(pgid: int) -> float:
    """User+system CPU of every process in the group, plus what their
    reaped children used (utime, stime, cutime, cstime: fields 14-17)."""
    return sum(
        int(field) for fields in group_stats(pgid).values()
        for field in fields[11:15]
    ) * _TICK_S


def group_peak_rss_mb(pgid: int) -> float:
    """Sum of the peak resident sizes (VmHWM) of the group."""
    total_kb = 0.0
    for pid in group_stats(pgid):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += float(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
