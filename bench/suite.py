"""Entry points over whole result sets: ``--all``, ``--compare``,
``--check`` and ``--smoke``.  Every workload runs in a fresh
interpreter, so set-up time and peak memory never leak from one
workload into the next."""

from __future__ import annotations

import fnmatch
import json
import os
import re
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Tuple

from common import BENCH_DIR, benchmark_spec

RUN_PY = os.path.join(BENCH_DIR, "run.py")
MOVES_JSON = os.path.join(BENCH_DIR, "moves.json")

#: per-layer metrics that count work and so must repeat exactly from
#: one run of a commit to the next
COUNT_METRICS = (
    "frontend.source_bytes", "analysis.phases", "analysis.pcfg_edges",
    "alignment.resolutions", "alignment.candidates",
    "distribution.candidates", "perf.estimation.candidates_priced",
    "selection.graph.edges", "selection.ilp.variables",
    "selection.ilp.constraints", "tool.op_limit_hits",
    "cache.hit_share", "admission.shed", "server.timeouts",
    "server.zombies", "server.degraded", "pool.degradations",
    "verify.wrong_ops",
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload: str, seed: int, seconds: float, trace: int,
         *extra: str) -> Tuple[int, Dict[str, Any], str]:
    """One run in a fresh interpreter: (exit code, result line, text)."""
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return done.returncode, result, done.stdout


def _workloads() -> List[str]:
    return [w["name"] for w in benchmark_spec()["workloads"]]


def _digest(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("inputs sha256 "):
            return line.split()[-1]
    return ""


# -- --all -----------------------------------------------------------------


def run_all(seed: int, seconds: float, out_dir: str) -> int:
    """Every workload, untraced then traced; one result file each."""
    if not out_dir:
        print("--all needs --out DIR")
        return 2
    os.makedirs(out_dir, exist_ok=True)
    worst = 0
    for workload in _workloads():
        for trace, suffix in ((0, ""), (1, ".traced")):
            path = os.path.join(out_dir, f"{workload}{suffix}.json")
            begin = perf_counter()
            code, result, text = _run(
                workload, seed, seconds, trace, "--out", path
            )
            print(f"== {workload} trace={trace}: exit {code}, "
                  f"{result.get('attempted')} ops, "
                  f"{result.get('failed')} failed, "
                  f"{perf_counter() - begin:.1f} s")
            print(text.rsplit("\n", 2)[0])
            worst = max(worst, code)
    return worst


# -- --compare -------------------------------------------------------------


def _load_set(directory: str) -> Dict[str, Dict[str, Any]]:
    results = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as handle:
                results[name[:-len(".json")]] = json.load(handle)
    return results


def compare(dir_a: str, dir_b: str) -> int:
    """Two result sets of one commit: every end-to-end metric within
    its bound, every count metric exactly equal, inputs identical."""
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    set_a, set_b = _load_set(dir_a), _load_set(dir_b)
    bad = 0
    print(f"{'run':24s} {'metric':36s} {'a':>12s} {'b':>12s} "
          f"{'spread':>8s} {'bound':>7s}")
    for run in sorted(set_a):
        if run not in set_b:
            print(f"{run}: missing from {dir_b}")
            bad += 1
            continue
        a, b = set_a[run], set_b[run]
        if a["digest"] != b["digest"]:
            print(f"{run}: input digests differ")
            bad += 1
        if a["failed"] != b["failed"]:
            print(f"{run}: failed ops differ: {a['failed']} {b['failed']}")
            bad += 1
        for name in sorted(a["metrics"]):
            va, vb = a["metrics"][name], b["metrics"].get(name)
            if vb is None:
                continue
            exact = run.endswith(".traced") and name in COUNT_METRICS
            if name not in bounds and not exact:
                continue
            middle = (abs(va) + abs(vb)) / 2
            spread = abs(va - vb) / middle if middle else 0.0
            limit = 0.0 if exact else bounds[name]
            verdict = "" if spread <= limit else "  OUTSIDE"
            bad += bool(verdict)
            print(f"{run:24s} {name:36s} {va:12.6g} {vb:12.6g} "
                  f"{spread:8.2%} {'exact' if exact else f'{limit:.0%}':>7s}"
                  f"{verdict}")
    print("agree" if not bad else f"{bad} disagreement(s)")
    return 1 if bad else 0


# -- --check ---------------------------------------------------------------


def check(seed: int) -> int:
    """Determinism: the same seed gives the same inputs and the same
    counts in two separate processes; another seed, other inputs."""
    bad = 0
    for workload in _workloads():
        runs = [_run(workload, seed, 1.0, 1) for _ in range(2)]
        other = _run(workload, seed + 1, 1.0, 1)
        digests = [_digest(text) for _, _, text in runs]
        if any(code for code, _, _ in runs + [other]):
            print(f"{workload}: a run failed")
            bad += 1
            continue
        same = digests[0] == digests[1] and digests[0] != ""
        differs = _digest(other[2]) != digests[0]
        print(f"{workload}: inputs sha256 {digests[0][:16]} twice: "
              f"{'same' if same else 'DIFFERENT'}; seed {seed + 1}: "
              f"{'differs' if differs else 'THE SAME'}")
        bad += (not same) + (not differs)
        first, second = (r[1]["metrics"] for r in runs)
        for name in COUNT_METRICS:
            va, vb = first[name]["value"], second[name]["value"]
            if va != vb:
                print(f"  {name}: {va!r} != {vb!r}")
                bad += 1
    print("deterministic" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


# -- --smoke ---------------------------------------------------------------


def schema_problems() -> List[str]:
    """BENCHMARK.json against the contract's limits and moves.json."""
    spec = benchmark_spec()
    problems = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("end_to_end: need 1..16 metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("per_layer: need 1..128 metrics")
    if "setup_s" not in [m["name"] for m in spec["end_to_end"]]:
        problems.append("end_to_end lacks setup_s")
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: bound out of range")
    for workload in spec["workloads"]:
        if not workload.get("why") or len(workload["why"]) > 200:
            problems.append(f"{workload['name']}: why missing or too long")
    with open(MOVES_JSON, encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    patterns = [p for row in rows for p in row["layers"]]
    for metric in spec["per_layer"]:
        if not any(fnmatch.fnmatch(metric["name"], p) for p in patterns):
            problems.append(f"{metric['name']}: no row in moves.json")
    return problems


def smoke(seed: int) -> int:
    """Every workload for a fraction of the time, both modes, and a
    check that the names printed are the names BENCHMARK.json lists."""
    spec = benchmark_spec()
    problems = schema_problems()
    begin = perf_counter()
    for workload in _workloads():
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            if trace and workload not in ("tool-paper", "service-warm"):
                continue  # one traced run per kind keeps this short
            code, result, text = _run(
                workload, seed, 0.5, trace, "--setup-probes", "0"
            )
            want = [m["name"] for m in spec[listed]]
            got = list(result.get("metrics", {}))
            if code:
                problems.append(f"{workload} trace={trace}: exit {code}")
            elif got != want:
                problems.append(
                    f"{workload} trace={trace}: printed names differ "
                    f"from BENCHMARK.json {listed}"
                )
            elif result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={trace}: failed ops")
            print(f"{workload} trace={trace}: exit {code}, "
                  f"{result.get('attempted')} ops")
    for line in problems:
        print("PROBLEM " + line)
    print(f"smoke: {'ok' if not problems else 'FAILED'} "
          f"in {perf_counter() - begin:.1f} s")
    return 1 if problems else 0
