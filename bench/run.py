#!/usr/bin/env python3
"""The repo benchmark: five workloads over the tool and the service.

    python3 bench/run.py --workload tool-paper --seed 1995 --seconds 12 --trace 0

runs one workload in this interpreter, verifies every answer against
``bench/expected.json`` and prints every metric by name with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a traced run of the same workload and seed.  See ``bench/README.md``.

Other entry points: ``--all`` (every workload, each in a fresh
interpreter, results into ``--out DIR``), ``--compare A B``,
``--check`` (determinism), ``--smoke``, ``--regen-expected``.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from calibration import Timeline, kernel  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    SetupClock,
    benchmark_spec,
)

DEFAULT_SEED = 1995


def _bootstrap() -> None:
    """Make the checkout's own ``repro`` importable, and refuse to run
    against anything else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(
            f"bench: no program to measure: {src}/repro is missing\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, src)


def _workload_names() -> list:
    return [w["name"] for w in benchmark_spec()["workloads"]]


def _self_command(*args: str) -> list:
    return [sys.executable, os.path.abspath(__file__), *args]


def _setup_probes(workload: str, seed: int, count: int) -> list:
    """Set-up is paid once per process, so one run has one sample of
    it; fresh interpreters that only set up (and tear down) give the
    others, and the run reports the median.  They run before this
    run's own set-up, so that two servers never share the machine."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            _self_command("--setup-probe", "--workload", workload,
                          "--seed", str(seed)),
            stdout=subprocess.PIPE, check=True, timeout=120,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _emit(result: dict, names: list, units: dict) -> int:
    """Print every metric by name with its unit, then the result line."""
    print(f"inputs sha256 {result['digest']}")
    for note, value in result["notes"].items():
        print(f"note {note} {value}")
    for reason in result["reasons"]:
        print(f"FAILED {reason}")
    metrics = {}
    for name in names:
        value = float(result["metrics"].get(name, 0.0))
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name} {value:.6g} {units[name]}")
    correct = result["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_workload(args: argparse.Namespace) -> int:
    clock = SetupClock()
    timeline = Timeline()
    started = perf_counter()
    kernel()  # its own first call is slower than the rest
    for _ in range(3):
        timeline.sample()
    calibrating_s = perf_counter() - started
    _bootstrap()
    if args.workload.startswith("tool-"):
        import toolrun as runner
    else:
        import servicerun as runner
    clock.add("import", perf_counter() - _T0 - calibrating_s)

    if args.setup_probe:
        scale = runner.set_up_only(args.workload, args.seed, clock,
                                   timeline)
        print(json.dumps({"setup_s": clock.total_s * scale,
                          "raw_setup_s": clock.total_s,
                          "segments": clock.segments}))
        return 0

    spec = benchmark_spec()
    if args.trace:
        result = runner.run_traced(
            args.workload, args.seed, args.seconds, clock, timeline,
            args.spans,
        )
        listed = spec["per_layer"]
    else:
        result = runner.run(
            args.workload, args.seed, args.seconds, clock, timeline,
            _setup_probes(args.workload, args.seed, args.setup_probes),
        )
        listed = spec["end_to_end"]
    names = [m["name"] for m in listed]
    unknown = sorted(set(result["metrics"]) - set(names))
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {unknown}")
    code = _emit(result, names, {m["name"]: m["unit"] for m in listed})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "digest": result["digest"],
                "attempted": result["attempted"],
                "failed": result["failed"], "wrong": result["wrong"],
                "metrics": result["metrics"], "notes": result["notes"],
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result (with "
                        "--all: one file per run into this directory)")
    parser.add_argument("--spans", help="traced run: write the spans here")
    parser.add_argument("--setup-probes", type=int, default=2,
                        help="fresh interpreters that repeat the set-up, "
                        "besides this run's own; setup_s is the median")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args()

    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.workload is not None:
        if args.workload not in _workload_names():
            parser.error(f"unknown workload {args.workload!r}; "
                         f"known: {_workload_names()}")
        return run_workload(args)
    if args.regen_expected:
        _bootstrap()
        import expected
        return expected.regenerate()
    import suite
    if args.compare:
        return suite.compare(*args.compare)
    _bootstrap()
    if args.all:
        return suite.run_all(args.seed, args.seconds, args.out)
    if args.check:
        return suite.check(args.seed)
    if args.smoke:
        return suite.smoke(args.seed)
    parser.error("nothing to do: give --workload, --all, --compare, "
                 "--check, --smoke or --regen-expected")
    return 2


if __name__ == "__main__":
    sys.exit(main())
