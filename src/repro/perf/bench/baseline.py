"""The baseline store: versioned ``BENCH_<label>.json`` trajectory files.

One file per label at the repo root; each file is an append-only
*trajectory* — every ``repro bench run`` appends one run record, so the
performance history of a machine/configuration stays in one reviewable
JSON document::

    {
      "schema": "repro.perf/bench/v1",
      "label": "baseline",
      "runs": [
        {"run_id": 1,
         "created": "2026-08-06T12:00:00+00:00",
         "meta": {"python": "3.12.3", "platform": "...",
                  "repeats": 5, "warmup": 1, "programs": [...]},
         "results": {
           "stage:alignment_ilp/adi": {"min_s": ..., "median_s": ...,
             "mad_s": ..., "mean_s": ..., "reps": 5, "warmup": 1,
             "peak_bytes": ..., "times_s": [...]},
           ...}},
        ...
      ]
    }

:func:`validate_bench_file` is the schema gate used by tests and the
CLI (every write re-validates).
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import re
import sys
from typing import Any, Dict, List, Mapping, Optional

from ...resilience.atomic import (
    atomic_write_text,
    quarantine,
    stamp_json_integrity,
    verify_json_integrity,
)
from ...resilience.errors import CorruptStateError
from .timer import Measurement

#: identifies the JSON bench-file format
BENCH_SCHEMA = "repro.perf/bench/v1"

#: filename shape of a baseline file at the repo root
BENCH_PREFIX = "BENCH_"

_LABEL_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_RESULT_NUMERIC = ("min_s", "median_s", "mad_s", "mean_s")


class BenchValidationError(ValueError):
    """A bench file does not conform to the v1 schema."""


class BenchInputError(RuntimeError):
    """A compare/gate input trajectory is unusable.

    Raised by :func:`load_latest_results` instead of the raw
    ``FileNotFoundError`` / ``json.JSONDecodeError`` /
    :class:`BenchValidationError` /
    :class:`~repro.resilience.errors.CorruptStateError` so CLI callers
    can turn any bad ``--baseline`` / ``--current`` into one clean
    diagnostic and a nonzero exit.  ``kind`` names the failure class:
    ``missing``, ``unreadable``, ``invalid-json``, ``schema`` or
    ``corrupt``.
    """

    def __init__(self, path: str, kind: str, detail: str):
        self.path = path
        self.kind = kind
        self.detail = detail
        super().__init__(f"bench file {path!r} ({kind}): {detail}")


def bench_path(label: str, root: str = ".") -> str:
    """The canonical path of one label's trajectory file."""
    if not _LABEL_RE.match(label):
        raise ValueError(
            f"bad bench label {label!r}: use letters, digits, . _ -"
        )
    return os.path.join(root, f"{BENCH_PREFIX}{label}.json")


def discover(root: str = ".") -> Dict[str, str]:
    """All ``BENCH_<label>.json`` files under ``root`` as label → path."""
    out: Dict[str, str] = {}
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return out
    for entry in entries:
        if entry.startswith(BENCH_PREFIX) and entry.endswith(".json"):
            label = entry[len(BENCH_PREFIX):-len(".json")]
            if _LABEL_RE.match(label):
                out[label] = os.path.join(root, entry)
    return out


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchValidationError(message)


def _check_result(bench_id: str, result: Any, where: str) -> None:
    _check(isinstance(result, Mapping), f"{where}: result is not an object")
    for key in _RESULT_NUMERIC:
        value = result.get(key)
        _check(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and value >= 0,
            f"{where}: {key} must be a non-negative number",
        )
    reps = result.get("reps")
    _check(
        isinstance(reps, int) and not isinstance(reps, bool) and reps >= 1,
        f"{where}: reps must be a positive integer",
    )
    times = result.get("times_s", [])
    _check(isinstance(times, list), f"{where}: times_s must be a list")
    _check(
        len(times) == reps,
        f"{where}: times_s has {len(times)} entries, reps says {reps}",
    )
    for t in times:
        _check(
            isinstance(t, (int, float)) and not isinstance(t, bool)
            and t >= 0,
            f"{where}: times_s entries must be non-negative numbers",
        )
    peak = result.get("peak_bytes", 0)
    _check(
        isinstance(peak, int) and not isinstance(peak, bool) and peak >= 0,
        f"{where}: peak_bytes must be a non-negative integer",
    )


def validate_bench_file(data: Mapping[str, Any]) -> None:
    """Raise :class:`BenchValidationError` unless ``data`` is a valid v1
    bench trajectory (schema tag, label, monotonically increasing run
    IDs, well-formed per-benchmark result records)."""
    _check(isinstance(data, Mapping), "bench file is not an object")
    _check(
        data.get("schema") == BENCH_SCHEMA,
        f"schema must be {BENCH_SCHEMA!r}, got {data.get('schema')!r}",
    )
    label = data.get("label")
    _check(
        isinstance(label, str) and bool(_LABEL_RE.match(label)),
        f"label must match {_LABEL_RE.pattern}, got {label!r}",
    )
    runs = data.get("runs")
    _check(isinstance(runs, list) and runs, "runs must be a non-empty list")
    last_id = 0
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        _check(isinstance(run, Mapping), f"{where}: not an object")
        run_id = run.get("run_id")
        _check(
            isinstance(run_id, int) and not isinstance(run_id, bool)
            and run_id > last_id,
            f"{where}: run_id must be an integer > {last_id}",
        )
        last_id = run_id
        _check(
            isinstance(run.get("created"), str) and run["created"],
            f"{where}: created must be a non-empty string",
        )
        meta = run.get("meta", {})
        _check(isinstance(meta, Mapping), f"{where}: meta not an object")
        results = run.get("results")
        _check(
            isinstance(results, Mapping) and results,
            f"{where}: results must be a non-empty object",
        )
        for bench_id, result in results.items():
            _check(
                isinstance(bench_id, str) and bench_id,
                f"{where}: bench ids must be non-empty strings",
            )
            _check_result(
                bench_id, result, f"{where}.results[{bench_id!r}]"
            )


def run_meta(repeats: int, warmup: int,
             programs: Optional[List[str]] = None) -> Dict[str, Any]:
    """The environment stamp attached to every run record."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv": list(sys.argv[1:]),
        "repeats": repeats,
        "warmup": warmup,
        "programs": sorted(programs or []),
    }


def new_run(
    results: Mapping[str, Measurement],
    meta: Optional[Mapping[str, Any]] = None,
    run_id: int = 1,
) -> Dict[str, Any]:
    """Build one run record from a suite's measurements."""
    return {
        "run_id": run_id,
        "created": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "meta": dict(meta or {}),
        "results": {
            bench_id: m.to_dict()
            for bench_id, m in sorted(results.items())
        },
    }


def load_bench_file(path: str) -> Dict[str, Any]:
    """Read and validate one trajectory file (integrity stamp included:
    a present-but-wrong ``integrity`` field raises
    :class:`~repro.resilience.errors.CorruptStateError`; files written
    before stamping existed pass on schema validation alone)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        verify_json_integrity(data, label=path)
    validate_bench_file(data)
    return data


def write_bench_file(data: Mapping[str, Any], path: str) -> None:
    """Validate, stamp with an integrity digest, then write the
    trajectory file atomically (temp file + ``os.replace``) so a crash
    mid-write can never leave a torn baseline behind."""
    validate_bench_file(data)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    stamped = stamp_json_integrity(dict(data))
    atomic_write_text(
        path, json.dumps(stamped, indent=1, sort_keys=True) + "\n"
    )


def append_run(
    results: Mapping[str, Measurement],
    label: str,
    root: str = ".",
    meta: Optional[Mapping[str, Any]] = None,
    max_runs: int = 50,
) -> str:
    """Append one run to ``BENCH_<label>.json`` (creating it if absent);
    returns the file path.  Trajectories are capped at ``max_runs`` runs
    (oldest dropped) so the files stay reviewable.  A corrupt existing
    file is quarantined and the trajectory restarts, so one damaged
    baseline never blocks future runs."""
    path = bench_path(label, root)
    data: Optional[Dict[str, Any]] = None
    if os.path.exists(path):
        try:
            data = load_bench_file(path)
        except (BenchValidationError, CorruptStateError,
                json.JSONDecodeError, OSError):
            quarantine(path)
            data = None
    if data is None:
        data = {"schema": BENCH_SCHEMA, "label": label, "runs": []}
    next_id = (data["runs"][-1]["run_id"] + 1) if data["runs"] else 1
    data["runs"].append(new_run(results, meta=meta, run_id=next_id))
    if max_runs > 0 and len(data["runs"]) > max_runs:
        data["runs"] = data["runs"][-max_runs:]
    write_bench_file(data, path)
    return path


def load_latest_results(path: str, role: str = "baseline") -> Dict[str, Any]:
    """The newest run's results of the trajectory at ``path``, with
    every load failure normalised to :class:`BenchInputError`.

    ``role`` ("baseline" or "current") only flavours the message so the
    CLI diagnostic says which flag pointed at the bad file.
    """
    try:
        data = load_bench_file(path)
        return latest_results(data)
    except FileNotFoundError:
        raise BenchInputError(
            path, "missing",
            f"no such {role} file — run `repro bench run` to record one, "
            "or pass an existing label/path",
        ) from None
    except json.JSONDecodeError as exc:
        raise BenchInputError(
            path, "invalid-json", f"{role} is not valid JSON: {exc}"
        ) from exc
    except CorruptStateError as exc:
        raise BenchInputError(
            path, "corrupt", f"{role} failed its integrity check: {exc}"
        ) from exc
    except BenchValidationError as exc:
        raise BenchInputError(
            path, "schema",
            f"{role} does not match the {BENCH_SCHEMA!r} schema: {exc}",
        ) from exc
    except OSError as exc:
        raise BenchInputError(
            path, "unreadable", f"cannot read {role}: {exc}"
        ) from exc


def latest_results(data: Mapping[str, Any]) -> Dict[str, Any]:
    """The results mapping of the newest run in a trajectory."""
    runs = data.get("runs") or []
    if not runs:
        raise BenchValidationError("bench file has no runs")
    return dict(runs[-1]["results"])


__all__ = [
    "BENCH_PREFIX", "BENCH_SCHEMA", "BenchInputError",
    "BenchValidationError", "append_run", "bench_path", "discover",
    "latest_results", "load_bench_file", "load_latest_results",
    "new_run", "run_meta", "validate_bench_file", "write_bench_file",
]
