"""Repro-case corpus: serialization of (minimized) generated programs.

Each corpus case is a pair of files in one directory:

* ``<name>.f`` — the Fortran source (parseable by the frontend);
* ``<name>.json`` — metadata: generator seed + config, the check that
  motivated the case ("seed" for curated coverage cases, otherwise the
  failing check's kind), a human-readable detail string, and the pipeline
  parameters it should be replayed with (``nprocs``, and
  ``distributions`` when not the prototype's 1-D BLOCK space).

``tests/corpus/`` is the committed corpus; every divergence the fuzzer
ever finds gets minimized and committed there so it runs as a regression
test forever (see ``tests/test_qa_corpus.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Dict, Optional

from ..resilience.atomic import atomic_write_json, atomic_write_text
from .generator import GeneratorConfig


def case_meta(
    *,
    kind: str,
    seed: Optional[int] = None,
    config: Optional[GeneratorConfig] = None,
    detail: str = "",
    nprocs: int = 4,
    minimized: bool = False,
) -> Dict[str, Any]:
    """Build the canonical metadata dict for a corpus case."""
    meta: Dict[str, Any] = {
        "kind": kind,
        "detail": detail,
        "nprocs": nprocs,
        "minimized": minimized,
    }
    if seed is not None:
        meta["seed"] = seed
    if config is not None:
        meta["generator_config"] = asdict(config)
    return meta


def write_case(
    directory: str, name: str, source: str, meta: Dict[str, Any]
) -> str:
    """Write one case atomically (a crash mid-write must never leave a
    half-formed repro in the committed corpus); returns the source
    path."""
    os.makedirs(directory, exist_ok=True)
    src_path = os.path.join(directory, f"{name}.f")
    atomic_write_text(src_path, source)
    atomic_write_json(os.path.join(directory, f"{name}.json"), meta)
    return src_path
