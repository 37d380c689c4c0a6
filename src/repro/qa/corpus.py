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
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..resilience.atomic import atomic_write_json, atomic_write_text
from ..tool.assistant import AssistantConfig
from .generator import GeneratorConfig

#: the committed regression corpus, relative to the repo root
DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")


@dataclass
class CorpusCase:
    """One on-disk corpus entry."""

    name: str
    source: str
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return str(self.meta.get("kind", "seed"))

    @property
    def nprocs(self) -> int:
        return int(self.meta.get("nprocs", 4))

    @property
    def config(self) -> AssistantConfig:
        """The pipeline parameters the case replays with."""
        return AssistantConfig.from_dict({
            "nprocs": self.nprocs,
            "distributions": self.meta.get("distributions"),
        })

    @property
    def seed(self) -> Optional[int]:
        seed = self.meta.get("seed")
        return None if seed is None else int(seed)


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


def load_corpus(directory: str = DEFAULT_CORPUS_DIR) -> List[CorpusCase]:
    """Load every case in ``directory``, sorted by name."""
    if not os.path.isdir(directory):
        return []
    cases: List[CorpusCase] = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".f"):
            continue
        name = entry[:-2]
        with open(os.path.join(directory, entry), encoding="utf-8") as fh:
            source = fh.read()
        meta: Dict[str, Any] = {}
        meta_path = os.path.join(directory, f"{name}.json")
        if os.path.exists(meta_path):
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        cases.append(CorpusCase(name=name, source=source, meta=meta))
    return cases
