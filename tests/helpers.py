"""What only the tests call: building blocks and readers that no code
of the product runs, kept beside the tests that use them.

* :func:`add_edge` builds a CAG edge by edge, accumulating weight on an
  undirected edge (the product adds directed preferences).
* :func:`phase_dependences` lists every uniform loop-carried dependence
  of one phase, pair by pair (the compiler model asks per pair).
* :func:`load_corpus` reads back the committed fuzz corpus that
  ``repro.qa.corpus.write_case`` writes.
* :func:`load_trace` reads back and validates a saved trace.
* :func:`serve_background` serves a ``LayoutServer`` on a daemon thread.
* :func:`counter` reads one service counter from the metrics snapshot.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.alignment.cag import CAG, Node, _key
from repro.analysis.dependence import Dependence, _pair_dependences
from repro.analysis.phases import Phase
from repro.analysis.references import ArrayAccess
from repro.obs.events import validate_trace
from repro.tool.assistant import AssistantConfig


def add_edge(cag: CAG, a: Node, b: Node, weight: float) -> None:
    """Accumulate ``weight`` on the undirected edge ``a``–``b``."""
    if a[0] == b[0]:
        raise ValueError("CAG edges connect distinct arrays")
    cag.nodes.add(a)
    cag.nodes.add(b)
    key = _key(a, b)
    cag.weights[key] = cag.weights.get(key, 0.0) + weight


def phase_dependences(phase: Phase) -> List[Dependence]:
    """All uniform loop-carried dependences inside ``phase``."""
    by_array: Dict[str, List[ArrayAccess]] = {}
    for acc in phase.accesses:
        by_array.setdefault(acc.array, []).append(acc)
    deps: List[Dependence] = []
    for accesses in by_array.values():
        writes = [a for a in accesses if a.is_write]
        for write in writes:
            for other in accesses:
                if other is write:
                    continue
                deps.extend(_pair_dependences(write, other))
    return deps


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


def load_corpus(directory: str) -> List[CorpusCase]:
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


def load_trace(path: str) -> Dict[str, Any]:
    """Read and validate a trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    validate_trace(trace)
    return trace


def serve_background(server) -> threading.Thread:
    """Start serving ``server`` on a daemon thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def counter(metrics, name: str) -> int:
    """The service counter ``name`` of ``metrics`` (0 if never bumped)."""
    return metrics.snapshot()["counters"].get(name, 0)
