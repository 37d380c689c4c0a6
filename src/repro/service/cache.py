"""Content-addressed result cache.

The service keeps one kind of entry, ``answer``: what a reply carries
(predicted time, static-or-dynamic, the serialized layouts) and its
JSON text, a :class:`~repro.service.protocol.Answer`, under
sha256 of the raw source text + the hash of the whole config
(``AssistantConfig.to_key``).  The key is known before any work, so the
service looks it up first; a miss is ``run_assistant`` from the source,
then one store.  Any change to source or config — a whitespace edit
included — is another key.

:class:`StageKeys` also derives six per-stage keys chained from the
normalized program (``bind_program``), and :class:`StageCache` is keyed
``(stage, key)``; the service uses neither for anything but ``answer``.
They stay because ``bench/servicerun.py`` walks them.

Storage is two-level: a small in-memory LRU in front of one pickle file
per entry (``<root>/<stage>/<key>.pkl``).  On-disk entries carry a
checksum footer (:mod:`repro.resilience.atomic`) and are written
atomically; a corrupt or unreadable file is *quarantined* (renamed
aside, never silently deleted) and treated as a miss — a damaged cache
can cost a recompute, never a wrong answer or a crash.  Disk I/O is
guarded by a circuit breaker: a run of consecutive I/O failures drops
the cache to memory-only until the breaker's reset timeout.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from ..frontend.printer import format_program
from ..obs import telemetry
from ..perf.training import machine_cache_key
from ..resilience.atomic import (
    atomic_write_bytes,
    checksum_unwrap,
    checksum_wrap,
    quarantine,
)
from ..resilience.breaker import CircuitBreaker
from ..resilience.errors import CorruptStateError, InjectedFault
from ..resilience.faults import corrupt_point, fault_point
from ..tool.assistant import AssistantConfig

#: bump when a stage's output format changes incompatibly
#: (v2: checksum footers on disk entries; v3: two fields nothing read
#: left the config dict; v4: an answer entry keeps its JSON text)
CACHE_VERSION = "v4"

#: in-memory LRU entries kept in front of the disk store
_MEMORY_ENTRIES = 64


def _sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def answer_key(source: str, config_key: str) -> str:
    """The ``answer`` entry's key: raw source text + the hash of the
    whole config (``AssistantConfig.to_key()``)."""
    return _sha256("answer", CACHE_VERSION, source, config_key)


class StageKeys:
    """The hash chain for one request (source + config)."""

    def __init__(self, source: str, config: AssistantConfig):
        self.config = config
        self._source = source
        # downstream keys need the normalized program; they are derived
        # lazily once the frontend stage has produced it.
        self.program_key: Optional[str] = None

    @cached_property
    def answer(self) -> str:
        """Known before any work: raw source + the whole config."""
        return answer_key(self._source, self.config.to_key())

    @cached_property
    def frontend(self) -> str:
        return _sha256("frontend", CACHE_VERSION, self._source)

    @cached_property
    def _parts(self) -> Dict[str, str]:
        """What each stage key takes from the config; an answer hit
        never gets here."""
        cfg = self.config.to_dict()
        return {
            "branch": _canonical({
                "branch_probability": cfg["branch_probability"],
                "branch_prob_overrides": cfg["branch_prob_overrides"],
            }),
            "backend": cfg["ilp_backend"],
            "dist": _canonical(cfg["distributions"]),
            "compiler": _canonical(cfg["compiler"]),
            "nprocs": str(cfg["nprocs"]),
            "machine": machine_cache_key(self.config.machine),
        }

    def bind_program(self, program) -> None:
        """Derive the normalized-AST key once the frontend stage ran (or
        hit); every downstream key chains from it."""
        self.program_key = _sha256(
            "program", CACHE_VERSION, format_program(program)
        )

    def _require_program(self) -> str:
        if self.program_key is None:
            raise RuntimeError("bind_program() must run before stage keys")
        return self.program_key

    @property
    def partition(self) -> str:
        program = self._require_program()
        return _sha256("partition", program, self._parts["branch"])

    @property
    def alignment(self) -> str:
        return _sha256("alignment", self.partition, self._parts["backend"])

    @property
    def distribution(self) -> str:
        part = self._parts
        return _sha256(
            "distribution", self.alignment, part["nprocs"], part["dist"]
        )

    @property
    def estimation(self) -> str:
        part = self._parts
        return _sha256(
            "estimation", self.distribution, part["machine"],
            part["compiler"],
        )

    @property
    def selection(self) -> str:
        return _sha256("selection", self.estimation, self._parts["backend"])

    def key_for(self, stage: str) -> str:
        return getattr(self, stage)


class StageCache:
    """Two-level (memory LRU + disk) pickle store, keyed per stage.

    ``root=None`` keeps the cache purely in memory — useful for tests
    and for serving without a writable filesystem.
    """

    def __init__(self, root: Optional[str] = None,
                 memory_entries: int = _MEMORY_ENTRIES,
                 breaker: Optional[CircuitBreaker] = None):
        self.root = root
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._memory_entries = memory_entries
        self._lock = threading.Lock()
        self.breaker = breaker or CircuitBreaker(
            name="cache-disk", failure_threshold=5, reset_timeout_s=10.0
        )
        self.quarantined_total = 0
        if root:
            os.makedirs(root, exist_ok=True)

    # -- paths -----------------------------------------------------------

    def _path(self, stage: str, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, stage, f"{key}.pkl")

    def _quarantine(self, path: str) -> None:
        moved = quarantine(path)
        if moved is not None:
            self.quarantined_total += 1
            telemetry.emit(
                "cache.quarantine", path=path, moved_to=moved,
                quarantined_total=self.quarantined_total,
            )

    # -- operations ------------------------------------------------------

    def load(self, stage: str, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; corruption counts as a miss."""
        mem_key = (stage, key)
        with self._lock:
            if mem_key in self._memory:
                self._memory.move_to_end(mem_key)
                return True, self._memory[mem_key]
        if not self.root or not self.breaker.allow():
            return False, None
        path = self._path(stage, key)
        try:
            fault_point("cache.load")
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            self.breaker.record_success()
            return False, None
        except (InjectedFault, OSError):
            # the disk itself misbehaved: count it against the breaker
            self.breaker.record_failure()
            return False, None
        self.breaker.record_success()
        blob = corrupt_point("cache.load", blob)
        try:
            payload = checksum_unwrap(blob, label=path)
            value = pickle.loads(payload)
        except (CorruptStateError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, ValueError):
            # damaged entry: move it aside and recompute (the read
            # succeeded, so this is data rot, not a disk fault)
            self._quarantine(path)
            return False, None
        self._remember(mem_key, value)
        return True, value

    def store(self, stage: str, key: str, value: Any) -> None:
        self._remember((stage, key), value)
        if not self.root or not self.breaker.allow():
            return
        path = self._path(stage, key)
        blob = checksum_wrap(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )
        blob = corrupt_point("cache.store", blob)
        try:
            fault_point("cache.store")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write_bytes(path, blob)
        except (InjectedFault, OSError):
            # a read-only or full disk degrades to memory-only caching
            self.breaker.record_failure()
            return
        self.breaker.record_success()

    def _remember(self, mem_key: Tuple[str, str], value: Any) -> None:
        with self._lock:
            self._memory[mem_key] = value
            self._memory.move_to_end(mem_key)
            while len(self._memory) > self._memory_entries:
                self._memory.popitem(last=False)

    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    def entry_count(self) -> Dict[str, int]:
        """Disk entries per stage (for stats)."""
        counts: Dict[str, int] = {}
        if not self.root or not os.path.isdir(self.root):
            return counts
        for stage in sorted(os.listdir(self.root)):
            stage_dir = os.path.join(self.root, stage)
            if os.path.isdir(stage_dir):
                counts[stage] = len([
                    f for f in os.listdir(stage_dir) if f.endswith(".pkl")
                ])
        return counts

    def describe(self) -> Dict[str, Any]:
        """The cache's block of the ``stats`` tree: what is on disk and
        the resilience state (breaker + quarantine counter)."""
        return {
            "disk_entries": self.entry_count(),
            "dir": self.root,
            "breaker": self.breaker.describe(),
            "quarantined_total": self.quarantined_total,
        }
