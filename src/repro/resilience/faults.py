"""Seeded, deterministic fault injection.

A :class:`FaultPlan` maps *sites* (stable string names of instrumented
code points) to fault specs: raise a typed error, sleep, corrupt a byte
payload, or fail flakily for the first N matches.  Every probabilistic
decision is driven by a :class:`random.Random` seeded from the plan, so
a campaign replays bit-identically from its seed.

Zero overhead when unarmed: every injection point starts with a single
module-global ``None`` check, so production code pays one attribute
load per site when no plan is armed.

The instrumented sites (grep for the literal strings)::

    cache.load       disk read of a stage-cache entry
    cache.store      disk write of a stage-cache entry
    pool.submit      handing a job batch to the executor
    pool.result      collecting one job result from the executor
    service.request  protocol dispatch of one decoded request
    server.reply     writing a response line back to the socket
    ilp.solve        every 0-1 solve (both backends) and every alignment
                     resolution answered by enumeration: once per
                     resolution, whichever path answers it

``cache.load`` and ``cache.store`` are also *corruption* points: a
``corrupt`` spec there mangles the byte payload instead of raising, to
exercise the checksum/quarantine path.
"""

from __future__ import annotations

import fnmatch
import json
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..obs import telemetry
from .errors import InjectedFault

#: every instrumented injection point in the codebase
KNOWN_SITES = (
    "cache.load",
    "cache.store",
    "pool.submit",
    "pool.result",
    "service.request",
    "server.reply",
    "ilp.solve",
)

#: sites whose faults flow through a byte payload (corruption-capable)
CORRUPTIBLE_SITES = ("cache.load", "cache.store")

MODES = ("error", "delay", "corrupt", "flaky")


@dataclass(frozen=True)
class FaultSpec:
    """One site → fault rule.

    ``site`` may be an ``fnmatch`` pattern (``cache.*``).  ``mode``:

    - ``error``  — raise :class:`InjectedFault` (subject to
      ``probability`` and, when set, at most ``times`` firings);
    - ``flaky``  — like ``error`` but *requires* ``times``: the site
      fails its first N matched calls, then behaves normally — the
      canonical transient fault that retries must absorb;
    - ``delay``  — sleep ``delay_s`` before proceeding;
    - ``corrupt``— mangle the byte payload at a corruption point
      (no-op at plain fault points).
    """

    site: str
    mode: str = "error"
    probability: float = 1.0
    times: Optional[int] = None
    delay_s: float = 0.01
    detail: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"fault mode must be one of {MODES}, "
                             f"got {self.mode!r}")
        if self.mode == "flaky" and not self.times:
            raise ValueError("flaky faults require times >= 1")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"site": self.site, "mode": self.mode,
                               "probability": self.probability}
        if self.times is not None:
            out["times"] = self.times
        if self.mode == "delay":
            out["delay_s"] = self.delay_s
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            site=str(data["site"]),
            mode=str(data.get("mode", "error")),
            probability=float(data.get("probability", 1.0)),
            times=(int(data["times"]) if data.get("times") is not None
                   else None),
            delay_s=float(data.get("delay_s", 0.01)),
            detail=str(data.get("detail", "")),
        )


@dataclass
class FaultPlan:
    """A seed plus the fault specs it drives — fully serializable so a
    failing chaos case can be committed and replayed verbatim."""

    seed: int = 0
    specs: List[FaultSpec] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            specs=[FaultSpec.from_dict(s) for s in data.get("specs", [])],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


class FaultInjector:
    """The armed runtime of one plan: per-spec seeded RNGs and firing
    counters behind one lock (the service is threaded)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._rngs = [
            random.Random(f"{plan.seed}:{i}:{spec.site}:{spec.mode}")
            for i, spec in enumerate(plan.specs)
        ]
        self._matched = [0] * len(plan.specs)
        self._fired = [0] * len(plan.specs)
        #: every firing, for campaign reports: (site, mode, detail)
        self.log: List[Tuple[str, str, str]] = []

    def _due(self, index: int, spec: FaultSpec) -> bool:
        """Decide (under the lock) whether spec ``index`` fires now."""
        self._matched[index] += 1
        if spec.times is not None and self._fired[index] >= spec.times:
            return False
        if spec.probability < 1.0 and (
            self._rngs[index].random() >= spec.probability
        ):
            return False
        self._fired[index] += 1
        return True

    def fire(self, site: str) -> None:
        """Apply every matching error/flaky/delay spec; called from
        :func:`fault_point`."""
        delays = 0.0
        raised: Optional[FaultSpec] = None
        fired: List[Tuple[str, str, str]] = []
        with self._lock:
            for i, spec in enumerate(self.plan.specs):
                if spec.mode == "corrupt":
                    continue
                if not fnmatch.fnmatch(site, spec.site):
                    continue
                if not self._due(i, spec):
                    continue
                self.log.append((site, spec.mode, spec.detail))
                fired.append((site, spec.mode, spec.detail))
                if spec.mode == "delay":
                    delays += spec.delay_s
                elif raised is None:
                    raised = spec
        # Telemetry after the lock is released: sinks may take their
        # own locks (event log), and a sink must never deadlock or
        # suppress the injected fault itself.
        for f_site, f_mode, f_detail in fired:
            telemetry.emit(
                "fault.injected",
                site=f_site, mode=f_mode, detail=f_detail,
            )
        if delays > 0.0:
            time.sleep(delays)
        if raised is not None:
            raise InjectedFault(site, raised.detail or raised.mode)

    def transform(self, site: str, data: bytes) -> bytes:
        """Apply matching ``corrupt`` specs to a byte payload; called
        from :func:`corrupt_point`."""
        out = data
        fired: List[Tuple[str, str, str]] = []
        with self._lock:
            for i, spec in enumerate(self.plan.specs):
                if spec.mode != "corrupt":
                    continue
                if not fnmatch.fnmatch(site, spec.site):
                    continue
                if not self._due(i, spec):
                    continue
                self.log.append((site, "corrupt", spec.detail))
                fired.append((site, "corrupt", spec.detail))
                out = _mangle(out, self._rngs[i])
        for f_site, f_mode, f_detail in fired:
            telemetry.emit(
                "fault.injected",
                site=f_site, mode=f_mode, detail=f_detail,
            )
        return out

    def fired_count(self) -> int:
        with self._lock:
            return sum(self._fired)


def _mangle(data: bytes, rng: random.Random) -> bytes:
    """Deterministically damage a payload: truncate, bit-flip, or
    replace — all three are distinguishable failure shapes for the
    checksum/unpickle path."""
    if not data:
        return b"\xff"
    shape = rng.randrange(3)
    if shape == 0:  # truncation (torn write / short read)
        return data[: max(1, len(data) // 2)]
    if shape == 1:  # single bit flip (disk rot)
        index = rng.randrange(len(data))
        flipped = data[index] ^ (1 << rng.randrange(8))
        if flipped == data[index]:  # pragma: no cover - xor is nonzero
            flipped ^= 0x01
        return data[:index] + bytes([flipped]) + data[index + 1:]
    # wholesale garbage (foreign file)
    return bytes(rng.randrange(256) for _ in range(min(len(data), 64)))


# -- the global armed injector ------------------------------------------
#
# A module global (not a ContextVar): faults must reach worker threads
# spawned by the pool, which do not inherit request-local context.  Reads
# are single attribute loads, so unarmed overhead is negligible.

_injector: Optional[FaultInjector] = None


def arm(plan: FaultPlan) -> FaultInjector:
    """Arm a plan process-wide; returns the live injector."""
    global _injector
    _injector = FaultInjector(plan)
    return _injector


def disarm() -> None:
    global _injector
    _injector = None


def active() -> Optional[FaultInjector]:
    return _injector


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Scope an armed plan: ``with faults.armed(plan): ...``"""
    injector = arm(plan)
    try:
        yield injector
    finally:
        disarm()


def fault_point(site: str) -> None:
    """An instrumented code point.  No-op unless a plan is armed."""
    injector = _injector
    if injector is None:
        return
    injector.fire(site)


def corrupt_point(site: str, data: bytes) -> bytes:
    """An instrumented byte-payload point.  Identity unless armed."""
    injector = _injector
    if injector is None:
        return data
    return injector.transform(site, data)
