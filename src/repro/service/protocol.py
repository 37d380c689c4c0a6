"""Request/response schemas of the layout service.

The wire format is JSON, one object per line (newline-delimited JSON
over TCP).  Every request carries an ``op``:

- ``analyze``  — run the framework, return selected layouts (pass
  ``"trace": true`` to also receive the request's span trace).
  ``deadline_s`` is the soft solver budget: past it the answer comes
  back labelled degraded.  Past the server's hard request timeout the
  reply is a typed ``timeout`` error whose text names the checkpoint
  that stopped the request (``stage:estimation``, ``pool.result``, ...);
- ``stats``    — observability snapshot (counters, cache, wall-time
  series, sliding windows, and each component's ``describe()`` block);
- ``metrics``  — the same snapshot as Prometheus text exposition;
- ``slo``      — evaluate SLO objectives against the live sliding
  windows (the server's configured set, or ``"objectives": [...]``
  from the request);
- ``events``   — tail of the structured event log (``limit``,
  optional ``type`` filter);
- ``ping``     — liveness probe;
- ``health``   — liveness plus overload state: admission queue depth,
  adaptive concurrency limit, drain status;
- ``ready``    — readiness probe: ``ready: false`` once the service is
  draining (load balancers stop routing here) or saturated;
- ``shutdown`` — graceful drain, then stop the server (optional
  ``drain_deadline_s`` bounds the drain).

``LayoutRequest.from_dict`` is the single validation choke point: every
field is checked there so the server core only ever sees well-formed
requests, and the CLI client gets the same errors locally.

Client-side overload hygiene lives here too: :class:`RetryBudget`
(a token bucket bounding retry amplification) and :class:`RetryPolicy`
(jittered exponential backoff that honors a server-supplied
``retry_after_s`` and only retries typed ``overloaded`` rejections).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Union

from ..distribution.layouts import DataLayout
from ..ilp import BACKENDS
from ..machine.params import MACHINES
from ..programs.registry import PROGRAMS
from ..resilience.breaker import Backoff
from ..tool.assistant import AssistantConfig, AssistantResult
from .cache import answer_key
from .errors import RequestValidationError

#: ops a server understands
OPS = ("analyze", "stats", "metrics", "slo", "events", "ping",
       "health", "ready", "shutdown")

#: fields accepted in an analyze request
_ANALYZE_FIELDS = {
    "op", "request_id", "program", "source", "size", "dtype", "maxiter",
    "procs", "machine", "backend", "use_cache", "trace", "deadline_s",
}


#: entries in each of the two memos below: a few hundred distinct
#: (program, size) and (procs, machine) pairs cover an exploring client,
#: and a full memo is about a megabyte of source text
_MEMO_ENTRIES = 256


@lru_cache(maxsize=_MEMO_ENTRIES, typed=True)
def _program_source(program: str, n: int, dtype: str,
                    maxiter: Optional[int]) -> str:
    """A registry program's source text (``maxiter`` is ``None`` for a
    program without a time loop, so it cannot split the memo)."""
    return PROGRAMS[program].source(n, dtype, maxiter)


def _config_of(procs: int, machine: Union[str, Mapping[str, Any]],
               backend: str) -> AssistantConfig:
    if isinstance(machine, str):
        machine = MACHINES[machine]
    return AssistantConfig.from_dict({
        "nprocs": procs, "machine": machine, "ilp_backend": backend,
    })


@lru_cache(maxsize=_MEMO_ENTRIES, typed=True)
def _config_key(procs: int, machine: str, backend: str) -> str:
    """``to_key()`` of the config a request resolves to, memoised on the
    request's *values* — ``machine`` is a registry name or the canonical
    JSON of a parameter dict — never on an ``AssistantConfig`` instance,
    which its holder may mutate."""
    return _config_of(
        procs, machine if machine in MACHINES else json.loads(machine),
        backend,
    ).to_key()


@lru_cache(maxsize=_MEMO_ENTRIES, typed=True)
def _program_answer_key(program: str, size: Optional[int],
                        dtype: Optional[str], maxiter: int, procs: int,
                        machine: str, backend: str) -> str:
    """The ``answer`` key of a registry-program request, memoised on the
    request's values (``machine`` as in :func:`_config_key`): a repeated
    request hashes no source text."""
    spec = PROGRAMS[program]
    source = _program_source(
        program, size or spec.default_size, dtype or spec.default_dtype,
        maxiter if spec.has_time_loop else None,
    )
    return answer_key(source, _config_key(procs, machine, backend))


@dataclass
class LayoutRequest:
    """An ``analyze`` request: which program, at what size, for which
    machine/processor count."""

    procs: int
    program: Optional[str] = None
    source: Optional[str] = None
    size: Optional[int] = None
    dtype: Optional[str] = None
    maxiter: int = 3
    machine: Any = "ipsc860"  # registry name or MachineParams dict
    backend: str = "scipy"
    use_cache: bool = True
    trace: bool = False  # return the request's span trace?
    request_id: Optional[str] = None
    #: per-request time budget in seconds; past it the ILPs go anytime
    #: and the response is labeled ``degraded`` instead of blocking
    deadline_s: Optional[float] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LayoutRequest":
        unknown = set(data) - _ANALYZE_FIELDS
        if unknown:
            raise RequestValidationError(
                f"unknown request fields: {sorted(unknown)}"
            )
        program = data.get("program")
        source = data.get("source")
        if bool(program) == bool(source):
            raise RequestValidationError(
                "exactly one of 'program' or 'source' is required"
            )
        if program is not None and program not in PROGRAMS:
            raise RequestValidationError(
                f"unknown program {program!r}; "
                f"known: {sorted(PROGRAMS)}"
            )
        try:
            procs = int(data["procs"])
        except (KeyError, TypeError, ValueError):
            raise RequestValidationError("'procs' (int >= 1) is required")
        if procs < 1:
            raise RequestValidationError(f"procs must be >= 1, got {procs}")
        machine = data.get("machine", "ipsc860")
        if isinstance(machine, str) and machine not in MACHINES:
            raise RequestValidationError(
                f"unknown machine {machine!r}; known: {sorted(MACHINES)}"
            )
        backend = data.get("backend", "scipy")
        if backend not in BACKENDS:
            raise RequestValidationError(
                f"unknown backend {backend!r}"
            )
        dtype = data.get("dtype")
        if dtype is not None and dtype not in ("real", "double"):
            raise RequestValidationError(f"unknown dtype {dtype!r}")
        deadline_s = data.get("deadline_s")
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise RequestValidationError(
                    f"deadline_s must be a number, got {deadline_s!r}"
                )
            if deadline_s <= 0:
                raise RequestValidationError(
                    f"deadline_s must be > 0, got {deadline_s}"
                )
        size = data.get("size")
        return cls(
            procs=procs,
            program=program,
            source=source,
            size=int(size) if size is not None else None,
            dtype=dtype,
            maxiter=int(data.get("maxiter", 3)),
            machine=machine,
            backend=backend,
            use_cache=bool(data.get("use_cache", True)),
            trace=bool(data.get("trace", False)),
            request_id=data.get("request_id"),
            deadline_s=deadline_s,
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": "analyze", "procs": self.procs}
        for name in ("program", "source", "size", "dtype", "request_id",
                     "deadline_s"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out["maxiter"] = self.maxiter
        out["machine"] = self.machine
        out["backend"] = self.backend
        out["use_cache"] = self.use_cache
        out["trace"] = self.trace
        return out

    # -- resolution ------------------------------------------------------

    def resolve_source(self) -> str:
        """The Fortran source text this request is about."""
        if self.source is not None:
            return self.source
        spec = PROGRAMS[self.program]
        return _program_source(
            self.program,
            self.size or spec.default_size,
            self.dtype or spec.default_dtype,
            self.maxiter if spec.has_time_loop else None,
        )

    def resolve_config(self) -> AssistantConfig:
        """A fresh config per call: the caller may mutate it."""
        return _config_of(self.procs, self.machine, self.backend)

    def answer_key(self) -> str:
        """The ``answer`` cache key of this request — the bytes of
        ``StageKeys(resolve_source(), resolve_config()).answer`` —
        from memoised parts: a repeated request regenerates no source
        text and serializes no config, and a repeated program request
        is one memo lookup."""
        machine = self.machine
        if not isinstance(machine, str):
            machine = json.dumps(
                machine, sort_keys=True, separators=(",", ":")
            )
        if self.source is None:
            return _program_answer_key(
                self.program, self.size, self.dtype, self.maxiter,
                self.procs, machine, self.backend,
            )
        return answer_key(
            self.source, _config_key(self.procs, machine, self.backend)
        )


@dataclass
class StageTiming:
    """Wall time + cache outcome of one pipeline stage."""

    stage: str
    seconds: float
    cache_hit: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "cache_hit": self.cache_hit,
        }


def serialize_layout(layout: DataLayout) -> Dict[str, Any]:
    """A JSON-safe rendering of one selected layout."""
    return {
        "distribution": str(layout.distribution),
        "alignments": {name: str(align)
                       for name, align in layout.alignments},
        "hpf": layout.describe(),
    }


def answer_of(result: AssistantResult) -> Dict[str, Any]:
    """What a reply carries of a result, and all the ``answer`` cache
    stage stores: plain JSON-safe values, no analysis objects."""
    return {
        "predicted_total_us": result.predicted_total_us,
        "is_dynamic": result.is_dynamic,
        "layouts": {
            str(idx): serialize_layout(layout)
            for idx, layout in sorted(result.selected_layouts.items())
        },
    }


class Answer(NamedTuple):
    """What the ``answer`` cache entry holds: the values
    :func:`answer_of` returns and their JSON text, encoded once, when
    the answer is computed.  A reply built from it writes ``text`` as
    it is (:meth:`LayoutResponse.encode`), which is right because
    ``answer_of`` orders its keys as ``LayoutResponse.to_dict`` does."""

    value: Dict[str, Any]
    text: str

    @classmethod
    def of(cls, value: Dict[str, Any]) -> "Answer":
        """The one place an answer is encoded."""
        return cls(value, json.dumps(value))


@dataclass
class LayoutResponse:
    """The answer to an ``analyze`` request."""

    ok: bool
    request_id: Optional[str] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    predicted_total_us: Optional[float] = None
    is_dynamic: Optional[bool] = None
    layouts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    stage_timings: List[StageTiming] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: False when any pipeline stage fell back to an unproven incumbent
    #: or heuristic (deadline expiry); the result is still valid, just
    #: not certified optimal
    degraded: bool = False
    #: the fallback decisions behind ``degraded`` (stage/reason dicts)
    degradations: List[Dict[str, Any]] = field(default_factory=list)
    #: the request's serialized span trace, when asked for
    trace: Optional[Dict[str, Any]] = None
    #: on a typed ``overloaded`` rejection: the server's prediction of
    #: when capacity frees up; clients floor their backoff at this
    retry_after_s: Optional[float] = None
    #: the JSON text of the answer fields (``predicted_total_us``,
    #: ``is_dynamic``, ``layouts``) when the reply was built from an
    #: :class:`Answer`; :meth:`encode` writes it instead of encoding
    #: them again
    answer_text: Optional[str] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_result(
        cls,
        result: AssistantResult,
        timings: List[StageTiming],
        request_id: Optional[str] = None,
        degradations: Optional[List[Dict[str, Any]]] = None,
    ) -> "LayoutResponse":
        return cls.from_answer(
            answer_of(result), timings, request_id, degradations
        )

    @classmethod
    def from_answer(
        cls,
        answer: Mapping[str, Any],
        timings: List[StageTiming],
        request_id: Optional[str] = None,
        degradations: Optional[List[Dict[str, Any]]] = None,
        text: Optional[str] = None,
    ) -> "LayoutResponse":
        """The one way a successful reply is built: from the answer
        value, whether it was computed or came out of the cache (whose
        memory tier shares it with later replies: read, never mutate),
        and its JSON ``text`` when there is one (:class:`Answer`)."""
        degradations = degradations or []
        hits = sum(1 for t in timings if t.cache_hit)
        return cls(
            ok=True,
            request_id=request_id,
            stage_timings=timings,
            cache_hits=hits,
            cache_misses=len(timings) - hits,
            degraded=bool(degradations),
            degradations=degradations,
            answer_text=text,
            **answer,
        )

    @classmethod
    def failure(cls, error: Exception,
                request_id: Optional[str] = None) -> "LayoutResponse":
        kind = getattr(error, "kind", "internal")
        return cls(ok=False, request_id=request_id,
                   error=f"{type(error).__name__}: {error}",
                   error_kind=kind,
                   retry_after_s=getattr(error, "retry_after_s", None))

    def _head(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"ok": self.ok}
        if self.request_id is not None:
            out["request_id"] = self.request_id
        return out

    def _tail(self) -> Dict[str, Any]:
        """What a success carries after its answer fields."""
        out: Dict[str, Any] = {
            "stage_timings": [t.to_dict() for t in self.stage_timings],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "degraded": self.degraded,
        }
        if self.degradations:
            out["degradations"] = self.degradations
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    def to_dict(self) -> Dict[str, Any]:
        out = self._head()
        if not self.ok:
            out["error"] = self.error
            out["error_kind"] = self.error_kind
            if self.retry_after_s is not None:
                out["retry_after_s"] = self.retry_after_s
            return out
        out["predicted_total_us"] = self.predicted_total_us
        out["is_dynamic"] = self.is_dynamic
        out["layouts"] = self.layouts
        out.update(self._tail())
        return out

    def encode(self) -> bytes:
        """The reply line: ``json.dumps(to_dict())`` and a newline, byte
        for byte.  A success with ``answer_text`` is that text, without
        its braces, between the head and the tail of ``to_dict()``, so
        its layouts are not encoded again."""
        if not self.ok or self.answer_text is None:
            return json.dumps(self.to_dict()).encode() + b"\n"
        return "".join((
            json.dumps(self._head())[:-1], ", ", self.answer_text[1:-1],
            ", ", json.dumps(self._tail())[1:], "\n",
        )).encode()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LayoutResponse":
        timings = [
            StageTiming(stage=t["stage"], seconds=t["seconds"],
                        cache_hit=t["cache_hit"])
            for t in data.get("stage_timings", [])
        ]
        return cls(
            ok=bool(data.get("ok")),
            request_id=data.get("request_id"),
            error=data.get("error"),
            error_kind=data.get("error_kind"),
            predicted_total_us=data.get("predicted_total_us"),
            is_dynamic=data.get("is_dynamic"),
            layouts=dict(data.get("layouts", {})),
            stage_timings=timings,
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            degraded=bool(data.get("degraded", False)),
            degradations=list(data.get("degradations", [])),
            trace=data.get("trace"),
            retry_after_s=data.get("retry_after_s"),
        )


# -- client-side overload hygiene -----------------------------------------

#: error kinds a client may safely retry: the request never started, so
#: retrying cannot duplicate work or mask a real failure
RETRYABLE_KINDS = frozenset({"overloaded"})


class RetryBudget:
    """Token bucket bounding retry amplification.

    Every first-attempt request deposits ``ratio`` tokens; every retry
    spends one.  Sustained overload therefore sees at most ``ratio``
    retries per request fleet-wide — retries cannot multiply the load
    that caused the shedding (the classic retry-storm failure mode).
    """

    def __init__(self, ratio: float = 0.1, min_tokens: float = 3.0,
                 max_tokens: float = 30.0):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        if min_tokens < 0 or max_tokens < min_tokens:
            raise ValueError(
                "need 0 <= min_tokens <= max_tokens, got "
                f"{min_tokens}/{max_tokens}"
            )
        self.ratio = float(ratio)
        self.max_tokens = float(max_tokens)
        self._lock = threading.Lock()
        self._tokens = float(min_tokens)
        self.spent_total = 0
        self.denied_total = 0

    def note_request(self) -> None:
        """A first attempt went out: deposit its retry allowance."""
        with self._lock:
            self._tokens = min(self._tokens + self.ratio, self.max_tokens)

    def try_spend(self) -> bool:
        """Take one retry token; ``False`` means the budget is spent
        and the caller must surface the error instead of retrying."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent_total += 1
                return True
            self.denied_total += 1
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "tokens": round(self._tokens, 3),
                "ratio": self.ratio,
                "spent_total": self.spent_total,
                "denied_total": self.denied_total,
            }


class RetryPolicy:
    """When and how long to back off before retrying a shed request.

    Delays come from the resilience layer's jittered exponential
    :class:`~repro.resilience.breaker.Backoff`, floored at the server's
    ``retry_after_s`` hint — a polite client never comes back sooner
    than the server predicted capacity."""

    def __init__(
        self,
        max_attempts: int = 3,
        backoff: Optional[Backoff] = None,
        budget: Optional[RetryBudget] = None,
        retryable_kinds: frozenset = RETRYABLE_KINDS,
    ):
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.max_attempts = int(max_attempts)
        self.backoff = backoff or Backoff(
            base_s=0.1, factor=2.0, max_s=5.0, jitter=0.5
        )
        self.budget = budget or RetryBudget()
        self.retryable_kinds = frozenset(retryable_kinds)

    def should_retry(self, attempt: int, error_kind: Optional[str]) -> bool:
        """May attempt ``attempt`` (0-based) be followed by another?
        Checks kind, attempt count, and spends a budget token."""
        if error_kind not in self.retryable_kinds:
            return False
        if attempt + 1 >= self.max_attempts:
            return False
        return self.budget.try_spend()

    def delay_s(self, attempt: int,
                retry_after_s: Optional[float] = None) -> float:
        """Backoff before retry number ``attempt + 1``; the server's
        hint is a hard floor that jitter cannot undercut."""
        delay = self.backoff.delay(attempt)
        if retry_after_s is not None:
            delay = max(delay, float(retry_after_s))
        return delay
