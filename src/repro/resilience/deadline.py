"""Request deadlines: a monotonic time budget carried in a ContextVar.

A :class:`Deadline` is created once per request and installed with
:func:`deadline_scope` on the thread that serves the request.  It
carries two limits on one clock:

- the soft *budget* (the protocol's ``deadline_s``, or a fraction of
  the server's request timeout).  Downstream code never receives it
  explicitly — the ILP entry point reads :func:`remaining_budget` and
  clamps its solver time limit, which is what makes the NP-complete
  alignment and selection solves *anytime*: on expiry they return their
  best incumbent (or a greedy heuristic), labelled degraded;
- the *hard limit* (the server's request timeout).  Past it the request
  is not worth finishing: the next :func:`checkpoint` raises
  :class:`~repro.resilience.errors.RequestTimeout`, which unwinds the
  request's own thread and becomes the typed ``timeout`` reply.

The budget never outlasts the hard limit, so a solver call — the one
stretch with no checkpoint inside — is bounded by it too.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Iterator, Optional

from ..obs import telemetry
from .errors import DeadlineExceeded, RequestTimeout


class Deadline:
    """A soft budget and an optional hard limit, anchored together on
    the monotonic clock."""

    __slots__ = ("budget_s", "hard_s", "_expires_at", "_hard_at",
                 "_reported")

    def __init__(self, budget_s: float, hard_s: Optional[float] = None):
        if budget_s <= 0:
            raise ValueError(f"deadline budget must be > 0, got {budget_s}")
        if hard_s is not None and hard_s <= 0:
            raise ValueError(f"hard limit must be > 0, got {hard_s}")
        self.budget_s = float(budget_s)
        self.hard_s = hard_s
        now = perf_counter()
        self._hard_at = None if hard_s is None else now + hard_s
        self._expires_at = now + (
            self.budget_s if hard_s is None else min(self.budget_s, hard_s)
        )
        self._reported = False

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self._expires_at - perf_counter()

    def expired(self) -> bool:
        if self.remaining() > 0.0:
            return False
        # One telemetry event per deadline, on first observation of
        # expiry (a benign race can at worst duplicate it).
        if not self._reported:
            self._reported = True
            telemetry.emit(
                "deadline.expired",
                budget_s=self.budget_s,
                overrun_s=-self.remaining(),
            )
        return True

    def hard_remaining(self) -> Optional[float]:
        """Seconds until the hard limit (clamped at 0), or ``None``
        when the deadline has none."""
        if self._hard_at is None:
            return None
        return max(self._hard_at - perf_counter(), 0.0)

    def checkpoint(self, label: str) -> None:
        """Cooperative cancellation point: raise
        :class:`RequestTimeout` once the hard limit has passed."""
        if self._hard_at is not None and perf_counter() >= self._hard_at:
            self.expired()  # the budget went first: report it if unseen
            raise RequestTimeout(
                f"request exceeded {self.hard_s:g}s (stopped at {label})",
                stopped_at=label,
            )

    def check(self, label: str = "") -> None:
        """A checkpoint that also raises :class:`DeadlineExceeded` if
        only the soft budget ran out."""
        self.checkpoint(label)
        if self.expired():
            where = f" at {label}" if label else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:g}s exceeded{where}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline(budget_s={self.budget_s:g}, "
                f"remaining={self.remaining():.3f})")


_current: ContextVar[Optional[Deadline]] = ContextVar(
    "repro_deadline", default=None
)


def current_deadline() -> Optional[Deadline]:
    """The deadline governing the current context, if any."""
    return _current.get()


def checkpoint(label: str) -> None:
    """:meth:`Deadline.checkpoint` on the deadline in scope; free when
    there is none."""
    deadline = _current.get()
    if deadline is not None:
        deadline.checkpoint(label)


def remaining_budget() -> Optional[float]:
    """Seconds left on the current deadline (clamped at 0), or ``None``
    when no deadline is in scope."""
    deadline = _current.get()
    if deadline is None:
        return None
    return max(deadline.remaining(), 0.0)


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` for the duration of the block (``None``
    installs nothing, so callers can scope unconditionally)."""
    if deadline is None:
        yield None
        return
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)
