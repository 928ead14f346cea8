"""The :class:`Budget`: wall-clock deadline plus work quotas.

A budget bounds one query's spend along three axes:

- ``deadline_s`` — wall-clock seconds from :meth:`Budget.start`;
- ``max_candidates`` — entries a traversal may consider;
- ``max_escalations`` — precision-ladder escalations (stages beyond the
  first) the certified criterion may attempt.

The query layer charges the budget at its seams
(:meth:`Budget.charge_candidate` per entry considered,
:meth:`Budget.charge_node` per index node visited,
:meth:`Budget.charge_escalation` per ladder escalation) and switches to
its conservative degradation path as soon as any charge reports
exhaustion.  Exhaustion is *sticky*: once a reason is recorded every
later charge reports it immediately without touching the clock.

Clock reads go through the module attribute :data:`_monotonic` so the
fault-injection harness (:mod:`repro.robust.faults`, seam ``"clock"``)
can skew or break them.  A broken clock — a non-finite reading or a
raising call — can never produce a *wrong* answer: the probe collapses
to "exhausted" (reason ``"clock"``), the conservative direction, and is
tallied on the ``resilience.clock_faults`` counter.

Budgets propagate through a :mod:`contextvars` variable, mirroring the
:mod:`repro.obs` registry: :func:`scope` activates a budget for the
current context, :func:`current` reads the active one (``None`` by
default, which is what unbudgeted hot paths check — one contextvar read
per query, nothing per node).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro import obs
from repro.exceptions import ValidationError
from repro.obs import names

__all__ = ["Budget", "current", "scope"]

# Clock indirection: the "clock" fault seam patches this attribute.
_monotonic = time.monotonic

#: How many candidate charges pass between deadline probes.  Probing the
#: clock on every entry would dominate the cheap vectorised scans; every
#: 16th keeps the worst-case overshoot far below any realistic deadline.
_PROBE_STRIDE = 16


class Budget:
    """A per-query execution budget (deadline + work quotas).

    Parameters
    ----------
    deadline_s:
        Wall-clock seconds allowed from :meth:`start` (``None`` — no
        deadline).
    max_candidates:
        Entries a traversal may consider (``None`` — unlimited).
    max_escalations:
        Precision-ladder escalations the certified criterion may spend
        (``None`` — unlimited).

    Examples
    --------
    >>> budget = Budget(max_candidates=2)
    >>> budget.start()
    Budget(max_candidates=2)
    >>> budget.charge_candidate(), budget.charge_candidate()
    (None, None)
    >>> budget.charge_candidate()
    'candidates'
    """

    __slots__ = (
        "deadline_s",
        "max_candidates",
        "max_escalations",
        "_deadline_at",
        "_candidates",
        "_escalations",
        "_since_probe",
        "_exhausted",
    )

    def __init__(
        self,
        deadline_s: "float | None" = None,
        max_candidates: "int | None" = None,
        max_escalations: "int | None" = None,
    ) -> None:
        if deadline_s is not None and not (
            math.isfinite(deadline_s) and deadline_s >= 0.0
        ):
            raise ValidationError(
                f"deadline_s must be a finite non-negative number, got {deadline_s!r}"
            )
        if max_candidates is not None and max_candidates < 0:
            raise ValidationError(
                f"max_candidates must be non-negative, got {max_candidates!r}"
            )
        if max_escalations is not None and max_escalations < 0:
            raise ValidationError(
                f"max_escalations must be non-negative, got {max_escalations!r}"
            )
        self.deadline_s = deadline_s
        self.max_candidates = max_candidates
        self.max_escalations = max_escalations
        self._deadline_at: "float | None" = None
        self._candidates = 0
        self._escalations = 0
        self._since_probe = 0
        self._exhausted: "str | None" = None

    @classmethod
    def from_deadline_ms(cls, deadline_ms: float) -> "Budget":
        """A pure wall-clock budget (the CLI's ``--deadline-ms``)."""
        return cls(deadline_s=deadline_ms / 1000.0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Budget":
        """Anchor the deadline at the current clock reading.

        Idempotent: restarting an already started budget is a no-op, so
        a budget shared by several query calls spans them jointly.
        """
        if self.deadline_s is not None and self._deadline_at is None:
            now = self._read_clock()
            if now is not None:
                self._deadline_at = now + self.deadline_s
        return self

    @property
    def started(self) -> bool:
        """Whether the deadline anchor has been set (or none is needed)."""
        return self.deadline_s is None or self._deadline_at is not None

    @property
    def candidates_charged(self) -> int:
        """Entries charged so far via :meth:`charge_candidate`."""
        return self._candidates

    @property
    def escalations_charged(self) -> int:
        """Ladder escalations charged so far."""
        return self._escalations

    # ------------------------------------------------------------------
    # Charging seams
    # ------------------------------------------------------------------
    def exhausted(self) -> "str | None":
        """The sticky exhaustion reason, without touching the clock."""
        return self._exhausted

    def charge_node(self) -> "str | None":
        """Charge one index-node visit; returns the exhaustion reason.

        Node visits are bounded by the deadline only (quotas meter
        entries and escalations), so this probes the clock directly.
        """
        if self._exhausted is not None:
            return self._exhausted
        return self._probe_deadline()

    def charge_candidate(self, amount: int = 1) -> "str | None":
        """Charge *amount* candidate entries; returns the exhaustion reason."""
        if self._exhausted is not None:
            return self._exhausted
        self._candidates += amount
        if (
            self.max_candidates is not None
            and self._candidates > self.max_candidates
        ):
            return self._exhaust("candidates")
        self._since_probe += amount
        if self._since_probe >= _PROBE_STRIDE:
            self._since_probe = 0
            return self._probe_deadline()
        return None

    def charge_escalation(self) -> "str | None":
        """Charge one ladder escalation; returns the exhaustion reason."""
        if self._exhausted is not None:
            return self._exhausted
        self._escalations += 1
        if (
            self.max_escalations is not None
            and self._escalations > self.max_escalations
        ):
            return self._exhaust("escalations")
        return self._probe_deadline()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _read_clock(self) -> "float | None":
        """One guarded clock read; ``None`` means the clock is broken."""
        try:
            now = float(_monotonic())
        except ArithmeticError:
            self._clock_fault()
            return None
        if not math.isfinite(now):
            # A skewed reading cannot be reasoned about; collapsing to
            # "broken" degrades conservatively instead of silently
            # disarming (nan) or never arming (-inf) the deadline.
            self._clock_fault()
            return None
        return now

    def _clock_fault(self) -> None:
        if obs.ENABLED:
            obs.incr(names.RESILIENCE_CLOCK_FAULTS)
        self._exhaust("clock")

    def _probe_deadline(self) -> "str | None":
        if self.deadline_s is None:
            return None
        if self._deadline_at is None:
            self.start()
            if self._exhausted is not None:  # clock broke during start
                return self._exhausted
            if self._deadline_at is None:  # still unset: clock broken
                return self._exhausted
        now = self._read_clock()
        if now is None:
            return self._exhausted
        if now >= self._deadline_at:
            return self._exhaust("deadline")
        return None

    def _exhaust(self, reason: str) -> str:
        if self._exhausted is None:
            self._exhausted = reason
            if obs.ENABLED:
                if reason == "deadline":
                    obs.incr(names.RESILIENCE_DEADLINE_EXCEEDED)
                elif reason == "candidates":
                    obs.incr(names.RESILIENCE_CANDIDATES_EXHAUSTED)
                elif reason == "escalations":
                    obs.incr(names.RESILIENCE_ESCALATIONS_DENIED)
        return self._exhausted

    def __repr__(self) -> str:
        parts = []
        if self.deadline_s is not None:
            parts.append(f"deadline_s={self.deadline_s:g}")
        if self.max_candidates is not None:
            parts.append(f"max_candidates={self.max_candidates}")
        if self.max_escalations is not None:
            parts.append(f"max_escalations={self.max_escalations}")
        if self._exhausted is not None:
            parts.append(f"exhausted={self._exhausted!r}")
        return f"Budget({', '.join(parts)})"


# The active budget of the current context (thread / asyncio task /
# copied context); None means unbudgeted execution.
_budget_var: "ContextVar[Budget | None]" = ContextVar(
    "repro_resilience_budget", default=None
)


def current() -> "Budget | None":
    """The budget active in the current context (``None`` when none is)."""
    return _budget_var.get()


@contextmanager
def scope(budget: "Budget | None") -> "Iterator[Budget | None]":
    """Activate *budget* for the current context until exit.

    Mirrors :func:`repro.obs.scope`: nested scopes stack, sibling
    contexts keep their own budget.  Passing ``None`` explicitly shields
    the block from any outer budget.  The budget's deadline is anchored
    on entry.
    """
    if budget is not None:
        budget.start()
    token = _budget_var.set(budget)
    try:
        yield budget
    finally:
        _budget_var.reset(token)
