"""Wall-clock and work budgets for PSD sweeps.

A pathological frequency must not be able to hang an entire sweep: every
engine accepts a :class:`SweepBudget` and checks it between units of
work — before each chunk dispatch for the MFT sweeps, between
frequencies and clock periods for the transient engines. When the budget
runs out the remaining work is recorded as per-frequency failures instead
of looping forever.
"""

from __future__ import annotations

import logging
import time

from ..errors import BudgetExceededError

logger = logging.getLogger(__name__)


class SweepBudget:
    """A shared wall-clock / clock-period budget for one sweep.

    Parameters
    ----------
    wall_clock_seconds:
        Total wall-clock allowance for the sweep; ``None`` = unlimited.
    max_total_periods:
        Total clock periods the transient engines may integrate across
        *all* frequencies; ``None`` = unlimited.

    The budget is lazy: the clock starts on the first :meth:`start` /
    :meth:`exceeded` call, so one budget object can be built ahead of
    time and handed to an engine.
    """

    def __init__(self, wall_clock_seconds=None, max_total_periods=None):
        if wall_clock_seconds is not None and wall_clock_seconds < 0.0:
            raise ValueError(
                f"wall_clock_seconds must be >= 0, got {wall_clock_seconds}")
        if max_total_periods is not None and max_total_periods < 0:
            raise ValueError(
                f"max_total_periods must be >= 0, got {max_total_periods}")
        self.wall_clock_seconds = wall_clock_seconds
        self.max_total_periods = max_total_periods
        self._t_start = None
        self._spent_periods = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Start (or restart-idempotently) the wall clock; returns self."""
        if self._t_start is None:
            self._t_start = time.perf_counter()
        return self

    @property
    def elapsed_seconds(self):
        if self._t_start is None:
            return 0.0
        return time.perf_counter() - self._t_start

    @property
    def spent_periods(self):
        return self._spent_periods

    def charge_periods(self, n):
        """Record ``n`` integrated clock periods against the budget."""
        self._spent_periods += int(n)

    # -- querying -----------------------------------------------------------

    def remaining_seconds(self):
        """Seconds left, ``None`` when unlimited (never negative)."""
        if self.wall_clock_seconds is None:
            return None
        return max(0.0, self.wall_clock_seconds - self.elapsed_seconds)

    def deadline(self):
        """Absolute ``time.perf_counter()`` deadline, or ``None``."""
        if self.wall_clock_seconds is None:
            return None
        self.start()
        return self._t_start + self.wall_clock_seconds

    def exceeded(self):
        """Human-readable reason the budget is spent, or ``None``."""
        self.start()
        if (self.wall_clock_seconds is not None
                and self.elapsed_seconds >= self.wall_clock_seconds):
            return (f"wall-clock budget of {self.wall_clock_seconds:.3g} s "
                    f"spent ({self.elapsed_seconds:.3g} s elapsed)")
        if (self.max_total_periods is not None
                and self._spent_periods >= self.max_total_periods):
            return (f"period budget of {self.max_total_periods} clock "
                    f"periods spent ({self._spent_periods} integrated)")
        return None

    def check(self):
        """Raise :class:`~repro.errors.BudgetExceededError` when spent."""
        reason = self.exceeded()
        if reason is not None:
            logger.warning("sweep budget exceeded: %s", reason)
            raise BudgetExceededError(
                reason, elapsed_seconds=self.elapsed_seconds,
                spent_periods=self._spent_periods)

    def __repr__(self):
        return (f"SweepBudget(wall_clock_seconds="
                f"{self.wall_clock_seconds}, max_total_periods="
                f"{self.max_total_periods}, elapsed="
                f"{self.elapsed_seconds:.3g}s, spent_periods="
                f"{self._spent_periods})")


def as_budget(budget):
    """Normalise ``None`` | seconds | SweepBudget to a SweepBudget.

    A bare number is interpreted as a wall-clock allowance in seconds —
    the common case at the API surface (``psd(freqs, budget=30.0)``).
    """
    if budget is None:
        return SweepBudget()
    if isinstance(budget, SweepBudget):
        return budget
    return SweepBudget(wall_clock_seconds=float(budget))
