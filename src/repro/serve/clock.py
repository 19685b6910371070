"""A simulated wall clock for the serving front-end.

The whole library accounts time in *simulated* seconds (the cost model's
closed forms), so the admission queue does too: request arrivals, queue
waits and ``max_wait`` flush deadlines are all points on one monotone
simulated timeline owned by a :class:`SimClock`. Nothing here reads the
host clock — replaying the same arrival schedule always produces the
same batches, waits and latencies.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def finite_seconds(value, what: str = "time") -> float:
    """``value`` if it is a finite number of seconds.

    Anything else (NaN, an infinity, a string) raises
    :class:`~repro.errors.ConfigurationError`: NaN compares false with
    every deadline and an infinity pins the timeline, so either would
    corrupt the clock silently.
    """
    try:
        finite = math.isfinite(value)
    except TypeError:
        finite = False
    if not finite:
        raise ConfigurationError(
            f"{what} must be a finite number of seconds, got {value!r}"
        )
    return value


class SimClock:
    """A monotone simulated clock (seconds since service start)."""

    __slots__ = ("now",)

    def __init__(self, start_s: float = 0.0):
        self.now = float(start_s)

    def advance(self, dt_s: float) -> float:
        """Move forward by ``dt_s`` seconds; returns the new time."""
        finite_seconds(dt_s, "a clock step")
        if dt_s < 0:
            raise ConfigurationError(f"cannot advance the clock by {dt_s} s")
        self.now += dt_s
        return self.now

    def advance_to(self, t_s: float) -> float:
        """Move forward to the absolute time ``t_s``; returns it.

        Monotonicity is enforced: the serving timeline never runs
        backwards, so an arrival stamped before ``now`` is a caller bug.
        Non-finite times are rejected (:func:`finite_seconds`).
        """
        finite_seconds(t_s, "a clock time")
        if t_s < self.now:
            raise ConfigurationError(
                f"clock cannot run backwards: now={self.now}, requested {t_s}"
            )
        self.now = float(t_s)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self.now})"
