"""A simulated clock.

All time in the simulated substrate flows through a :class:`SimClock`:
downloads, package installs, service startup delays, and provisioning all
``advance`` it.  Benchmarks read simulated durations off the clock, which
makes the cached-vs-internet install experiment (E4) deterministic.

The clock keeps time, not history: it is ``now`` and nothing else.  The
records of a run are the deployment journal (what happened) and, when
someone asks for one, the tracer (where the time went).

:meth:`overlapping` spans let several logical workers each accumulate
simulated time from a common start instant -- the substrate is
single-threaded, but the *timelines* overlap -- and :meth:`advance_to`
moves ``now`` to whichever completion the caller observes next (the
deployment scheduler keeps its own completion heap per pass).
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import SimulationError


class ClockSpan:
    """A scoped, possibly-overlapping stretch of simulated work.

    Entering the span rewinds ``now`` to ``start``; everything the block
    advances accumulates from there; leaving restores ``now`` to where
    it was, with the block's extent available as ``elapsed`` / ``end``.
    This is how logically-concurrent workers share one single-threaded
    clock: each executes in its own span from the common dispatch
    instant, and the scheduler's completion heap decides which
    completion the world observes next.  Spans nest (a coordinator wave
    span may contain a whole slave deployment, scheduler spans
    included).  A span made without a start begins wherever it is
    entered, so one such span can be re-entered for stretch after
    stretch.
    """

    __slots__ = ("_clock", "_anchor", "_saved", "start", "end", "elapsed")

    def __init__(self, clock: "SimClock", start: Optional[float]) -> None:
        self._clock = clock
        self._anchor = start
        self.start = self.end = clock._now if start is None else start
        self.elapsed = 0.0

    def __enter__(self) -> "ClockSpan":
        clock = self._clock
        self._saved = clock._now
        if self._anchor is not None:
            clock._now = self._anchor
        self.start = clock._now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._clock._now
        self.elapsed = self.end - self.start
        self._clock._now = self._saved
        return False


class SimClock:
    """Monotonic simulated time in seconds."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise SimulationError(f"cannot advance clock by {seconds}")
        self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to an absolute time (no-op if past)."""
        if timestamp > self._now:
            self._now = timestamp

    def overlapping(self, start: Optional[float] = None) -> ClockSpan:
        """A span of work logically beginning at ``start`` -- with no
        start, at whatever instant it is entered -- overlapping whatever
        else is in flight.  Use as a context manager; read ``start`` /
        ``elapsed`` / ``end`` afterwards."""
        return ClockSpan(self, start)
