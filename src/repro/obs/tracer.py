"""Structured trace events over simulated time.

A :class:`Tracer` collects *span* events (a named stretch of simulated
time on one lane) and *instant* events (a point occurrence).  Timestamps
are simulated seconds read off the :class:`~repro.sim.clock.SimClock`
by the emitting site, so traces are deterministic: the same deployment
produces the same events in the same order, bit for bit.

The zero-overhead contract: nothing in this module is consulted unless
a tracer is installed.  Emitting sites hold an ``Optional[Tracer]`` and
guard every emission with ``if tracer is not None`` -- when no tracer is
installed the hot paths run exactly the pre-observability instruction
sequence, and reports/journals/CLI output are bit-identical.

Lanes become Chrome-trace "threads" on export
(:mod:`repro.obs.export`): one lane per simulated host (driver actions,
backoffs), plus dedicated lanes for the scheduler, the coordinator,
fault injection, and the configuration engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry

#: Event kinds (the ``phase`` field of a :class:`TraceEvent`).
SPAN = "span"
INSTANT = "instant"


@dataclass
class TraceEvent:
    """One structured event: a span of simulated time or an instant.

    ``seq`` is assigned by the tracer and is the deterministic
    tie-breaker for events at the same simulated instant.
    """

    name: str
    category: str
    phase: str
    timestamp: float
    duration: float = 0.0
    lane: str = "main"
    args: dict[str, Any] = field(default_factory=dict)
    seq: int = 0

    @property
    def end(self) -> float:
        return self.timestamp + self.duration


class Tracer:
    """Collects trace events and aggregates metrics for one run.

    ``clock`` (a :class:`~repro.sim.clock.SimClock`, optional) supplies
    default timestamps for :meth:`instant`; sites that know their own
    timestamps pass them explicitly.  A :class:`MetricsRegistry` rides
    along so emitting sites update counters/histograms behind the same
    single ``tracer is not None`` guard.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.events: list[TraceEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def _append(self, event: TraceEvent) -> TraceEvent:
        event.seq = self._seq
        self._seq += 1
        self.events.append(event)
        return event

    def span(
        self,
        name: str,
        *,
        category: str,
        start: float,
        duration: float,
        lane: str = "main",
        **args: Any,
    ) -> TraceEvent:
        """Record a completed stretch of simulated work."""
        return self._append(
            TraceEvent(name, category, SPAN, start, duration, lane, args)
        )

    def instant(
        self,
        name: str,
        *,
        category: str,
        timestamp: Optional[float] = None,
        lane: str = "main",
        **args: Any,
    ) -> TraceEvent:
        """Record a point event (defaults to the clock's current time)."""
        if timestamp is None:
            timestamp = self.clock.now if self.clock is not None else 0.0
        return self._append(
            TraceEvent(name, category, INSTANT, timestamp, 0.0, lane, args)
        )

    # -- Introspection ---------------------------------------------------

    def sorted_events(self) -> list[TraceEvent]:
        """Events ordered by (timestamp, emission order).

        Overlapping worker spans are emitted with their own local
        timestamps, so the raw list is not time-ordered; the sort is
        deterministic because ``seq`` breaks simulated-time ties.
        """
        return sorted(self.events, key=lambda e: (e.timestamp, e.seq))

    def spans(self, category: Optional[str] = None) -> list[TraceEvent]:
        return [
            e for e in self.events
            if e.phase == SPAN and (category is None or e.category == category)
        ]

    def instants(self, category: Optional[str] = None) -> list[TraceEvent]:
        return [
            e for e in self.events
            if e.phase == INSTANT
            and (category is None or e.category == category)
        ]
