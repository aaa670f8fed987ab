"""Trace exporters: Chrome trace-event JSON and plain text.

:func:`chrome_trace` converts collected :class:`~repro.obs.tracer.TraceEvent`
values into the Chrome trace-event format (the JSON array flavour with a
``traceEvents`` envelope), loadable in Perfetto or ``chrome://tracing``.
Each tracer *lane* becomes one "thread" of a single ``engage-sim``
process, so parallel deployments render as overlapping per-host
timelines.  Simulated seconds become microseconds (the unit the format
mandates).

:func:`validate_chrome_trace` is the schema check used by the test
suite and CI -- a dependency-free structural validator rather than a
jsonschema document, since the container ships no validator library.

:func:`trace_from_clock_events` rebuilds trace events from a
:class:`~repro.sim.clock.SimClock` event log plus a deployment journal,
which is how ``engage-sim trace`` renders a *saved bundle* into a trace
file after the fact.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from repro.core.jsontext import indented
from repro.obs.tracer import INSTANT, SPAN, TraceEvent, Tracer

#: The single simulated process all lanes belong to.
_PID = 1


def _lane_ids(events: list[TraceEvent]) -> dict[str, int]:
    """Lane name -> Chrome thread id, in sorted-name order (stable)."""
    return {lane: tid for tid, lane in enumerate(
        sorted({event.lane for event in events}), start=1
    )}


def chrome_trace(
    source: "Tracer | Iterable[TraceEvent]",
    *,
    metadata: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Export events as a Chrome trace-event JSON object."""
    if isinstance(source, Tracer):
        events = source.sorted_events()
        if metadata is None:
            metadata = {"metrics": source.metrics.to_payload()}
    else:
        events = sorted(source, key=lambda e: (e.timestamp, e.seq))
    lanes = _lane_ids(events)
    trace_events: list[dict[str, Any]] = [
        {
            "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
            "args": {"name": "engage-sim"},
        }
    ]
    for lane, tid in lanes.items():
        trace_events.append(
            {
                "ph": "M", "pid": _PID, "tid": tid, "name": "thread_name",
                "args": {"name": lane},
            }
        )
    for event in events:
        payload: dict[str, Any] = {
            "name": event.name,
            "cat": event.category,
            "pid": _PID,
            "tid": lanes[event.lane],
            "ts": round(event.timestamp * 1e6, 3),
        }
        if event.phase == SPAN:
            payload["ph"] = "X"
            payload["dur"] = round(event.duration * 1e6, 3)
        else:
            payload["ph"] = "i"
            payload["s"] = "t"  # thread-scoped instant
        if event.args:
            payload["args"] = dict(event.args)
        trace_events.append(payload)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata) if metadata else {},
    }


def chrome_trace_json(
    source: "Tracer | Iterable[TraceEvent]",
    *,
    metadata: Optional[Mapping[str, Any]] = None,
) -> str:
    return indented(chrome_trace(source, metadata=metadata), 1) + "\n"


def write_trace(
    path: str,
    source: "Tracer | Iterable[TraceEvent]",
    *,
    metadata: Optional[Mapping[str, Any]] = None,
) -> None:
    """Write a Chrome trace-event JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(source, metadata=metadata))


# -- Validation ---------------------------------------------------------

_PHASES = {"X", "i", "M"}
_INSTANT_SCOPES = {"g", "p", "t"}


def validate_chrome_trace(payload: Any) -> list[str]:
    """Structural schema check; returns problems (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: 'name' must be a string")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key!r} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: 'ts' must be a number")
        if not isinstance(event.get("cat"), str):
            problems.append(f"{where}: 'cat' must be a string")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(
                    f"{where}: 'dur' must be a non-negative number"
                )
        elif event.get("s") not in _INSTANT_SCOPES:
            problems.append(f"{where}: instant scope {event.get('s')!r}")
    return problems


# -- After-the-fact rendering (``engage-sim trace``) --------------------


def trace_from_clock_events(
    clock_events: Iterable[Any],
    *,
    journal_entries: Iterable[Any] = (),
    lane_of: Optional[Mapping[str, str]] = None,
) -> list[TraceEvent]:
    """Rebuild trace events from a clock log and a journal.

    ``clock_events`` are :class:`~repro.sim.clock.ClockEvent`-shaped
    (``start``/``duration``/``label``); ``journal_entries`` are
    :class:`~repro.runtime.journal.JournalEntry`-shaped.  ``lane_of``
    maps instance ids to lane names (typically hostnames); labels whose
    ``prefix:rest`` tail resolves through it land on that lane, the
    rest collect on a ``clock`` (or ``faults``) lane.  Clock labels are
    ``action:instance`` for driver actions, ``backoff:instance:action``
    for retry waits, and ``fault-*:site`` for injected hangs.
    """
    lane_of = lane_of or {}
    events: list[TraceEvent] = []
    seq = 0
    for clock_event in clock_events:
        label = clock_event.label or "advance"
        prefix, _, rest = label.partition(":")
        instance = rest.split(":", 1)[0] if rest else ""
        name, category, lane = label, "clock", "clock"
        if prefix.startswith("fault-"):
            category, lane = "fault", "faults"
        elif instance in lane_of:
            name = prefix
            category = "backoff" if prefix == "backoff" else "action"
            lane = lane_of[instance]
        args = {"instance": instance} if instance in lane_of else {}
        events.append(
            TraceEvent(
                name, category, SPAN, clock_event.start,
                clock_event.duration, lane, args, seq,
            )
        )
        seq += 1
    for entry in journal_entries:
        events.append(
            TraceEvent(
                "record", "journal", INSTANT, entry.timestamp, 0.0,
                lane_of.get(entry.instance_id, "journal"),
                {
                    "instance": entry.instance_id,
                    "action": entry.action,
                    "source": entry.source,
                    "target": entry.target,
                },
                seq,
            )
        )
        seq += 1
    return events
