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

:func:`trace_from_journal` turns a deployment journal into trace
instants, which is how ``engage-sim trace`` renders a *saved bundle*
after the fact.  That view is the journal's record (what happened, and
when); the action, backoff and fault spans of a run exist only in the
live tracer of ``deploy --trace`` / ``reconcile --trace``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Optional

from repro.core.jsontext import document_text
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
    return document_text(chrome_trace(source, metadata=metadata), 1)


# -- Validation ---------------------------------------------------------

_PHASES = {"X", "i", "M"}
_INSTANT_SCOPES = {"g", "p", "t"}


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A finite JSON number: a bool is not one, and neither is ``NaN``
    or ``Infinity`` (which ``json.loads`` accepts)."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value)
    )


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
            if not _is_integer(event.get(key)):
                problems.append(f"{where}: {key!r} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
        if phase == "M":
            continue
        if not _is_number(event.get("ts")):
            problems.append(f"{where}: 'ts' must be a number")
        if not isinstance(event.get("cat"), str):
            problems.append(f"{where}: 'cat' must be a string")
        if phase == "X":
            duration = event.get("dur")
            if not _is_number(duration) or duration < 0:
                problems.append(
                    f"{where}: 'dur' must be a non-negative number"
                )
        elif event.get("s") not in _INSTANT_SCOPES:
            problems.append(f"{where}: instant scope {event.get('s')!r}")
    return problems


# -- After-the-fact rendering (``engage-sim trace``) --------------------


def trace_from_journal(
    journal_entries: Iterable[Any],
    *,
    lane_of: Optional[Mapping[str, str]] = None,
) -> list[TraceEvent]:
    """One ``journal`` instant per journal entry, at its timestamp.

    ``journal_entries`` are
    :class:`~repro.runtime.journal.JournalEntry`-shaped; ``lane_of``
    maps instance ids to lane names (typically hostnames), and an entry
    whose instance it does not name lands on a ``journal`` lane.  Each
    instant carries the entry's instance, action, source and target.
    """
    lane_of = lane_of or {}
    return [
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
        for seq, entry in enumerate(journal_entries)
    ]
