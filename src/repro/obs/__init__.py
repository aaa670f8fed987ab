"""Observability: structured tracing and metrics for deployment runs.

The pieces:

* :class:`Tracer` -- span + instant events with categories and
  deterministic simulated-time timestamps, carried on
  :class:`~repro.sim.infrastructure.Infrastructure` (``set_tracer``)
  and emitted from the deployment engine, the DAG scheduler, the fault
  plan, the reconcile loop, the coordinator, and the configuration
  engine;
* :class:`MetricsRegistry` -- counters and histograms (actions,
  retries, backoff seconds, queue depth, per-host concurrency);
* :func:`chrome_trace` / :func:`chrome_trace_json` -- Chrome trace-event
  JSON export (Perfetto / ``chrome://tracing``), one thread lane per
  simulated host;
* :func:`validate_chrome_trace` -- the dependency-free schema check;
* :func:`trace_from_journal` -- after-the-fact rendering of a saved
  bundle's journal, one instant per entry (``engage-sim trace``); the
  spans of a run are the live tracer's alone.

The whole layer is zero-overhead when disabled: no tracer installed
means every emitting site short-circuits on ``tracer is None`` and
reports, journals, and CLI output are bit-identical to an untraced run.
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    trace_from_journal,
    validate_chrome_trace,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracer import INSTANT, SPAN, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Histogram",
    "INSTANT",
    "MetricsRegistry",
    "SPAN",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "chrome_trace_json",
    "trace_from_journal",
    "validate_chrome_trace",
]
