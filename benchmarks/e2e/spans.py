"""In-memory wall-clock spans for the traced benchmark pass.

Everything here lives in the benchmark, not in ``src/``: a span is
recorded around a call into a layer, either explicitly
(``with tracer.span(name)``) or by a timing wrapper set on a public
callable for the duration of the pass (:meth:`Tracer.wrap`).  Spans are
kept in memory as ``[name, start, end, parent, op]`` rows and written as
one JSON file when the workload ends.

Times are host seconds from :func:`time.perf_counter`; nothing in this
module touches the simulated clock.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records nested spans of one single-threaded benchmark pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Per-name totals of the counts recorded next to the spans.
        self.counts: dict[str, float] = defaultdict(float)
        #: Identifier shared by every span of the current operation.
        self.op: int | None = None
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        assert popped == index, "spans must close in LIFO order"

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def root_name(self) -> str | None:
        """Name of the outermost span that is open."""
        return self.spans[self._stack[0]][NAME] if self._stack else None

    # -- Timing wrappers on public callables -------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> bool:
        """Replace ``owner.attr`` with a wrapper recording a ``name`` span
        around every call.  ``observe(args)`` runs before the call and
        returns a function run with ``(tracer, result)`` after it, so
        counts are taken at the same boundary as the time.  Returns
        False (and changes nothing) when ``owner`` no longer defines
        the callable."""
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            return False
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def timed(*args, **kwargs):
            done = observe(args) if observe is not None else None
            index = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(index)
            if done is not None:
                done(self, result)
            return result

        setattr(owner, attr, timed)
        self._wrapped.append((owner, attr, original))
        return True

    def wrap_function(self, module_name: str, attr: str, name: str) -> bool:
        """Wrap a module-level function wherever ``repro`` imported it.

        ``from m import f`` binds ``f`` in the importer's namespace, so
        the wrapper has to replace every such binding, not only
        ``m.f``."""
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            return False
        for holder in list(sys.modules.values()):
            if holder is None or not holder.__name__.startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self.wrap(holder, key, name)
        return True

    def unwrap(self) -> None:
        for owner, attr, stored in reversed(self._wrapped):
            setattr(owner, attr, stored)
        self._wrapped.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


class Op:
    """One closed-loop operation: its wall time and the time of each
    end-to-end phase, measured the same way in both passes; with a
    tracer it also records the spans."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.phase_ms: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str, phase: str | None = None):
        tracer = self.tracer
        span = tracer.begin(name) if tracer is not None else None
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                tracer.end(span)
            if phase is not None:
                self.phase_ms[phase] += elapsed * 1000.0

    def count(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's self time: its duration minus the part of that
    interval its child spans cover.  One thread, strict nesting, so the
    children of a span never overlap each other."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def roots(spans: list[list]) -> list[int]:
    """For each span, the index of the top-level span it sits under
    (parents always precede their children in the list)."""
    top: list[int] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        top.append(index if parent is None else top[parent])
    return top


def totals_by_name(spans: list[list]) -> dict[tuple[str, str], list[float]]:
    """``[self ms, total ms, calls]`` summed per (name of the top-level
    span, span name)."""
    own = self_times(spans)
    top = roots(spans)
    totals: dict[tuple[str, str], list[float]] = defaultdict(
        lambda: [0.0, 0.0, 0]
    )
    for index, span in enumerate(spans):
        row = totals[spans[top[index]][NAME], span[NAME]]
        row[0] += own[index] * 1000.0
        row[1] += (span[END] - span[START]) * 1000.0
        row[2] += 1
    return totals


def child_coverage(spans: list[list], root_name: str) -> float:
    """The smallest share of a ``root_name`` span's duration that the
    spans directly under it cover (1.0 when there are none to judge)."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    shares = [
        covered[index] / (span[END] - span[START])
        for index, span in enumerate(spans)
        if span[PARENT] is None and span[NAME] == root_name
        and span[END] > span[START]
    ]
    return min(shares, default=1.0)
