"""Event-driven DAG execution of deployment passes (S5.2).

"The process can be performed in parallel, as long as the dependency
ordering is met."  This module is where that sentence becomes execution
rather than a counterfactual: a deployment pass is a DAG of resource
instances, and the scheduler dispatches every instance whose dependency
guards are satisfied to a bounded pool of simulated workers.

Two execution strategies share the engine's per-instance machinery
(:meth:`DeploymentEngine._drive_instance` does the transitions, retries,
journalling):

* :func:`execute_serial` -- the historical behaviour: one instance at a
  time in topological order, fail-fast (a fatal failure skips every
  later instance), makespan reported as the *counterfactual*
  critical-path bound.

* :class:`DagScheduler` -- the event-driven scheduler.  A ready queue
  holds instances whose prerequisites have reached the target state,
  ordered by critical-path-length priority with instance-id tie-breaks
  (schedules are bit-reproducible).  Dispatch is bounded by the engine's
  global worker count (``engine.jobs``; ``0`` means unbounded) and its
  optional per-host limit (``engine.jobs_per_host``).  Each dispatched
  instance executes inside a
  :meth:`~repro.sim.clock.SimClock.overlapping` span starting at the
  dispatch instant, so driver actions, retry backoffs, and
  HANG-fault timeout budgets genuinely overlap in simulated time; a
  completion event is scheduled at the span's end and the clock jumps
  from event to event.  ``report.makespan_seconds`` is therefore
  *measured* wall-clock, with the critical-path bound still available as
  ``report.critical_path_seconds``.

Failure semantics differ deliberately: the parallel scheduler marks a
fatally-failed instance and *skips only its transitive dependents*,
letting independent branches finish.  The resulting
completed/failed/skipped partition -- and the journal frontier -- depend
only on the (deterministic, per-site) fault decisions, never on the
worker count, so a chaos run with ``jobs=4`` partitions exactly like
``jobs=1``.  Journal entries are ordered by completion time before the
pass returns, and :meth:`DeploymentEngine.resume` re-adopts a parallel
frontier the same way it re-adopts a serial one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.errors import (
    DeploymentFailure,
    EngageError,
    GuardError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.deploy import (
        DeployedSystem,
        DeploymentEngine,
        DeploymentReport,
    )


def _new_report() -> "DeploymentReport":
    from repro.runtime.deploy import DeploymentReport

    return DeploymentReport()


def _selected_instances(system, target, *, reverse, only):
    order = system.spec.topological_order()
    if reverse:
        order = list(reversed(order))
    return [i for i in order if only is None or i.id in only]


# ---------------------------------------------------------------------------
# Serial strategy (historical fail-fast semantics)
# ---------------------------------------------------------------------------


def execute_serial(
    engine: "DeploymentEngine",
    system: "DeployedSystem",
    target: str,
    *,
    reverse: bool,
    only: Optional[set[str]] = None,
) -> "DeploymentReport":
    """Drive instances one at a time in (reverse) dependency order.

    On a fatal per-instance failure the pass stops at a consistent
    frontier: the failed transition did not advance its driver, and
    every instance after the failure point in the order -- which
    includes all dependents of the failed instance -- is untouched.
    """
    report = _new_report()
    selected = _selected_instances(system, target, reverse=reverse, only=only)
    finish_times: dict[str, float] = {}
    clock = engine.infrastructure.clock
    for index, instance in enumerate(selected):
        started = clock.now
        try:
            engine._drive_instance(system, instance.id, target, report)
        except GuardError:
            # A guard violation is a protocol error by the caller
            # (wrong closure, wrong order), not a deployment fault:
            # propagate it unwrapped.
            raise
        except EngageError as exc:
            _finish_counterfactual(report, finish_times)
            system.report = report
            skipped = [other.id for other in selected[index + 1:]]
            journal = system.journal
            completed = set(journal.completed)
            journal.mark_failed(instance.id, str(exc))
            journal.mark_skipped(skipped)
            raise DeploymentFailure(
                f"deployment stopped at {instance.id!r}: {exc}",
                journal=journal,
                completed=completed,
                failed={instance.id},
                skipped=skipped,
                report=report,
                system=system,
            ) from exc
        duration = clock.now - started
        neighbour_finishes = [
            finish_times.get(other, 0.0)
            for other in (
                system.spec.downstream_ids(instance.id)
                if reverse
                else instance.upstream_ids()
            )
        ]
        earliest = max(neighbour_finishes, default=0.0)
        finish_times[instance.id] = earliest + duration
    _finish_counterfactual(report, finish_times)
    return report


def _finish_counterfactual(
    report: "DeploymentReport", finish_times: dict[str, float]
) -> None:
    """Serial-mode report totals: the makespan is the *counterfactual*
    critical path a maximally parallel execution would have needed."""
    report.sequential_seconds = sum(a.duration for a in report.actions)
    report.makespan_seconds = max(finish_times.values(), default=0.0)
    report.critical_path_seconds = report.makespan_seconds


# ---------------------------------------------------------------------------
# Event-driven strategy
# ---------------------------------------------------------------------------


@dataclass
class _Task:
    """One dispatched instance: its timeline and outcome."""

    instance_id: str
    started_at: float
    finished_at: float
    error: Optional[EngageError] = None

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


def _worker_bound(value: Optional[int]) -> Optional[int]:
    """``None``, ``0`` and negatives all mean unbounded."""
    return None if not value or value <= 0 else int(value)


class DagScheduler:
    """Bounded-concurrency, event-driven execution of one pass.

    ``engine.jobs`` is the global worker bound (``0`` or ``None`` =
    unbounded); ``engine.jobs_per_host`` additionally caps concurrent
    instances whose physical context is the same machine (modelling
    per-host agent parallelism).  Dispatch order is by descending
    critical-path length (estimated from the drivers' declared action
    costs), with ascending instance id as the deterministic tie-break.
    """

    def __init__(
        self,
        engine: "DeploymentEngine",
        system: "DeployedSystem",
        target: str,
        *,
        reverse: bool,
        only: Optional[set[str]] = None,
    ) -> None:
        self.engine = engine
        self.system = system
        self.target = target
        self.reverse = reverse
        self.jobs = _worker_bound(engine.jobs)
        self.jobs_per_host = _worker_bound(engine.jobs_per_host)
        self.clock = engine.infrastructure.clock
        self.tracer = engine.infrastructure.tracer
        self.selected = _selected_instances(
            system, target, reverse=reverse, only=only
        )
        self.selected_ids = {i.id for i in self.selected}
        spec = system.spec
        self.host_of = {
            i.id: spec[i.id].machine_id(spec) for i in self.selected
        }
        # Prerequisites/dependents restricted to the selected set.  For a
        # forward pass an instance waits on its upstream dependencies;
        # for a reverse pass (stop/uninstall) on its downstream
        # dependents -- exactly the guard direction of Figure 3.
        self.prereqs: dict[str, list[str]] = {}
        self.dependents: dict[str, list[str]] = {
            i.id: [] for i in self.selected
        }
        for instance in self.selected:
            if reverse:
                prereqs = [
                    d for d in spec.downstream_ids(instance.id)
                    if d in self.selected_ids
                ]
            else:
                prereqs = [
                    u for u in instance.upstream_ids()
                    if u in self.selected_ids
                ]
            self.prereqs[instance.id] = prereqs
            for prereq in prereqs:
                self.dependents[prereq].append(instance.id)
        self.priority = self._critical_path_priorities()

    def _critical_path_priorities(self) -> dict[str, float]:
        """Critical-path length from each instance to the sinks, using
        the drivers' declared (fixed) action costs as the estimate."""
        cost = {
            i.id: self.system.driver(i.id).estimated_cost(self.target)
            for i in self.selected
        }
        lengths: dict[str, float] = {}
        # ``selected`` is in dependency order, so dependents come later:
        # walking it backwards sees every dependent before its prereq.
        for instance in reversed(self.selected):
            downstream = max(
                (lengths[d] for d in self.dependents[instance.id]),
                default=0.0,
            )
            lengths[instance.id] = cost[instance.id] + downstream
        return lengths

    # -- Execution -------------------------------------------------------

    def run(self) -> "DeploymentReport":
        report = _new_report()
        report.jobs = self.jobs if self.jobs is not None else 0
        journal = self.system.journal
        pass_started = self.clock.now
        pending = {
            iid: len(prereqs) for iid, prereqs in self.prereqs.items()
        }
        ready: list[tuple[float, str]] = [
            (-self.priority[iid], iid)
            for iid, count in pending.items()
            if count == 0
        ]
        heapq.heapify(ready)
        backlog: dict[str, list[tuple[float, str]]] = {}
        per_host: dict[str, int] = {}
        running = 0
        tasks: dict[str, _Task] = {}
        completed: set[str] = set()
        failed: dict[str, str] = {}

        while True:
            if self.tracer is not None:
                self.tracer.metrics.histogram(
                    "scheduler.ready_queue_depth"
                ).observe(len(ready))
            running += self._dispatch_ready(
                ready, backlog, per_host, running, report
            )
            if running == 0:
                break
            event = self.clock.advance_to_next_event()
            assert event is not None, "running tasks but no pending events"
            task: _Task = event.payload
            running -= 1
            host = self.host_of[task.instance_id]
            per_host[host] = per_host.get(host, 1) - 1
            for item in backlog.pop(host, ()):
                heapq.heappush(ready, item)
            tasks[task.instance_id] = task
            if self.tracer is not None:
                self.tracer.instant(
                    "complete" if task.error is None else "fail",
                    category="scheduler", timestamp=self.clock.now,
                    lane=self._lane(host), instance=task.instance_id,
                    elapsed=task.elapsed,
                )
            if task.error is None:
                completed.add(task.instance_id)
                for dependent in self.dependents[task.instance_id]:
                    pending[dependent] -= 1
                    if pending[dependent] == 0:
                        heapq.heappush(
                            ready,
                            (-self.priority[dependent], dependent),
                        )
                        if self.tracer is not None:
                            self.tracer.instant(
                                "ready", category="scheduler",
                                timestamp=self.clock.now,
                                lane=self._lane(self.host_of[dependent]),
                                instance=dependent,
                            )
            else:
                failed[task.instance_id] = str(task.error)
                journal.mark_failed(task.instance_id, str(task.error))
                if self.tracer is not None:
                    self.tracer.instant(
                        "failed", category="journal",
                        timestamp=self.clock.now,
                        lane=self._lane(host),
                        instance=task.instance_id,
                        error=str(task.error),
                    )

        self._finish_measured(report, tasks, pass_started)
        self.system.report = report
        journal.sort_entries_by_time()
        if failed:
            skipped = [
                i.id for i in self.selected
                if i.id not in completed and i.id not in failed
            ]
            journal.mark_skipped(skipped)
            names = ", ".join(repr(iid) for iid in sorted(failed))
            first_error = failed[sorted(failed)[0]]
            raise DeploymentFailure(
                f"deployment stopped at {names}: {first_error}",
                journal=journal,
                completed=completed,
                failed=set(failed),
                skipped=skipped,
                report=report,
                system=self.system,
            )
        return report

    def _dispatch_ready(
        self,
        ready: list[tuple[float, str]],
        backlog: dict[str, list[tuple[float, str]]],
        per_host: dict[str, int],
        running: int,
        report: "DeploymentReport",
    ) -> int:
        """Dispatch queued instances while worker slots remain; returns
        how many were started."""
        started = 0
        while ready and (
            self.jobs is None or running + started < self.jobs
        ):
            item = heapq.heappop(ready)
            iid = item[1]
            host = self.host_of[iid]
            if (
                self.jobs_per_host is not None
                and per_host.get(host, 0) >= self.jobs_per_host
            ):
                backlog.setdefault(host, []).append(item)
                continue
            self._dispatch(iid, report)
            per_host[host] = per_host.get(host, 0) + 1
            if self.tracer is not None:
                self.tracer.metrics.histogram(
                    "scheduler.host_concurrency"
                ).observe(per_host[host])
            started += 1
        return started

    def _lane(self, machine_instance_id: str) -> str:
        """Trace lane of a machine instance (its hostname, so scheduler
        events line up with the engine's per-host action spans)."""
        machine = self.system.machines.get(machine_instance_id)
        return machine.hostname if machine is not None else machine_instance_id

    def _dispatch(self, iid: str, report: "DeploymentReport") -> None:
        """Execute one instance's transitions inside an overlapping span
        and schedule its completion event at the span's end."""
        start = self.clock.now
        if self.tracer is not None:
            self.tracer.instant(
                "dispatch", category="scheduler", timestamp=start,
                lane=self._lane(self.host_of[iid]), instance=iid,
                priority=self.priority[iid],
            )
            self.tracer.metrics.counter("scheduler.dispatches").inc()
        span = self.clock.overlapping(start)
        error: Optional[EngageError] = None
        with span:
            try:
                self.engine._drive_instance(
                    self.system, iid, self.target, report
                )
            except GuardError:
                raise  # protocol error by the caller: propagate unwrapped
            except EngageError as exc:
                error = exc
        task = _Task(iid, start, span.end, error)
        self.clock.schedule(span.end, label=f"finish:{iid}", payload=task)

    def _finish_measured(
        self,
        report: "DeploymentReport",
        tasks: dict[str, _Task],
        pass_started: float,
    ) -> None:
        """Parallel-mode report totals: the makespan is measured off the
        event clock; the critical-path bound is recomputed from the
        *actual* per-instance elapsed times for comparison."""
        report.actions.sort(key=lambda a: a.started_at)
        report.invalidate_caches()
        report.sequential_seconds = sum(a.duration for a in report.actions)
        report.makespan_seconds = self.clock.now - pass_started
        finish: dict[str, float] = {}
        for instance in self.selected:
            task = tasks.get(instance.id)
            if task is None:
                continue
            earliest = max(
                (finish.get(p, 0.0) for p in self.prereqs[instance.id]),
                default=0.0,
            )
            finish[instance.id] = earliest + task.elapsed
        report.critical_path_seconds = max(finish.values(), default=0.0)
