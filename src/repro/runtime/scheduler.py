"""Event-driven DAG execution of deployment passes (S5.2).

"The process can be performed in parallel, as long as the dependency
ordering is met."  Every pass -- deploy, resume, start, stop,
uninstall, repair, delta -- is a DAG of resource instances, and
:class:`DagScheduler` dispatches each instance whose dependency guards
are satisfied to a bounded pool of simulated workers.  The
per-instance machinery (transitions, retries, journalling) is
:meth:`DeploymentEngine._drive_instance`.  A repair's or delta's
restarts are nodes of its up pass like any other, so a bounced
upstream is back before its dependents in the pass start.

* **One ready queue, in pass order.**  Ready instances wait in a heap
  keyed by their position in the pass order (topological, reversed for
  down passes).  With one worker -- the engine's default -- the next
  ready instance by position is always the next in the pass order, so
  a serial pass is just the one-worker case.  ``engine.jobs`` bounds
  the workers (``0`` = unbounded) and ``engine.jobs_per_host``
  optionally caps concurrent instances per target machine.

* **Completions on a pass-local heap.**  Each dispatched instance runs
  inside a :meth:`~repro.sim.clock.SimClock.overlapping` span from its
  dispatch instant, so driver actions, retry backoffs and HANG-fault
  timeout budgets genuinely overlap in simulated time.  Its completion
  goes on the pass's own ``(end, seq)`` heap, and the clock is synced
  to each completion in turn.  ``report.makespan_seconds`` is therefore
  measured, with the critical-path bound beside it as
  ``report.critical_path_seconds``.

* **One failure semantics.**  A fatal failure skips only the failed
  instance's transitive dependents; independent branches finish.  The
  completed/failed/skipped partition -- and the journal frontier --
  depend only on the (deterministic, per-site) fault decisions, never
  on the worker count.  When timelines overlapped, journal entries are
  ordered by completion time before the pass returns.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from repro.core.errors import DeploymentFailure, EngageError, GuardError
from repro.runtime.deploy import DeploymentReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.deploy import DeployedSystem, DeploymentEngine


def _started_at(action) -> float:
    return action.started_at


class DagScheduler:
    """One pass over ``system``: every selected instance driven to
    ``target`` -- or, for a ``restart`` node, bounced -- in (reverse)
    dependency order by ``engine.jobs`` simulated workers."""

    def __init__(
        self,
        engine: "DeploymentEngine",
        system: "DeployedSystem",
        target: str,
        *,
        reverse: bool,
        only: Optional[set[str]] = None,
        restart: frozenset[str] = frozenset(),
    ) -> None:
        self.engine = engine
        self.system = system
        self.target = target
        self.reverse = reverse
        self.only = only
        self.restart = restart

    def _dag(self) -> tuple[list, list[int], list[list[int]]]:
        """The pass's instances in pass order, and by position how many
        prerequisites each waits on and which instances wait on it.

        Restricted to the pass: a forward pass waits on upstream
        dependencies, a reverse one (stop, uninstall) on downstream
        dependents -- exactly the guard direction of Figure 3.
        """
        spec = self.system.spec
        order = spec.topological_order()
        if self.reverse:
            order.reverse()
        if self.only is not None:
            order = [i for i in order if i.id in self.only]
        position = {instance.id: n for n, instance in enumerate(order)}
        counts: list[int] = []
        dependents: list[list[int]] = [[] for _ in order]
        for index, instance in enumerate(order):
            neighbours = (
                spec.downstream_ids(instance.id) if self.reverse
                else spec.upstream_ids(instance.id)
            )
            prereqs = [position[i] for i in neighbours if i in position]
            counts.append(len(prereqs))
            for prereq in prereqs:
                dependents[prereq].append(index)
        return order, counts, dependents

    # -- Execution -------------------------------------------------------

    def run(self) -> DeploymentReport:
        engine, system, target = self.engine, self.system, self.target
        restart = self.restart
        selected, pending, dependents = self._dag()
        clock = engine.infrastructure.clock
        tracer = engine.infrastructure.tracer
        workers = engine.jobs or len(selected)
        host_cap = engine.jobs_per_host or None
        if host_cap is not None:
            spec = system.spec
            hosts = [spec.machine_of(i.id) for i in selected]
            per_host: dict[str, int] = {}
            backlog: dict[str, list[int]] = {}
        report = DeploymentReport(jobs=engine.jobs)
        journal = system.journal
        # Ascending positions: already a heap.
        ready = [index for index, count in enumerate(pending) if not count]
        running: list[tuple] = []  # (end, seq, position, start, error)
        # The critical path: the earliest each instance could have
        # started with unbounded workers, from measured elapsed times.
        earliest = [0.0] * len(selected)
        longest = 0.0
        failed: dict[str, EngageError] = {}
        seq = 0
        interleaved = False
        pass_started = clock.now
        # Each dispatch runs from its own instant, and the clock goes
        # back to it afterwards for whatever else starts then.
        worker = clock.overlapping()

        while True:
            if tracer is not None:
                tracer.metrics.histogram(
                    "scheduler.ready_queue_depth"
                ).observe(len(ready))
            while ready and len(running) < workers:
                index = heapq.heappop(ready)
                if host_cap is not None:
                    host = hosts[index]
                    if per_host.get(host, 0) >= host_cap:
                        backlog.setdefault(host, []).append(index)
                        continue
                    per_host[host] = per_host.get(host, 0) + 1
                    if tracer is not None:
                        tracer.metrics.histogram(
                            "scheduler.host_concurrency"
                        ).observe(per_host[host])
                if running:
                    interleaved = True
                iid = selected[index].id
                if tracer is not None:
                    tracer.instant(
                        "dispatch", category="scheduler",
                        timestamp=clock.now, lane=self._lane(iid),
                        instance=iid, position=index,
                    )
                    tracer.metrics.counter("scheduler.dispatches").inc()
                error = None
                with worker:
                    try:
                        engine._drive_instance(
                            system, iid, target, report, iid in restart
                        )
                    except GuardError:
                        raise  # protocol error by the caller: unwrapped
                    except EngageError as exc:
                        error = exc
                heapq.heappush(
                    running, (worker.end, seq, index, worker.start, error)
                )
                seq += 1
            if not running:
                break
            end, _, index, start, error = heapq.heappop(running)
            clock.advance_to(end)
            finish = earliest[index] + (end - start)
            if finish > longest:
                longest = finish
            if host_cap is not None:
                host = hosts[index]
                per_host[host] -= 1
                for parked in backlog.pop(host, ()):
                    heapq.heappush(ready, parked)
            iid = selected[index].id
            if tracer is not None:
                tracer.instant(
                    "complete" if error is None else "fail",
                    category="scheduler", timestamp=end,
                    lane=self._lane(iid), instance=iid, elapsed=end - start,
                )
            if error is None:
                for dependent in dependents[index]:
                    if finish > earliest[dependent]:
                        earliest[dependent] = finish
                    pending[dependent] -= 1
                    if not pending[dependent]:
                        heapq.heappush(ready, dependent)
                        if tracer is not None:
                            ready_id = selected[dependent].id
                            tracer.instant(
                                "ready", category="scheduler",
                                timestamp=end, lane=self._lane(ready_id),
                                instance=ready_id,
                            )
            else:
                failed[iid] = error
                journal.mark_failed(iid, str(error))
                if tracer is not None:
                    tracer.instant(
                        "failed", category="journal", timestamp=end,
                        lane=self._lane(iid), instance=iid, error=str(error),
                    )

        if interleaved:
            # Workers appended in dispatch order; merge their timelines.
            report.actions.sort(key=_started_at)
            journal.sort_entries_by_time()
        report.sequential_seconds = sum([a.duration for a in report.actions])
        report.makespan_seconds = clock.now - pass_started
        report.critical_path_seconds = longest
        system.report = report
        if failed:
            # Never dispatched: still waiting on a failed prerequisite.
            skipped = [
                selected[index].id
                for index, count in enumerate(pending) if count
            ]
            journal.mark_skipped(skipped)
            first = min(failed)
            names = ", ".join(repr(iid) for iid in sorted(failed))
            raise DeploymentFailure(
                f"deployment stopped at {names}: {failed[first]}",
                journal=journal,
                completed=set(journal.completed),
                failed=set(failed),
                skipped=skipped,
                report=report,
                system=system,
            ) from failed[first]
        return report

    def _lane(self, instance_id: str) -> str:
        """Trace lane of an instance: its machine's hostname, so
        scheduler events line up with the engine's per-host action
        spans."""
        return self.system.machine_for(instance_id).hostname
