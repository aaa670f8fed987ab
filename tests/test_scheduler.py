"""The deployment scheduler: every pass, one worker by default.

Core properties: bit-reproducible schedules, measured makespan equal to
the critical-path bound under unbounded workers, worker/per-host bounds
respected, and -- the chaos-parity property -- a completed/failed/skipped
partition (and journal frontier) that does not depend on the worker
count.  ``tests/test_one_worker.py`` holds the one-worker case against
the serial executor it replaced.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import DeploymentFailure, RuntimeEngageError
from repro.drivers import ACTIVE, INACTIVE, UNINSTALLED
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.obs import Tracer
from repro.runtime import DeploymentEngine, RetryPolicy
from repro.sim import FaultPlan, FaultyWorld, SimClock


def openmrs_partial():
    return PartialInstallSpec(
        [
            PartialInstance(
                "server",
                as_key("Mac-OSX 10.6"),
                config={"hostname": "demotest", "os_user_name": "root"},
            ),
            PartialInstance(
                "tomcat", as_key("Tomcat 6.0.18"), inside_id="server"
            ),
            PartialInstance(
                "openmrs", as_key("OpenMRS 1.8"), inside_id="tomcat"
            ),
        ]
    )


def build_world(**how):
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()
    spec = ConfigurationEngine(registry).configure(openmrs_partial()).spec
    engine = DeploymentEngine(registry, infrastructure, drivers, **how)
    return infrastructure, engine, spec


def schedule_of(report):
    """The observable schedule: who ran what, when, for how long."""
    return [
        (a.instance_id, a.action, a.attempt, a.started_at, a.duration)
        for a in report.actions
    ]


class TestMeasuredMakespan:
    def test_unbounded_matches_critical_path_bound(self):
        """Acceptance criterion: with enough workers the measured
        makespan *is* the critical path, to float equality."""
        _, engine, spec = build_world(jobs=0)
        system = engine.deploy(spec)
        report = system.report
        assert report.makespan_seconds == pytest.approx(
            report.critical_path_seconds, abs=1e-6
        )
        assert system.is_deployed()

    def test_parallel_strictly_beats_sequential(self):
        """OpenMRS has independent siblings (jre/mysql/tomcat under one
        server), so parallelism must shave real simulated time."""
        _, engine, spec = build_world(jobs=4)
        system = engine.deploy(spec)
        report = system.report
        assert report.makespan_seconds < report.sequential_seconds
        assert report.jobs == 4

    def test_single_worker_degenerates_to_sequential(self):
        _, engine, spec = build_world(jobs=1)
        system = engine.deploy(spec)
        report = system.report
        assert report.makespan_seconds == pytest.approx(
            report.sequential_seconds, abs=1e-6
        )

    def test_matches_serial_counterfactual_prediction(self):
        """The default one-worker engine predicts a critical-path
        makespan as a counterfactual; unbounded workers must *measure*
        the same number."""
        _, serial_engine, spec = build_world()
        predicted = serial_engine.deploy(spec).report.critical_path_seconds
        _, parallel_engine, spec = build_world(jobs=0)
        measured = parallel_engine.deploy(spec).report
        assert measured.makespan_seconds == pytest.approx(
            predicted, abs=1e-6
        )

    def test_simulated_clock_advances_by_makespan(self):
        infrastructure, engine, spec = build_world(jobs=0)
        before = infrastructure.clock.now
        system = engine.deploy(spec)
        elapsed = infrastructure.clock.now - before
        assert elapsed == pytest.approx(
            system.report.makespan_seconds, abs=1e-6
        )


class TestDeterminism:
    @pytest.mark.parametrize("jobs", [0, 1, 2, 4])
    def test_bit_identical_schedules(self, jobs):
        """Acceptance criterion: repeated runs with the same ``jobs``
        produce identical (instance, action, start, duration) tuples."""
        _, engine_a, spec_a = build_world(jobs=jobs)
        first = engine_a.deploy(spec_a)
        _, engine_b, spec_b = build_world(jobs=jobs)
        second = engine_b.deploy(spec_b)
        assert schedule_of(first.report) == schedule_of(second.report)

    def test_end_state_independent_of_jobs(self):
        states = []
        for jobs in (1, 2, 0):
            _, engine, spec = build_world(jobs=jobs)
            system = engine.deploy(spec)
            states.append(system.states())
        assert all(s == states[0] for s in states[1:])

    def test_dependency_order_respected(self):
        _, engine, spec = build_world(jobs=0)
        system = engine.deploy(spec)
        starts = {
            a.instance_id: a.started_at
            for a in system.report.actions
            if a.action == "start"
        }
        installs = {
            a.instance_id: a.started_at
            for a in system.report.actions
            if a.action == "install" and a.attempt == 1
        }
        for instance in spec:
            for upstream in instance.upstream_ids():
                # A dependent cannot begin installing before every
                # upstream has *started* (reached ACTIVE).
                assert installs[instance.id] >= starts[upstream] - 1e-9


class TestConcurrencyBounds:
    @staticmethod
    def peak_concurrency(report):
        """Maximum number of simultaneously-running actions."""
        boundaries = []
        for action in report.actions:
            boundaries.append((action.started_at, 1))
            boundaries.append((action.started_at + action.duration, -1))
        boundaries.sort()
        live = peak = 0
        for _, delta in boundaries:
            live += delta
            peak = max(peak, live)
        return peak

    def test_global_worker_bound_respected(self):
        _, engine, spec = build_world(jobs=2)
        system = engine.deploy(spec)
        assert self.peak_concurrency(system.report) <= 2

    def test_per_host_bound_serialises_single_host_spec(self):
        """All OpenMRS instances live on one machine, so
        ``jobs_per_host=1`` forces a fully serial timeline even with
        unbounded global workers."""
        _, engine, spec = build_world(jobs=0, jobs_per_host=1)
        system = engine.deploy(spec)
        report = system.report
        assert self.peak_concurrency(report) == 1
        assert report.makespan_seconds == pytest.approx(
            report.sequential_seconds, abs=1e-6
        )

    def test_reverse_passes_accept_jobs(self):
        _, engine, spec = build_world(jobs=0)
        system = engine.deploy(spec)
        engine.shutdown(system)
        assert set(system.states().values()) == {INACTIVE}
        engine.start(system)
        engine.uninstall(system)
        assert set(system.states().values()) == {UNINSTALLED}


class TestChaosParity:
    """Satellite: the completed/failed/skipped partition and the journal
    frontier must be identical for ``jobs=1`` and ``jobs=4`` under the
    same seeded fault plan."""

    @staticmethod
    def chaos_outcome(seed, rate, **how):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.1)
        infrastructure, engine, spec = build_world(policy=policy, **how)
        plan = FaultPlan.seeded(seed, rate, max_failures=2)
        FaultyWorld(infrastructure, plan)
        try:
            system = engine.deploy(spec)
            return ("deployed", system.states(), None)
        except DeploymentFailure as failure:
            partition = (
                frozenset(failure.completed),
                frozenset(failure.failed),
                frozenset(failure.skipped),
            )
            return ("failed", partition, failure.journal.states())

    @pytest.mark.parametrize(
        "seed,rate", list(itertools.product([1, 2, 3, 5], [0.25, 0.6]))
    )
    def test_partition_independent_of_worker_count(self, seed, rate):
        assert self.chaos_outcome(seed, rate, jobs=1) == self.chaos_outcome(
            seed, rate, jobs=4
        )

    @pytest.mark.parametrize(
        "seed,rate", list(itertools.product([1, 2, 3, 5], [0.25, 0.6]))
    )
    def test_default_engine_partitions_like_four_workers(self, seed, rate):
        assert self.chaos_outcome(seed, rate) == self.chaos_outcome(
            seed, rate, jobs=4
        )


class TestParallelFailureSemantics:
    def test_only_dependent_subtree_skipped(self):
        """Unlike the serial fail-fast engine, a parallel pass finishes
        independent branches: mysql's failure skips openmrs only."""
        policy = RetryPolicy(max_attempts=2, backoff_base=0.1)
        infrastructure, engine, spec = build_world(policy=policy, jobs=4)
        plan = FaultPlan().on("driver:mysql:start", times=10)
        FaultyWorld(infrastructure, plan)
        with pytest.raises(DeploymentFailure) as excinfo:
            engine.deploy(spec)
        failure = excinfo.value
        assert failure.failed == {"mysql"}
        assert set(failure.skipped) == {"openmrs"}
        assert failure.completed == {"server", "jre", "tomcat"}
        # The failed instance stopped mid-path (installed, not started);
        # its dependents were never acted on.
        system = failure.system
        assert system.state_of("mysql") == INACTIVE
        assert system.state_of("openmrs") == UNINSTALLED
        assert system.state_of("tomcat") == ACTIVE
        # Journal agrees.
        journal = failure.journal
        assert set(journal.failed) == {"mysql"}
        assert journal.skipped == {"openmrs"}
        assert journal.completed == failure.completed

    def test_journal_entries_ordered_by_completion_time(self):
        infrastructure, engine, spec = build_world(jobs=0)
        from repro.runtime import DeploymentJournal

        journal = DeploymentJournal(spec)
        engine.deploy(spec, journal=journal)
        stamps = [entry.timestamp for entry in journal.entries]
        assert stamps == sorted(stamps)

    def test_resume_readopts_parallel_frontier(self):
        """A resume (itself parallel) picks up exactly the remaining
        subtree and converges to the fault-free end state."""
        infrastructure, engine, spec = build_world(
            policy=RetryPolicy(max_attempts=2, backoff_base=0.1), jobs=4
        )
        plan = FaultPlan().on("driver:mysql:start", times=3)
        FaultyWorld(infrastructure, plan)
        with pytest.raises(DeploymentFailure) as excinfo:
            engine.deploy(spec)
        journal = excinfo.value.journal
        engine.policy = RetryPolicy(max_attempts=4, backoff_base=0.1)
        system = engine.resume(journal)
        assert system.is_deployed()
        assert journal.is_complete()
        assert not journal.failed and not journal.skipped
        # Only the unfinished subtree was re-driven.
        resumed = {a.instance_id for a in system.report.actions}
        assert "server" not in resumed and "tomcat" not in resumed
        assert {"mysql", "openmrs"} <= resumed

    def test_report_caches_survive_parallel_sort(self):
        """Satellite: actions_for / retries are index-backed; the
        post-pass sort must invalidate and rebuild them correctly."""
        policy = RetryPolicy(max_attempts=4, backoff_base=0.1)
        infrastructure, engine, spec = build_world(policy=policy, jobs=4)
        plan = FaultPlan.seeded(2, 0.6, max_failures=2)
        FaultyWorld(infrastructure, plan)
        system = engine.deploy(spec)
        report = system.report
        for instance in spec:
            expected = [
                a for a in report.actions if a.instance_id == instance.id
            ]
            assert report.actions_for(instance.id) == expected
        assert report.retries == sum(
            1 for a in report.actions if not a.succeeded
        )
        assert report.total_backoff_seconds == pytest.approx(
            sum(a.backoff_seconds for a in report.actions)
        )


class TestPassHeap:
    """Completions come off the pass's own ``(end, seq)`` heap."""

    @staticmethod
    def scheduler_events(partial, **how):
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        tracer = Tracer(clock=infrastructure.clock)
        infrastructure.set_tracer(tracer)
        spec = ConfigurationEngine(registry).configure(partial).spec
        DeploymentEngine(
            registry, infrastructure, standard_drivers(), **how
        ).deploy(spec)
        return tracer.instants(category="scheduler")

    def test_completions_observed_in_time_order(self):
        completes = [
            e.timestamp
            for e in self.scheduler_events(openmrs_partial(), jobs=0)
            if e.name == "complete"
        ]
        assert len(completes) == 5
        assert completes == sorted(completes)

    def test_same_instant_completions_in_dispatch_order(self):
        """Three identical machines dispatched together finish at the
        same instant, and complete in the order they were dispatched."""
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    name, as_key("Ubuntu-Linux 10.04"),
                    config={"hostname": name},
                )
                for name in ("c", "a", "b")
            ]
        )
        events = self.scheduler_events(partial, jobs=0)
        order = lambda name: [  # noqa: E731
            (e.timestamp, e.args["instance"]) for e in events
            if e.name == name
        ]
        dispatched, completed = order("dispatch"), order("complete")
        assert len({at for at, _ in completed}) == 1
        assert [i for _, i in completed] == [i for _, i in dispatched]
        assert [e.args["position"] for e in events if e.name == "dispatch"] \
            == [0, 1, 2]


BAD_BOUNDS = pytest.mark.parametrize(
    "how", [{"jobs": -1}, {"jobs": None}, {"jobs_per_host": -2}],
    ids=["jobs=-1", "jobs=None", "jobs_per_host=-2"],
)


class TestWorkerBounds:
    """A negative worker bound, or ``jobs=None``, is refused by name at
    construction instead of silently meaning "unbounded"."""

    @BAD_BOUNDS
    def test_engine_refuses(self, how):
        (name, value), = how.items()
        with pytest.raises(
            RuntimeEngageError, match=f"^{name} must be .* got {value}$"
        ):
            build_world(**how)

    @BAD_BOUNDS
    def test_bus_coordinator_refuses(self, how):
        from repro.runtime import BusCoordinator

        (name, value), = how.items()
        with pytest.raises(
            RuntimeEngageError, match=f"^{name} must be .* got {value}$"
        ):
            BusCoordinator(
                standard_registry(), standard_infrastructure(),
                standard_drivers(), **how,
            )

    def test_zero_means_unbounded(self):
        _, engine, spec = build_world(jobs=0, jobs_per_host=0)
        report = engine.deploy(spec).report
        assert report.jobs == 0
        assert report.makespan_seconds == report.critical_path_seconds


class TestEventClock:
    """The time-sorted event log for interleaved parallel spans."""

    def test_events_sorted_by_start_across_overlapping_spans(self):
        """Regression: two overlapping worker spans log out of order;
        ``events()`` must merge them by start time."""
        clock = SimClock()
        clock.advance(10.0, "setup")
        with clock.overlapping(10.0):
            clock.advance(50.0, "worker-a")   # logged at start=10
        with clock.overlapping(10.0):
            clock.advance(5.0, "worker-b")    # logged at start=10
            clock.advance(5.0, "worker-b2")   # logged at start=15
        starts = [event.start for event in clock.events()]
        assert starts == sorted(starts)
        labels = [event.label for event in clock.events()]
        # worker-b2 (start 15) must sort after both start-10 spans,
        # despite being appended after worker-a's start-10 record.
        assert labels.index("worker-b2") > labels.index("worker-a")

    def test_elapsed_by_label_sums_interleaved_events(self):
        clock = SimClock()
        with clock.overlapping(0.0):
            clock.advance(3.0, "download")
            clock.advance(2.0, "install")
        with clock.overlapping(0.0):
            clock.advance(4.0, "download")
        totals = clock.elapsed_by_label()
        assert totals["download"] == pytest.approx(7.0)
        assert totals["install"] == pytest.approx(2.0)

    def test_overlapping_span_restores_now(self):
        clock = SimClock()
        clock.advance(8.0)
        with clock.overlapping(2.0) as span:
            clock.advance(10.0, "work")
        assert span.start == 2.0
        assert span.end == 12.0
        assert span.elapsed == 10.0
        assert clock.now == 8.0

    def test_span_without_start_begins_where_entered(self):
        """The scheduler's one span per pass, re-entered per dispatch."""
        clock = SimClock()
        span = clock.overlapping()
        clock.advance(3.0)
        for work in (10.0, 4.0):
            with span:
                clock.advance(work, "work")
            assert (span.start, span.end, clock.now) == (3.0, 3.0 + work, 3.0)

    def test_reset_rewinds_now_and_log(self):
        clock = SimClock()
        clock.advance(5.0, "work")
        clock.reset()
        assert clock.now == 0.0
        assert clock.events() == []
