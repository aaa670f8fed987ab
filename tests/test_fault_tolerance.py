"""Fault-tolerant deployment: transient fault injection, retry policies,
and the resumable deployment journal.

The central property (chaos matrix, also run as a dedicated CI job):
for any seeded fault plan, a deployment that survives via retries -- or
fails fatally and is resumed from its journal -- must end *bit-identical*
to a fault-free deployment of the same spec: same driver states, same
processes, same installed packages, same persisted state file.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import (
    ActionTimeout,
    DeploymentFailure,
    TransientError,
    UpgradeError,
)
from repro.drivers import ACTIVE, INACTIVE, UNINSTALLED
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import (
    DeploymentEngine,
    DeploymentJournal,
    RetryPolicy,
    UpgradeEngine,
    canonical_journal,
    load_system,
    save_system,
    system_payload,
)
from repro.sim import FaultKind, FaultPlan, FaultyWorld

#: Seeds for the chaos matrix; CI overrides via CHAOS_SEEDS="7 8 9".
SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "1 2 3").split()]
RATES = [0.25, 0.6]


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
    """A fresh world + engine + configured OpenMRS spec."""
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()
    spec = ConfigurationEngine(registry).configure(openmrs_partial()).spec
    engine = DeploymentEngine(registry, infrastructure, drivers, **how)
    return infrastructure, engine, spec


def world_snapshot(system, infrastructure):
    """Everything that must be bit-identical across chaos scenarios:
    driver states, processes (sans timestamps), package databases, the
    persisted state document and -- timestamps aside, which retries and
    backoffs legitimately move -- the journal inside it."""
    machines = sorted(
        set(system.machines.values()), key=lambda m: m.hostname
    )
    document = system_payload(system)
    del document["journal"]
    return {
        "states": system.states(),
        "processes": {
            machine.hostname: [
                (p.pid, p.name, p.state.value, p.listen_ports, p.instance_id)
                for p in machine.processes()
            ]
            for machine in machines
        },
        "packages": {
            machine.hostname: [
                (record.name, record.version, tuple(record.files))
                for record in infrastructure.package_manager(
                    machine
                ).installed()
            ]
            for machine in machines
        },
        "state_file": document,
        "journal": canonical_journal(system.journal),
    }


def without_pids(snapshot):
    """``snapshot`` with each host's processes as a sorted list without
    their pids, which number processes in the order they started."""
    processes = {
        host: sorted(process[1:] for process in listed)
        for host, listed in snapshot["processes"].items()
    }
    return {**snapshot, "processes": processes}


@pytest.fixture(scope="module")
def baseline():
    """The fault-free reference deployment, computed once."""
    infrastructure, engine, spec = build_world()
    system = engine.deploy(spec)
    return world_snapshot(system, infrastructure)


class TestFaultPlan:
    def test_decisions_independent_of_call_order(self):
        sites = [f"driver:inst{i}:start" for i in range(12)]
        forward = FaultPlan.seeded(5, 0.5)
        backward = FaultPlan.seeded(5, 0.5)
        a = [forward.pending(site) for site in sites]
        b = list(
            reversed([backward.pending(site) for site in reversed(sites)])
        )
        assert a == b
        assert any(a), "rate 0.5 over 12 sites should fault something"

    def test_same_seed_same_plan(self):
        sites = [f"driver:x{i}:install" for i in range(20)]
        one = FaultPlan.seeded(9, 0.4)
        two = FaultPlan.seeded(9, 0.4)
        assert [one.pending(s) for s in sites] == [
            two.pending(s) for s in sites
        ]

    def test_different_seeds_differ(self):
        sites = [f"driver:x{i}:install" for i in range(40)]
        one = FaultPlan.seeded(1, 0.5)
        two = FaultPlan.seeded(2, 0.5)
        assert [one.pending(s) for s in sites] != [
            two.pending(s) for s in sites
        ]

    def test_explicit_rule_counts_down(self):
        from repro.sim import SimClock

        plan = FaultPlan().on("driver:mysql:start", times=2)
        clock = SimClock()
        assert plan.pending("driver:mysql:start") == 2
        with pytest.raises(TransientError):
            plan.fire("driver:mysql:start", clock)
        with pytest.raises(TransientError):
            plan.fire("driver:mysql:start", clock)
        plan.fire("driver:mysql:start", clock)  # exhausted: no-op
        assert plan.pending("driver:mysql:start") == 0
        assert len(plan.records) == 2

    def test_hang_needs_duration(self):
        with pytest.raises(ValueError):
            FaultPlan().on("x", kind=FaultKind.HANG)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, 1.5)

    def test_faulty_world_context_manager(self):
        infrastructure, engine, spec = build_world()
        plan = FaultPlan().on("driver:*:install", times=1)
        with FaultyWorld(infrastructure, plan):
            assert infrastructure.fault_plan is plan
            assert infrastructure.downloads.fault_plan is plan
        assert infrastructure.fault_plan is None


class TestRetryPolicy:
    def test_backoff_exponential_and_deterministic(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_base=2.0, backoff_factor=3.0
        )
        first = policy.backoff_seconds(1, "mysql", "start")
        second = policy.backoff_seconds(2, "mysql", "start")
        assert first == policy.backoff_seconds(1, "mysql", "start")
        assert second > first
        # Jitter keeps the wait within [base, base * (1 + jitter)].
        assert 2.0 <= first <= 2.0 * 1.1
        assert 6.0 <= second <= 6.0 * 1.1

    def test_backoff_capped(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base=1.0, backoff_max=5.0, jitter=0.0
        )
        assert policy.backoff_seconds(9, "a", "b") == 5.0

    def test_classification(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.is_retryable(TransientError("x"))
        assert policy.is_retryable(ActionTimeout("x"))
        assert not policy.is_retryable(ValueError("x"))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)


class TestChaosMatrix:
    """The acceptance property, over a seed x rate matrix."""

    @pytest.mark.parametrize(
        "seed,rate", list(itertools.product(SEEDS, RATES))
    )
    def test_retry_converges_bit_identical(self, baseline, seed, rate):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.5)
        infrastructure, engine, spec = build_world(policy=policy)
        plan = FaultPlan.seeded(seed, rate, max_failures=2)
        FaultyWorld(infrastructure, plan)
        system = engine.deploy(spec)
        assert system.is_deployed()
        assert world_snapshot(system, infrastructure) == baseline
        # Recovery is visible in the report: every injected fault shows
        # up as a failed attempt, and retried attempts waited backoff.
        failed = [a for a in system.report.actions if not a.succeeded]
        assert len(failed) == len(plan.records)
        if failed:
            assert system.report.total_backoff_seconds > 0.0

    @pytest.mark.parametrize(
        "seed,rate", list(itertools.product(SEEDS, RATES))
    )
    def test_fail_then_resume_bit_identical(self, baseline, seed, rate):
        """Without retries the seeded plan kills the deploy; resuming
        (repeatedly, like an operator re-running the tool) converges to
        the fault-free result."""
        infrastructure, engine, spec = build_world()
        plan = FaultPlan.seeded(seed, rate, max_failures=2)
        FaultyWorld(infrastructure, plan)
        # Each run without retries dies on (at most) one injected fault,
        # so total-planned-faults + 1 runs always suffice.
        rounds = 1 + sum(
            plan.pending(f"driver:{instance.id}:{action}")
            for instance in spec.topological_order()
            for action in ("install", "start")
        )
        journal = None
        system = None
        for _ in range(rounds):
            try:
                if journal is None:
                    system = engine.deploy(spec)
                else:
                    system = engine.resume(journal)
                break
            except DeploymentFailure as failure:
                journal = failure.journal
                assert journal is not None
        else:
            pytest.fail("deployment never converged")
        assert system.is_deployed()
        assert world_snapshot(system, infrastructure) == baseline


class TestConsistentFrontier:
    def test_fatal_failure_partitions_instances(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.1)
        infrastructure, engine, spec = build_world(policy=policy)
        plan = FaultPlan().on("driver:mysql:start", times=10)
        FaultyWorld(infrastructure, plan)
        with pytest.raises(DeploymentFailure) as excinfo:
            engine.deploy(spec)
        failure = excinfo.value
        assert failure.failed == {"mysql"}
        system = failure.system
        dependents = spec.downstream_closure({"mysql"}) - {"mysql"}
        # Independent branches ran to completion and are active, the
        # failed instance stopped cleanly mid-path (installed, not
        # started), its dependents are untouched.
        assert dependents == {"openmrs"}
        assert failure.completed == set(spec.ids()) - dependents - {"mysql"}
        assert failure.skipped == frozenset(dependents)
        for instance_id in failure.completed:
            assert system.state_of(instance_id) == ACTIVE
        assert system.state_of("mysql") == INACTIVE
        for instance_id in failure.skipped:
            assert system.state_of(instance_id) == UNINSTALLED
        # No instance is mid-transition: every state is a basic state.
        assert set(system.states().values()) <= {
            ACTIVE, INACTIVE, UNINSTALLED,
        }
        # Dependents of the failed instance were never acted on.
        for dependent in spec.downstream_ids("mysql"):
            assert not failure.report.actions_for(dependent)
        # The journal agrees with the partition.
        journal = failure.journal
        assert journal.completed == failure.completed
        assert set(journal.failed) == {"mysql"}
        assert journal.skipped == set(failure.skipped)
        # Both attempts are visible in the report.
        mysql_starts = [
            a for a in failure.report.actions
            if a.instance_id == "mysql" and a.action == "start"
        ]
        assert [a.attempt for a in mysql_starts] == [1, 2]
        assert all(a.outcome == "transient-error" for a in mysql_starts)
        assert mysql_starts[0].backoff_seconds > 0.0
        assert mysql_starts[1].backoff_seconds == 0.0  # fatal, no wait

    def test_resume_after_fatal_failure(self, baseline):
        infrastructure, engine, spec = build_world(
            policy=RetryPolicy(max_attempts=2)
        )
        plan = FaultPlan().on("driver:mysql:start", times=3)
        FaultyWorld(infrastructure, plan)
        with pytest.raises(DeploymentFailure) as excinfo:
            engine.deploy(spec)
        journal = excinfo.value.journal
        # One injected fault left; a retrying resume rides through it.
        engine.policy = RetryPolicy(max_attempts=2, backoff_base=0.1)
        system = engine.resume(journal)
        assert system.is_deployed()
        assert journal.is_complete()
        assert not journal.failed and not journal.skipped
        # tomcat, independent of mysql, started in the failed pass, so
        # only the order of process ids differs from the fault-free run.
        assert without_pids(world_snapshot(system, infrastructure)) == (
            without_pids(baseline)
        )
        # Resume only drove the remaining work: completed instances
        # contributed no new actions.
        resumed_ids = {a.instance_id for a in system.report.actions}
        assert "server" not in resumed_ids

    def test_journal_round_trips_through_state_file(self, baseline):
        infrastructure, engine, spec = build_world()
        plan = FaultPlan().on("driver:tomcat:install", times=1)
        FaultyWorld(infrastructure, plan)
        with pytest.raises(DeploymentFailure) as excinfo:
            engine.deploy(spec)
        failure = excinfo.value
        text = save_system(failure.system, failure.journal)
        assert '"engage-state-2"' in text
        registry = standard_registry()
        drivers = standard_drivers()
        loaded_journal = load_system(
            registry, infrastructure, drivers, text
        ).journal
        assert loaded_journal is not None
        assert loaded_journal.completed == failure.journal.completed
        assert loaded_journal.states() == failure.journal.states()
        engine2 = DeploymentEngine(registry, infrastructure, drivers)
        system = engine2.resume(loaded_journal)
        assert system.is_deployed()
        assert world_snapshot(system, infrastructure) == baseline


class TestFailureModes:
    def test_hang_beyond_budget_times_out_and_retries(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.1, action_timeout=60.0
        )
        infrastructure, engine, spec = build_world(policy=policy)
        plan = FaultPlan().on(
            "driver:mysql:start",
            kind=FaultKind.HANG,
            hang_seconds=300.0,
            times=1,
        )
        FaultyWorld(infrastructure, plan)
        system = engine.deploy(spec)
        assert system.is_deployed()
        timeouts = [
            a for a in system.report.actions if a.outcome == "timeout"
        ]
        assert len(timeouts) == 1
        assert timeouts[0].instance_id == "mysql"
        # The hung attempt charged the 60s budget (plus the action's own
        # simulated cost), never the full 300s hang.
        assert 60.0 <= timeouts[0].duration < 300.0

    def test_hang_within_budget_is_just_slow(self):
        policy = RetryPolicy(max_attempts=2, action_timeout=60.0)
        infrastructure, engine, spec = build_world(policy=policy)
        plan = FaultPlan().on(
            "driver:mysql:start",
            kind=FaultKind.HANG,
            hang_seconds=30.0,
            times=1,
        )
        FaultyWorld(infrastructure, plan)
        system = engine.deploy(spec)
        assert system.is_deployed()
        assert all(a.succeeded for a in system.report.actions)
        starts = [
            a for a in system.report.actions
            if a.instance_id == "mysql" and a.action == "start"
        ]
        assert starts[0].duration >= 30.0

    def test_oslpm_level_fault_is_retried(self, baseline):
        """Faults injected beneath the drivers (at the package manager)
        classify and retry exactly like driver-level ones."""
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1)
        infrastructure, engine, spec = build_world(policy=policy)
        plan = FaultPlan().on("oslpm:demotest:install:mysql*", times=1)
        FaultyWorld(infrastructure, plan)
        system = engine.deploy(spec)
        assert system.is_deployed()
        assert len(plan.records) == 1
        assert plan.records[0].site.startswith("oslpm:demotest:install:")
        assert world_snapshot(system, infrastructure) == baseline

    def test_transient_fault_without_policy_is_fatal(self):
        infrastructure, engine, spec = build_world()
        FaultyWorld(
            infrastructure, FaultPlan().on("driver:jre:install", times=1)
        )
        with pytest.raises(DeploymentFailure) as excinfo:
            engine.deploy(spec)
        assert excinfo.value.failed == {"jre"}

    def test_non_transient_error_is_not_retried(self):
        """A fatal (non-transient) driver failure must not burn retries:
        one attempt, immediate failure."""
        engine_policy = RetryPolicy(max_attempts=4, backoff_base=0.1)
        infrastructure, engine, spec = build_world(policy=engine_policy)
        # Sabotage the world: unpublish nothing, but make the artifact
        # lookup fail by pointing mysql's package at a missing version.
        system = engine.prepare(spec)
        from repro.core.errors import SimulationError

        driver = system.driver("mysql")

        def broken_install():
            raise SimulationError("package index corrupted")

        driver.do_install = broken_install
        report_error = None
        try:
            engine._drive(system, ACTIVE, reverse=False)
        except DeploymentFailure as failure:
            report_error = failure
        assert report_error is not None
        attempts = [
            a for a in report_error.report.actions
            if a.instance_id == "mysql"
        ]
        assert len(attempts) == 1
        assert attempts[0].outcome == "error"


class TestUpgradeWithRetries:
    def test_upgrade_survives_transient_faults(self):
        infrastructure, engine, spec = build_world(
            policy=RetryPolicy(max_attempts=4, backoff_base=0.1)
        )
        system = engine.deploy(spec)
        # Chaos arrives *after* the initial deploy; the upgrade's stop /
        # redeploy passes must ride through it.
        plan = (
            FaultPlan()
            .on("driver:mysql:stop", times=1)
            .on("driver:tomcat:install", times=2)
        )
        FaultyWorld(infrastructure, plan)
        config = ConfigurationEngine(engine.registry)
        upgrader = UpgradeEngine(config, engine)
        result = upgrader.upgrade(system, openmrs_partial())
        assert result.succeeded and not result.rolled_back
        assert result.system.is_deployed()
        assert plan.pending("driver:mysql:stop") == 0
        assert plan.pending("driver:tomcat:install") == 0

    def test_rollback_reuses_retry_policy(self):
        """New-system deploy fails fatally; the rollback redeploy hits a
        leftover transient fault and must retry through it."""
        infrastructure, engine, spec = build_world(
            policy=RetryPolicy(max_attempts=3, backoff_base=0.1)
        )
        system = engine.deploy(spec)
        # 5 faults at mysql:install vs 3 attempts per pass: the new
        # deploy burns 3 and fails fatally; the rollback's redeploy
        # absorbs the last 2 and succeeds on its third attempt.
        plan = FaultPlan().on("driver:mysql:install", times=5)
        FaultyWorld(infrastructure, plan)
        config = ConfigurationEngine(engine.registry)
        upgrader = UpgradeEngine(config, engine)
        result = upgrader.upgrade(system, openmrs_partial())
        assert not result.succeeded
        assert result.rolled_back
        assert result.system.is_deployed()
        assert plan.pending("driver:mysql:install") == 0

    def test_rollback_without_policy_dies_on_transient_fault(self):
        infrastructure, engine, spec = build_world()
        system = engine.deploy(spec)
        plan = FaultPlan().on("driver:mysql:install", times=100)
        FaultyWorld(infrastructure, plan)
        config = ConfigurationEngine(engine.registry)
        upgrader = UpgradeEngine(config, engine)  # no retry policy
        with pytest.raises(UpgradeError):
            upgrader.upgrade(system, openmrs_partial())


class TestJournalUnit:
    def test_states_folds_entries(self):
        _, engine, spec = build_world()
        journal = DeploymentJournal(spec)
        from repro.runtime import JournalEntry

        journal.record(
            JournalEntry("mysql", "install", UNINSTALLED, INACTIVE, 1.0)
        )
        journal.record(
            JournalEntry("mysql", "start", INACTIVE, ACTIVE, 2.0)
        )
        assert journal.states() == {"mysql": ACTIVE}
        assert "mysql" in journal.remaining()  # not marked completed
        journal.mark_completed("mysql")
        assert "mysql" not in journal.remaining()

    def test_payload_round_trip(self):
        _, engine, spec = build_world()
        journal = DeploymentJournal(spec)
        from repro.runtime import JournalEntry

        journal.record(
            JournalEntry("jre", "install", UNINSTALLED, INACTIVE, 3.5)
        )
        journal.mark_completed("server")
        journal.mark_failed("jre", "boom")
        journal.mark_skipped(["mysql", "tomcat", "openmrs"])
        clone = DeploymentJournal.from_payload(spec, journal.to_payload())
        assert clone.states() == journal.states()
        assert clone.completed == journal.completed
        assert clone.failed == journal.failed
        assert clone.skipped == journal.skipped
        assert clone.target == journal.target

    def test_payload_rejects_unknown_instances(self):
        _, engine, spec = build_world()
        from repro.core.errors import RuntimeEngageError

        with pytest.raises(RuntimeEngageError):
            DeploymentJournal.from_payload(
                spec, {"target": ACTIVE, "completed": ["ghost"]}
            )
