"""Self-healing reconciliation: drift detection, minimal repair plans,
the autonomic loop, and its determinism under chaos churn."""

from __future__ import annotations

import json

import pytest

from repro.config import ConfigurationEngine
from repro.core.errors import (
    DeploymentError,
    DeploymentFailure,
    DriverError,
    RuntimeEngageError,
)
from repro.drivers.library import ServiceDriver
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import (
    DeploymentEngine,
    DeploymentJournal,
    DriftKind,
    ProcessMonitor,
    ReconcileController,
    RepairOp,
    RetryPolicy,
    deployment_fingerprint,
    detect_drift,
    execute_plan,
    plan_repair,
)
from repro.runtime.journal import JournalEntry
from repro.sim import FaultInjector, FaultKind, FaultPlan, MachineChurn

TOPOLOGY = FleetTopology(replicas=6, machines=3)


def deploy_fleet(topology=TOPOLOGY):
    """A deployed fleet plus everything reconcile needs around it."""
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    partial = fleet_partial(topology)
    config = ConfigurationEngine(
        registry, partition=True
    )
    spec = config.configure(partial).spec
    engine = DeploymentEngine(registry, infrastructure, standard_drivers())
    journal = DeploymentJournal(spec)
    system = engine.deploy(spec, journal=journal)
    assert system.is_deployed()
    return engine, system, journal, config, partial


def first_service(system):
    for instance_id in sorted(system.drivers):
        driver = system.drivers[instance_id]
        if isinstance(driver, ServiceDriver) and driver.process is not None:
            return instance_id, driver
    raise AssertionError("no running service in fleet")


class TestDriftDetection:
    def test_healthy_fleet_has_no_drift(self):
        _, system, _, _, _ = deploy_fleet()
        drift = detect_drift(system)
        assert drift.is_converged
        assert drift.items == []
        assert drift.by_kind() == {}

    def test_crashed_service_detected(self):
        _, system, _, _, _ = deploy_fleet()
        instance_id, driver = first_service(system)
        driver.process.fail()
        drift = detect_drift(system)
        assert drift.crashed_services == [instance_id]
        assert drift.by_kind() == {"crashed-service": 1}

    def test_lost_machine_expands_to_its_instances(self):
        _, system, _, _, _ = deploy_fleet()
        FaultInjector(system, seed=1).crash_machines(1)
        drift = detect_drift(system)
        machines = drift.lost_machines
        assert len(machines) == 1
        expected = {
            instance.id
            for instance in system.spec.instances_on_machine(machines[0])
        }
        assert set(drift.lost_instances) == expected
        # The machine instance itself rides along.
        assert machines[0] in drift.lost_instances

    def test_payload_shape(self):
        _, system, _, _, _ = deploy_fleet()
        instance_id, driver = first_service(system)
        driver.process.fail()
        payload = detect_drift(system).to_payload()
        assert payload["converged"] is False
        assert payload["items"][0] == {
            "kind": "crashed-service",
            "instance_id": instance_id,
            "detail": "active",
        }


class TestPlanning:
    def test_no_drift_means_noop_plan(self):
        _, system, _, _, _ = deploy_fleet()
        plan = plan_repair(system, detect_drift(system))
        assert plan.is_noop
        assert len(plan) == 0
        assert plan.by_op() == {}

    def test_crashed_service_plans_one_restart(self):
        _, system, _, _, _ = deploy_fleet()
        instance_id, driver = first_service(system)
        driver.process.fail()
        plan = plan_repair(system, detect_drift(system))
        assert plan.by_op() == {"restart": 1}
        assert plan.instances(RepairOp.RESTART) == [instance_id]

    def test_machine_loss_plan_is_minimal(self):
        _, system, _, _, _ = deploy_fleet()
        FaultInjector(system, seed=1).crash_machines(1)
        drift = detect_drift(system)
        plan = plan_repair(system, drift)
        # One reprovision plus redeploys for exactly the lost subtree --
        # far smaller than the fleet.
        assert plan.by_op()["reprovision"] == 1
        assert set(plan.instances(RepairOp.REDEPLOY)) == set(
            drift.lost_instances
        )
        assert len(plan) < len(system.spec) / 2

    def test_redeploys_follow_dependency_order(self):
        _, system, _, _, _ = deploy_fleet()
        FaultInjector(system, seed=1).crash_machines(1)
        plan = plan_repair(system, detect_drift(system))
        order = {
            instance.id: index
            for index, instance in enumerate(
                system.spec.topological_order()
            )
        }
        positions = [
            order[iid] for iid in plan.instances(RepairOp.REDEPLOY)
        ]
        assert positions == sorted(positions)


class TestRepair:
    def test_restart_repairs_crashed_service(self):
        engine, system, journal, _, _ = deploy_fleet()
        instance_id, driver = first_service(system)
        driver.process.fail()
        plan = plan_repair(system, detect_drift(system))
        execute_plan(engine, system, plan)
        assert driver.process.is_running()
        assert detect_drift(system).is_converged
        # The restart was journalled and the chain stays valid.
        assert journal.entries[-1].action == "restart"
        DeploymentJournal.from_payload(system.spec, journal.to_payload())

    def test_restart_only_repair_reports_what_it_cost(self):
        """The report of a repair whose only work is a restart counts
        it: totals used to stay zero while the clock moved."""
        engine, system, journal, _, _ = deploy_fleet()
        _, driver = first_service(system)
        driver.process.fail()
        clock = system.infrastructure.clock
        before = clock.now
        plan = plan_repair(system, detect_drift(system))
        assert plan.by_op() == {"restart": 1}
        report = execute_plan(engine, system, plan)
        assert [a.action for a in report.actions] == ["restart"]
        elapsed = clock.now - before
        assert elapsed > 0
        assert report.sequential_seconds == pytest.approx(
            sum(a.duration for a in report.actions)
        )
        assert report.sequential_seconds == pytest.approx(elapsed)
        assert report.makespan_seconds == pytest.approx(elapsed)
        assert report.critical_path_seconds == pytest.approx(elapsed)

    def test_machine_loss_repairs_to_convergence(self):
        engine, system, journal, _, _ = deploy_fleet()
        records = FaultInjector(system, seed=1).crash_machines(1)
        lost_hosts = {record.hostname for record in records}
        untouched_before = {
            iid: system.state_of(iid)
            for iid in system.spec.ids()
            if system.machine_for(iid).hostname not in lost_hosts
        }
        plan = plan_repair(system, detect_drift(system))
        execute_plan(engine, system, plan)
        assert detect_drift(system).is_converged
        assert system.is_deployed()
        # Instances elsewhere were never acted on.
        for iid, state in untouched_before.items():
            assert system.state_of(iid) == state
        DeploymentJournal.from_payload(system.spec, journal.to_payload())

    def test_repaired_machine_matches_fresh_deploy(self):
        """Reconciled world ≡ fresh deploy: states, journal frontier,
        and the replacement machine's process table, bit for bit."""
        engine, system, journal, _, _ = deploy_fleet()
        fresh_engine, fresh_system, fresh_journal, _, _ = deploy_fleet()

        records = FaultInjector(system, seed=2).crash_machines(1)
        hostname = records[0].hostname
        plan = plan_repair(system, detect_drift(system))
        execute_plan(engine, system, plan)

        assert system.states() == fresh_system.states()
        assert journal.states() == fresh_journal.states()
        repaired = system.infrastructure.network.machine(hostname)
        fresh = fresh_system.infrastructure.network.machine(hostname)
        table = lambda machine: sorted(  # noqa: E731
            (p.pid, p.name, tuple(p.listen_ports))
            for p in machine.running_processes()
        )
        assert table(repaired) == table(fresh)

class TestController:
    def test_noop_round_converges_without_acting(self):
        engine, system, journal, _, _ = deploy_fleet()
        controller = ReconcileController(engine, system)
        round_ = controller.poll()
        assert round_.converged
        assert round_.plan_size == 0
        assert round_.time_to_repair == 0.0
        assert round_.started_at == round_.finished_at

    def test_poll_is_idempotent_across_rounds(self):
        engine, system, journal, _, _ = deploy_fleet()
        FaultInjector(system, seed=3).crash_machines(1)
        first = ReconcileController(engine, system).poll()
        assert first.repaired and first.converged
        second = ReconcileController(engine, system).poll()
        assert second.drift_items == 0
        assert second.plan_size == 0

    def test_monitor_poll_skips_lost_machines(self):
        _, system, _, _, _ = deploy_fleet()
        FaultInjector(system, seed=3).crash_machines(1)
        monitor = ProcessMonitor(system)
        # The dead machine's services are machine-level drift, not
        # restartable processes: no restart is planned for them.
        assert monitor.crashed_services() == []
        plan = plan_repair(system, detect_drift(system))
        assert "restart" not in plan.by_op()

    def test_execution_failure_is_captured_not_raised(self):
        engine, system, journal, _, _ = deploy_fleet()
        FaultInjector(system, seed=5).crash_machines(1)
        # Every repair action fails permanently.
        plan = FaultPlan().on("driver:*", kind=FaultKind.CRASH)
        system.infrastructure.set_fault_plan(plan)
        controller = ReconcileController(engine, system)
        round_ = controller.poll()
        assert round_.error is not None
        assert not round_.converged
        # The loop survives: lifting the faults, the next round heals.
        system.infrastructure.set_fault_plan(None)
        journal.reset_frontier()
        assert controller.poll().converged


    def test_restart_failure_is_captured_not_raised(self):
        engine, system, _, _, _ = deploy_fleet()
        instance_id, driver = first_service(system)
        driver.process.fail()
        system.infrastructure.set_fault_plan(
            FaultPlan().on(f"driver:{instance_id}:restart", times=1)
        )
        controller = ReconcileController(engine, system)
        round_ = controller.poll()
        assert round_.error is not None and instance_id in round_.error
        assert not round_.converged
        # The fault is spent: the next round's restart goes through.
        assert controller.poll().converged
        assert driver.process.is_running()


def teardown_then_crash(jobs=1, policy=None):
    """The journal search's first counterexample, written out: a partial
    teardown uninstalls ``python_runtime_2``'s and ``broker000``'s
    closures (``worker001`` among them), then ``broker001`` -- the
    upstream ``worker001`` connects to -- loses its process.  The repair
    redeploys five instances and restarts ``broker001``."""
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    spec = ConfigurationEngine(
        registry, partition=True
    ).configure(
        fleet_partial(FleetTopology(replicas=3, machines=3, stacks=("django",)))
    ).spec
    engine = DeploymentEngine(
        registry, infrastructure, standard_drivers(), policy=policy, jobs=jobs
    )
    system = engine.deploy(spec)
    closure = sorted(spec.downstream_closure(["python_runtime_2", "broker000"]))
    engine.drive_down(system, closure, closure)
    system.drivers["broker001"].process.fail()
    return engine, system


class TestRestartNodes:
    """A restart is a node of the repair's up pass: it has the same
    dependency edges as the redeploys around it and the scheduler's one
    failure semantics."""

    REDEPLOYED = {
        "broker000", "python_runtime_2", "web001", "worker000", "worker001",
    }

    def test_one_round_converges_restart_before_dependent(self):
        engine, system = teardown_then_crash()
        before = len(system.journal.entries)
        result = ReconcileController(engine, system, interval=0.0).run(
            rounds=1
        )
        assert result.rounds[0].plan_by_op == {"redeploy": 5, "restart": 1}
        assert result.converged, result.rounds[0].error
        done = [
            (entry.instance_id, entry.action)
            for entry in system.journal.entries[before:]
        ]
        assert done.index(("broker001", "restart")) < done.index(
            ("worker001", "start")
        )

    @staticmethod
    def failed_repair(jobs):
        engine, system = teardown_then_crash(
            jobs=jobs, policy=RetryPolicy(max_attempts=2, backoff_base=0.1)
        )
        system.infrastructure.set_fault_plan(
            FaultPlan().on("driver:broker001:restart", times=5)
        )
        plan = plan_repair(system, detect_drift(system))
        with pytest.raises(DeploymentFailure) as excinfo:
            execute_plan(engine, system, plan)
        return excinfo.value

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_restart_skips_only_its_dependents(self, jobs):
        failure = self.failed_repair(jobs)
        assert failure.failed == {"broker001"}
        assert set(failure.skipped) == {"worker001"}
        independent = self.REDEPLOYED - {"worker001"}
        assert independent <= failure.completed
        assert all(
            failure.system.state_of(iid) == "active" for iid in independent
        )
        assert failure.system.state_of("worker001") != "active"

    def test_failure_partition_does_not_depend_on_workers(self):
        partitions = [
            (failure.completed, failure.failed, set(failure.skipped))
            for failure in map(self.failed_repair, (1, 2))
        ]
        assert partitions[0] == partitions[1]

    def test_repair_fingerprint_does_not_depend_on_workers(self):
        fingerprints = set()
        for jobs in (1, 2):
            engine, system = teardown_then_crash(jobs=jobs)
            report = execute_plan(
                engine, system, plan_repair(system, detect_drift(system))
            )
            assert report.jobs == jobs
            assert detect_drift(system).is_converged
            fingerprints.add(
                deployment_fingerprint(system.infrastructure, system)
            )
        assert len(fingerprints) == 1


class TestChurnSoak:
    @pytest.mark.parametrize("seed,rate", [(7, 0.2), (11, 0.4)])
    def test_converges_every_round_under_churn(self, seed, rate):
        engine, system, journal, _, _ = deploy_fleet()
        controller = ReconcileController(engine, system, interval=30.0)
        churn = MachineChurn(system, seed=seed, rate=rate)
        result = controller.run(rounds=5, churn=churn)
        assert all(r.converged for r in result.rounds)
        assert result.converged
        assert system.is_deployed()
        if result.rounds_with_drift:
            assert result.median_time_to_repair > 0.0

    def test_same_seed_runs_are_bit_identical(self):
        def soak():
            engine, system, journal, _, _ = deploy_fleet()
            controller = ReconcileController(engine, system, interval=30.0)
            churn = MachineChurn(system, seed=9, rate=0.3)
            result = controller.run(rounds=4, churn=churn)
            return (
                json.dumps(result.to_payload(), sort_keys=True),
                tuple(sorted(journal.states().items())),
                tuple(sorted(system.states().items())),
                tuple(
                    (r.hostname, r.kind) for r in churn.records
                ),
            )

        assert soak() == soak()

    def test_plan_sizes_stay_proportional_to_damage(self):
        engine, system, journal, _, _ = deploy_fleet()
        controller = ReconcileController(engine, system, interval=30.0)
        churn = MachineChurn(
            system, seed=13, rate=0.5, max_losses_per_round=1
        )
        result = controller.run(rounds=4, churn=churn)
        per_machine = len(system.spec) / len(system.spec.machines())
        for round_ in result.rounds:
            if round_.drift_items:
                # One lost machine repairs about one machine's slice.
                assert round_.plan_size <= per_machine + 2


class TestCrashFaultKind:
    def test_crash_site_fails_every_attempt(self):
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        spec = (
            ConfigurationEngine(registry)
            .configure(fleet_partial(FleetTopology(replicas=2, machines=1)))
            .spec
        )
        service = next(
            iid for iid in spec.ids() if iid.startswith("tomcat")
        )
        plan = FaultPlan().on(
            f"driver:{service}:start", kind=FaultKind.CRASH
        )
        infrastructure.set_fault_plan(plan)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1)
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers(), policy=policy
        )
        with pytest.raises(DeploymentError):
            engine.deploy(spec)
        # Non-retryable: one attempt only, and the site never exhausts.
        assert len(plan.records) == 1
        assert plan.records[0].kind is FaultKind.CRASH

    def test_crash_machine_is_permanent_and_traced(self):
        _, system, _, _, _ = deploy_fleet()
        injector = FaultInjector(system, seed=1)
        records = injector.crash_machines(1)
        network = system.infrastructure.network
        assert not network.has_machine(records[0].hostname)
        crash_records = [
            r for r in injector.records if r.kind == FaultKind.CRASH.value
        ]
        assert crash_records == records

    def test_churn_is_deterministic_and_respects_protect(self):
        _, system_a, _, _, _ = deploy_fleet()
        _, system_b, _, _, _ = deploy_fleet()
        churn_a = MachineChurn(system_a, seed=21, rate=0.6)
        churn_b = MachineChurn(system_b, seed=21, rate=0.6)
        lost_a = [r.hostname for r in churn_a.round(0)]
        lost_b = [r.hostname for r in churn_b.round(0)]
        assert lost_a == lost_b and lost_a
        _, system_c, _, _, _ = deploy_fleet()
        protected = MachineChurn(
            system_c, seed=21, rate=0.6, protect=lost_a
        )
        survivors = [r.hostname for r in protected.round(0)]
        assert not set(survivors) & set(lost_a)

    def test_churn_rejects_bad_rate(self):
        _, system, _, _, _ = deploy_fleet()
        with pytest.raises(ValueError):
            MachineChurn(system, rate=1.5)


class TestJournalDiffAndValidation:
    def test_from_payload_rejects_partition_overlap(self):
        _, system, journal, _, _ = deploy_fleet()
        payload = journal.to_payload()
        payload["failed"] = {payload["completed"][0]: "boom"}
        with pytest.raises(RuntimeEngageError, match="more than one"):
            DeploymentJournal.from_payload(system.spec, payload)

    def test_from_payload_rejects_broken_chain(self):
        _, system, journal, _, _ = deploy_fleet()
        payload = journal.to_payload()
        victim = payload["entries"][0]["instance_id"]
        payload["entries"].append(
            JournalEntry(
                victim, "start", "uninstalled", "active", 999.0
            ).to_payload()
        )
        with pytest.raises(RuntimeEngageError, match="do not chain"):
            DeploymentJournal.from_payload(system.spec, payload)

    def test_mark_lost_keeps_chain_valid(self):
        _, system, journal, _, _ = deploy_fleet()
        instance_id, _ = first_service(system)
        journal.mark_lost(instance_id, "active", 1000.0)
        assert instance_id not in journal.completed
        restored = DeploymentJournal.from_payload(
            system.spec, journal.to_payload()
        )
        assert restored.states()[instance_id] == "uninstalled"


class TestCli:
    @pytest.fixture
    def bundle(self, tmp_path):
        from repro.cli import main
        from repro.dsl import partial_to_json

        partial = fleet_partial(FleetTopology(replicas=4, machines=2))
        partial_path = tmp_path / "fleet.json"
        partial_path.write_text(partial_to_json(partial))
        bundle_path = tmp_path / "bundle.json"
        import io

        out = io.StringIO()
        assert main(
            ["deploy", str(partial_path), "--save", str(bundle_path)], out
        ) == 0
        return bundle_path

    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out)
        return code, out.getvalue()

    def test_status_json_converged(self, bundle):
        code, text = self.run_cli("status", str(bundle), "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["converged"] is True
        assert payload["drift"]["items"] == []
        journal = payload["journal"]
        assert "diff" not in journal
        assert journal["completed"] == len(payload["instances"])
        assert journal["failed"] == [] and journal["skipped"] == []
        assert set(payload["instances"].values()) == {"active"}

    def test_status_json_reports_drift(self, bundle):
        instance = next(
            iid
            for iid in json.loads(
                self.run_cli("status", str(bundle), "--json")[1]
            )["instances"]
            if iid.startswith("broker")
        )
        assert self.run_cli("inject-fault", str(bundle), instance)[0] == 0
        code, text = self.run_cli("status", str(bundle), "--json")
        assert code == 1
        payload = json.loads(text)
        assert payload["drift"]["by_kind"] == {"crashed-service": 1}

    def test_reconcile_repairs_and_updates_bundle(self, bundle):
        instance = next(
            iid
            for iid in json.loads(
                self.run_cli("status", str(bundle), "--json")[1]
            )["instances"]
            if iid.startswith("broker")
        )
        self.run_cli("inject-fault", str(bundle), instance)
        code, text = self.run_cli("reconcile", str(bundle), "--json")
        assert code == 0
        assert "converged; bundle updated." in text
        result = json.loads(text[text.index("{"):text.rindex("}") + 1])
        assert result["converged"] is True
        assert result["rounds"][0]["plan_by_op"] == {"restart": 1}
        assert self.run_cli("status", str(bundle), "--json")[0] == 0

    def test_reconcile_churn_soak_round_trips(self, bundle, tmp_path):
        trace = tmp_path / "reconcile.trace.json"
        code, text = self.run_cli(
            "reconcile", str(bundle),
            "--churn-rate", "0.3", "--churn-seed", "5",
            "--max-rounds", "4", "--trace", str(trace),
        )
        assert code == 0
        assert "converged; bundle updated." in text
        assert trace.exists()
        assert self.run_cli(
            "trace", "--validate", str(trace)
        )[0] == 0
        # The healed bundle is fully reloadable and converged.
        assert self.run_cli("status", str(bundle), "--json")[0] == 0
