"""Self-healing reconciliation: drift detection, minimal repair plans,
the autonomic loop, and its determinism under chaos churn."""

from __future__ import annotations

import json

import pytest

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.core.errors import (
    ConfigurationError,
    DeploymentError,
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
    detect_drift,
    execute_plan,
    load_system,
    plan_repair,
    save_system,
)
from repro.runtime.journal import JournalEntry
from repro.sim import FaultInjector, FaultKind, FaultPlan, MachineChurn

TOPOLOGY = FleetTopology(replicas=6, machines=3)


def deploy_fleet(topology=TOPOLOGY, *, session=False):
    """A deployed fleet plus everything reconcile needs around it."""
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    partial = fleet_partial(topology)
    if session:
        config = ConfigurationSession(
            registry, partition=True, verify_registry=False
        )
    else:
        config = ConfigurationEngine(
            registry, partition=True, verify_registry=False
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

    def test_goal_must_be_subset_of_spec(self):
        _, system, _, _, _ = deploy_fleet()
        registry = standard_registry()
        other = (
            ConfigurationEngine(registry, verify_registry=False)
            .configure(fleet_partial(FleetTopology(replicas=8, machines=4)))
            .spec
        )
        with pytest.raises(RuntimeEngageError, match="upgrade"):
            detect_drift(system, goal=other)

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

    def test_extras_uninstalled_when_goal_shrinks(self):
        engine, system, journal, _, _ = deploy_fleet()
        # Goal: everything except one whole machine's worth of instances.
        machine_id = system.spec.machines()[-1].id
        dropped = {
            instance.id
            for instance in system.spec.instances_on_machine(machine_id)
        }
        from repro.core.instances import InstallSpec

        goal = InstallSpec(
            instance
            for instance in system.spec.topological_order()
            if instance.id not in dropped
        )
        drift = detect_drift(system, goal=goal)
        assert set(drift.extra_instances) == dropped
        plan = plan_repair(system, drift, goal=goal)
        assert set(plan.instances(RepairOp.UNINSTALL)) == dropped
        execute_plan(engine, system, plan)
        for iid in dropped:
            assert system.state_of(iid) == "uninstalled"
        assert detect_drift(system, goal=goal).is_converged

    def test_shrunk_goal_uninstall_is_on_the_record(self):
        """Extras used to be driven down off the record: the journal
        kept saying ``active``, so save -> load -> resume adopted a
        service whose package was gone."""
        from repro.core.instances import InstallSpec

        engine, system, _, _, _ = deploy_fleet()
        leaf = next(
            iid for iid in sorted(system.drivers, reverse=True)
            if isinstance(system.drivers[iid], ServiceDriver)
            and not system.spec.downstream_ids(iid)
        )
        goal = InstallSpec(
            instance
            for instance in system.spec.topological_order()
            if instance.id != leaf
        )
        result = ReconcileController(
            engine, system, goal=goal, interval=0.0
        ).run(rounds=1)
        assert result.converged
        assert system.state_of(leaf) == "uninstalled"
        assert system.journal.states()[leaf] == "uninstalled"
        assert leaf not in system.journal.completed

        registry, drivers = standard_registry(), standard_drivers()
        loaded = load_system(
            registry, system.infrastructure, drivers, save_system(system)
        )
        assert loaded.journal.states() == system.states()
        # Resuming toward the deployed spec really reinstalls the leaf.
        resumed = DeploymentEngine(
            registry, system.infrastructure, drivers
        ).resume(loaded.journal)
        assert resumed.is_deployed()
        assert resumed.drivers[leaf].process.is_running()
        assert detect_drift(resumed).is_converged


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
        # restartable processes: the watchdog must not touch them.
        assert monitor.crashed_services() == []
        assert monitor.poll() == []

    def test_goal_revalidation_through_session(self):
        engine, system, journal, session, partial = deploy_fleet(
            session=True
        )
        FaultInjector(system, seed=4).crash_machines(1)
        controller = ReconcileController(
            engine, system, session=session, goal_partial=partial
        )
        round_ = controller.poll()
        assert round_.converged
        assert round_.reconfigured > 0
        # Warm path: the components re-solved on the cached solvers.
        assert session.stats.solver_reuses > 0

    def test_goal_drift_refuses_repair(self):
        engine, system, journal, session, partial = deploy_fleet(
            session=True
        )
        FaultInjector(system, seed=4).crash_machines(1)
        # Corrupt the goal behind the controller's back.
        import dataclasses

        victim = detect_drift(system).lost_instances[0]
        corrupted = dataclasses.replace(
            system.spec[victim],
            config={**system.spec[victim].config, "rogue": True},
        )
        system.spec.replace_instance(corrupted)
        controller = ReconcileController(
            engine, system, session=session, goal_partial=partial
        )
        with pytest.raises(RuntimeEngageError, match="goal drift"):
            controller.poll()

    def test_session_without_partial_rejected(self):
        engine, system, _, session, _ = deploy_fleet(session=True)
        with pytest.raises(RuntimeEngageError, match="revalidation"):
            ReconcileController(engine, system, session=session)

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
            ConfigurationEngine(registry, verify_registry=False)
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
    def test_diff_of_complete_journal_is_empty(self):
        _, system, journal, _, _ = deploy_fleet()
        diff = journal.diff(system.spec)
        assert diff.empty
        assert diff.to_payload() == {
            "missing": [], "extra": [], "failed": [], "skipped": [],
        }

    def test_diff_reports_missing_in_goal_order(self):
        _, system, journal, _, _ = deploy_fleet()
        order = [i.id for i in system.spec.topological_order()]
        journal.completed.discard(order[0])
        journal.completed.discard(order[3])
        diff = journal.diff(system.spec)
        assert diff.missing == [order[0], order[3]]

    def test_diff_reports_extras_against_smaller_goal(self):
        _, system, journal, _, _ = deploy_fleet()
        from repro.core.instances import InstallSpec

        keep = [i for i in system.spec.topological_order()][:-1]
        goal = InstallSpec(keep)
        dropped = set(system.spec.ids()) - {i.id for i in keep}
        assert set(journal.diff(goal).extra) == dropped

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
        assert instance_id in journal.remaining()
        restored = DeploymentJournal.from_payload(
            system.spec, journal.to_payload()
        )
        assert restored.states()[instance_id] == "uninstalled"


class TestReconfigureComponents:
    def test_slice_matches_full_spec(self):
        registry = standard_registry()
        session = ConfigurationSession(
            registry, partition=True, verify_registry=False
        )
        partial = fleet_partial(TOPOLOGY)
        full = session.configure(partial).spec
        some = [i.id for i in full][:3]
        slice_spec = session.reconfigure_components(partial, some)
        for instance in slice_spec:
            assert instance == full[instance.id]
        assert set(some) <= set(slice_spec.ids())

    def test_cold_call_configures_first(self):
        registry = standard_registry()
        session = ConfigurationSession(
            registry, partition=True, verify_registry=False
        )
        partial = fleet_partial(TOPOLOGY)
        full = (
            ConfigurationSession(
                registry, partition=True, verify_registry=False
            )
            .configure(partial)
            .spec
        )
        slice_spec = session.reconfigure_components(
            partial, [full.ids()[0]]
        )
        assert all(i == full[i.id] for i in slice_spec)

    def test_unknown_instance_rejected(self):
        registry = standard_registry()
        session = ConfigurationSession(
            registry, partition=True, verify_registry=False
        )
        partial = fleet_partial(TOPOLOGY)
        session.configure(partial)
        with pytest.raises(ConfigurationError, match="not in the"):
            session.reconfigure_components(partial, ["nonexistent"])

    def test_empty_ids_rejected(self):
        registry = standard_registry()
        session = ConfigurationSession(
            registry, partition=True, verify_registry=False
        )
        with pytest.raises(ConfigurationError, match="at least one"):
            session.reconfigure_components(
                fleet_partial(TOPOLOGY), []
            )


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
        assert payload["journal"]["diff"] == {
            "missing": [], "extra": [], "failed": [], "skipped": [],
        }
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
