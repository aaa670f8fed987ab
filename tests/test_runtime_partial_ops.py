"""The deployment engine's partial operations (prepare / drive_instances
down and up / start), the pieces every live transition composes."""

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.drivers import ACTIVE, INACTIVE, UNINSTALLED
from repro.runtime import DeploymentEngine


def stop(engine, system, ids):
    return engine.drive_instances(system, ids, INACTIVE, reverse=True)


def uninstall(engine, system, ids):
    return engine.drive_instances(system, ids, UNINSTALLED, reverse=True)


@pytest.fixture
def spec(registry, openmrs_partial):
    return ConfigurationEngine(registry).configure(openmrs_partial).spec


@pytest.fixture
def engine(registry, infrastructure, drivers):
    return DeploymentEngine(registry, infrastructure, drivers)


class TestPrepare:
    def test_prepare_performs_no_actions(self, engine, spec, infrastructure):
        before = infrastructure.clock.now
        system = engine.prepare(spec)
        assert infrastructure.clock.now == before
        assert set(system.states().values()) == {UNINSTALLED}

    def test_prepare_reuses_drivers(self, engine, spec):
        original = engine.deploy(spec)
        mysql_driver = original.driver("mysql")
        rebuilt = engine.prepare(
            spec, reuse_drivers={"mysql": mysql_driver}
        )
        assert rebuilt.driver("mysql") is mysql_driver
        assert rebuilt.state_of("mysql") == ACTIVE
        assert rebuilt.state_of("tomcat") == UNINSTALLED

    def test_reuse_ignores_unknown_ids(self, engine, spec):
        original = engine.deploy(spec)
        rebuilt = engine.prepare(
            spec, reuse_drivers={"ghost": original.driver("mysql")}
        )
        assert "ghost" not in rebuilt.drivers


class TestStopInstances:
    def test_stops_only_requested(self, engine, spec):
        system = engine.deploy(spec)
        stop(engine, system, {"openmrs"})
        assert system.state_of("openmrs") == INACTIVE
        assert system.state_of("tomcat") == ACTIVE
        assert system.state_of("mysql") == ACTIVE

    def test_respects_reverse_order(self, engine, spec):
        system = engine.deploy(spec)
        report = stop(engine, system, {"openmrs", "tomcat"})
        stops = [a.instance_id for a in report.actions
                 if a.action == "stop"]
        assert stops == ["openmrs", "tomcat"]

    def test_guard_violation_when_closure_incomplete(self, engine, spec):
        from repro.core.errors import GuardError

        system = engine.deploy(spec)
        # Stopping tomcat alone violates down(inactive): openmrs active.
        with pytest.raises(GuardError):
            stop(engine, system, {"tomcat"})

    def test_report_has_makespan(self, engine, spec):
        system = engine.deploy(spec)
        report = stop(engine, system, {"openmrs", "tomcat"})
        assert report.makespan_seconds > 0.0
        assert report.makespan_seconds <= report.sequential_seconds


class TestUninstallInstances:
    def test_report_has_makespan(self, engine, spec):
        system = engine.deploy(spec)
        stop(engine, system, {"openmrs"})
        report = uninstall(engine, system, {"openmrs"})
        assert report.makespan_seconds > 0.0
        assert report.makespan_seconds <= report.sequential_seconds

    def test_selected_removal(self, engine, spec, infrastructure):
        system = engine.deploy(spec)
        stop(engine, system, {"openmrs"})
        uninstall(engine, system, {"openmrs"})
        assert system.state_of("openmrs") == UNINSTALLED
        machine = infrastructure.network.machine("demotest")
        manager = infrastructure.package_manager(machine)
        assert not manager.is_installed("openmrs")
        assert manager.is_installed("tomcat")


class TestActivate:
    def test_reactivates_stopped_subset(self, engine, spec):
        system = engine.deploy(spec)
        stop(engine, system, {"openmrs"})
        report = engine.start(system)
        assert system.is_deployed()
        # Only openmrs needed a start.
        starts = [a.instance_id for a in report.actions
                  if a.action == "start"]
        assert starts == ["openmrs"]

    def test_activate_on_fresh_system_deploys(self, engine, spec):
        system = engine.prepare(spec)
        report = engine.start(system)
        assert system.is_deployed()
        assert {a.instance_id for a in report.actions} == set(spec.ids())


class TestDownIsStateFiltered:
    """Regression: ``shutdown``/``uninstall`` drove every instance to
    ``inactive`` first -- on a system that was not fully deployed that
    *installed* what was missing, merely to stop and remove it."""

    def test_never_deployed_system_is_left_alone(
        self, engine, spec, infrastructure
    ):
        system = engine.prepare(spec)
        before = infrastructure.clock.now
        assert engine.shutdown(system).actions == []
        assert engine.uninstall(system).actions == []
        assert infrastructure.clock.now == before
        assert set(system.states().values()) == {UNINSTALLED}

    def test_half_deployed_system_only_goes_down(
        self, engine, spec, infrastructure
    ):
        from repro.core.errors import DeploymentFailure
        from repro.sim import FaultPlan, FaultyWorld

        FaultyWorld(
            infrastructure,
            FaultPlan().on("driver:openmrs:install", times=100),
        )
        with pytest.raises(DeploymentFailure) as excinfo:
            engine.deploy(spec)
        system = excinfo.value.system
        assert system.state_of("openmrs") == UNINSTALLED
        assert system.state_of("tomcat") == ACTIVE
        stopped = engine.shutdown(system)
        assert {a.action for a in stopped.actions} == {"stop"}
        assert ACTIVE not in system.states().values()
        removed = engine.uninstall(system)
        assert {a.action for a in removed.actions} == {"uninstall"}
        assert set(system.states().values()) == {UNINSTALLED}


SETTINGS = ("policy", "retry_policy", "jobs", "jobs_per_host")


class TestEngineIsTheExecutionContext:
    """Retry policy and worker bounds are set once, on the engine; every
    pass it runs -- directly or through a planner -- reads them there."""

    @pytest.fixture
    def engine(self, registry, infrastructure, drivers):
        from repro.runtime import RetryPolicy

        return DeploymentEngine(
            registry, infrastructure, drivers,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.1), jobs=2,
        )

    @staticmethod
    def tomcat_on(registry, openmrs_partial, port):
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    p.id, p.key, inside_id=p.inside_id,
                    config={**p.config, "manager_port": port}
                    if p.id == "tomcat" else p.config,
                )
                for p in openmrs_partial
            ]
        )
        return partial, ConfigurationEngine(registry).configure(partial).spec

    def test_every_pass_retries_and_reports_the_bound(
        self, engine, spec, registry, infrastructure, openmrs_partial
    ):
        from repro.core.errors import DeploymentFailure
        from repro.runtime import (
            UpgradeEngine,
            detect_drift,
            execute_delta,
            execute_plan,
            plan_delta,
            plan_repair,
        )
        from repro.sim import FaultPlan

        def once(*sites, times=1):
            plan = FaultPlan()
            for site in sites:
                plan.on(f"driver:{site}", times=times)
            infrastructure.set_fault_plan(plan)
            return plan

        def check(report, plan, faults=1, retried=None):
            assert len(plan.records) == faults  # every one of them fired
            assert report.retries == (retried or faults)
            assert report.jobs == 2

        plan = once("mysql:install")
        system = engine.deploy(spec)
        check(system.report, plan)

        plan = once("openmrs:stop")
        check(engine.drive_down(system, ["openmrs"]), plan)
        plan = once("openmrs:start")
        check(engine.start(system), plan)

        plan = once("tomcat:restart")
        check(engine.restart_instances(system, ["tomcat"]), plan)

        plan = once("mysql:stop")
        check(engine.shutdown(system), plan)
        plan = once("mysql:start")
        check(engine.start(system), plan)
        assert system.is_deployed()

        system.driver("tomcat").process.fail()
        plan = once("tomcat:restart")
        repair = plan_repair(system, detect_drift(system))
        check(
            execute_plan(engine, system, repair),
            plan,
        )

        # Reconfigure tomcat: a down phase (stop closure, uninstall)
        # and an up phase, one transient fault in each.
        _, moved = self.tomcat_on(registry, openmrs_partial, 9090)
        plan = once("openmrs:stop", "tomcat:install")
        result = execute_delta(engine, system, plan_delta(system, moved))
        check(result.report, plan, faults=2)
        system = result.system

        # Move it back, but the teardown fails for good mid-transition;
        # resume finishes the down phase through the one fault left.
        partial, back = self.tomcat_on(registry, openmrs_partial, 8080)
        plan = once("tomcat:uninstall", times=4)
        with pytest.raises(DeploymentFailure) as excinfo:
            execute_delta(engine, system, plan_delta(system, back))
        journal = excinfo.value.journal
        assert journal.transition is not None
        assert plan.pending("driver:tomcat:uninstall") == 1
        system = engine.resume(journal)
        assert plan.pending("driver:tomcat:uninstall") == 0
        assert system.is_deployed() and system.report.jobs == 2

        # Upgrade: the new deploy burns three attempts and fails, the
        # rollback redeploy rides through the remaining two.
        plan = once("mysql:install", times=5)
        upgrader = UpgradeEngine(ConfigurationEngine(registry), engine)
        outcome = upgrader.upgrade(system, partial)
        assert outcome.rolled_back and outcome.system.is_deployed()
        check(outcome.system.report, plan, faults=5, retried=2)

    def test_no_pass_takes_the_settings_per_call(self, engine, spec):
        import inspect

        from repro import cli
        from repro.runtime import (
            BusCoordinator,
            ReconcileController,
            UpgradeEngine,
            coordinator,
            delta,
            execute_delta,
            execute_plan,
            scheduler,
        )

        engine_methods = [
            getattr(DeploymentEngine, name)
            for name in (
                "deploy", "adopt", "resume", "_drive", "_drive_instance",
                "_perform_with_retry", "drive_instances", "drive_down",
                "restart_instances", "shutdown", "start", "uninstall",
            )
        ]
        for function in engine_methods + [
            scheduler.DagScheduler,
            execute_plan, ReconcileController, execute_delta,
            delta.finish_down_phase, UpgradeEngine,
            coordinator._SlaveEngine._perform_with_retry,
            coordinator.SlaveAgent, BusCoordinator.deploy,
            cli._run_deployment, cli._bus_coordinator_from_args,
        ]:
            parameters = inspect.signature(function).parameters
            assert not set(SETTINGS) & set(parameters), function

        system = engine.prepare(spec)
        for removed in SETTINGS:
            for call in (
                lambda **kw: engine.deploy(spec, **kw),
                lambda **kw: engine.drive_down(system, [], **kw),
                lambda **kw: engine.shutdown(system, **kw),
                lambda **kw: ReconcileController(engine, system, **kw),
                lambda **kw: UpgradeEngine(None, engine, **kw),
            ):
                with pytest.raises(TypeError, match=removed):
                    call(**{removed: None})
