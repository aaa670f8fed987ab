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
