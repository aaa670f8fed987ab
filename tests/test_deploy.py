"""The deployment engine: install/start in order, guards, shutdown."""

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import DeploymentError, GuardError
from repro.config import ConfigurationEngine
from repro.drivers import ACTIVE, INACTIVE, UNINSTALLED
from repro.runtime import DeploymentEngine


@pytest.fixture
def openmrs_spec(registry, openmrs_partial):
    return ConfigurationEngine(registry).configure(openmrs_partial).spec


@pytest.fixture
def deploy(registry, infrastructure, drivers):
    return DeploymentEngine(registry, infrastructure, drivers)


class TestDeploy:
    def test_everything_active(self, deploy, openmrs_spec):
        system = deploy.deploy(openmrs_spec)
        assert system.is_deployed()
        assert set(system.states().values()) == {ACTIVE}

    def test_services_listening(self, deploy, openmrs_spec, infrastructure):
        deploy.deploy(openmrs_spec)
        assert infrastructure.network.can_connect("demotest", 3306)
        assert infrastructure.network.can_connect("demotest", 8080)

    def test_dependency_order_in_report(self, deploy, openmrs_spec):
        system = deploy.deploy(openmrs_spec)
        starts = [
            a.instance_id
            for a in system.report.actions
            if a.action == "start"
        ]
        assert starts.index("mysql") < starts.index("openmrs")
        assert starts.index("tomcat") < starts.index("openmrs")

    def test_makespan_not_more_than_sequential(self, deploy, openmrs_spec):
        system = deploy.deploy(openmrs_spec)
        assert (
            system.report.makespan_seconds
            <= system.report.sequential_seconds + 1e-9
        )
        assert system.report.makespan_seconds > 0

    def test_deploy_is_idempotent(self, deploy, openmrs_spec):
        system = deploy.deploy(openmrs_spec)
        again = deploy.start(system)
        assert again.actions == []  # already active, nothing to do

    def test_machine_auto_created(self, deploy, openmrs_spec, infrastructure):
        assert not infrastructure.network.has_machine("demotest")
        deploy.deploy(openmrs_spec)
        assert infrastructure.network.has_machine("demotest")

    def test_missing_hostname_rejected(self, registry, infrastructure, drivers):
        import dataclasses

        spec = ConfigurationEngine(registry).configure(
            PartialInstallSpec(
                [
                    PartialInstance(
                        "server", as_key("Mac-OSX 10.6"),
                        config={"hostname": "h"},
                    )
                ]
            )
        ).spec
        server = spec["server"]
        broken = dataclasses.replace(
            server, config={**server.config, "hostname": ""}, outputs={}
        )
        from repro.core import InstallSpec

        bad_spec = InstallSpec([broken])
        engine = DeploymentEngine(registry, infrastructure, drivers)
        with pytest.raises(DeploymentError):
            engine.deploy(bad_spec)


class TestShutdown:
    def test_reverse_order(self, deploy, openmrs_spec):
        system = deploy.deploy(openmrs_spec)
        report = deploy.shutdown(system)
        stops = [
            a.instance_id for a in report.actions if a.action == "stop"
        ]
        assert stops.index("openmrs") < stops.index("tomcat")
        assert stops.index("openmrs") < stops.index("mysql")
        assert all(s == INACTIVE for s in system.states().values())

    def test_ports_released(self, deploy, openmrs_spec, infrastructure):
        system = deploy.deploy(openmrs_spec)
        deploy.shutdown(system)
        assert not infrastructure.network.can_connect("demotest", 3306)

    def test_restart_after_shutdown(self, deploy, openmrs_spec):
        system = deploy.deploy(openmrs_spec)
        deploy.shutdown(system)
        deploy.start(system)
        assert system.is_deployed()


class TestUninstall:
    def test_everything_uninstalled(self, deploy, openmrs_spec):
        system = deploy.deploy(openmrs_spec)
        deploy.uninstall(system)
        assert all(s == UNINSTALLED for s in system.states().values())

    def test_packages_removed(self, deploy, openmrs_spec, infrastructure):
        system = deploy.deploy(openmrs_spec)
        machine = infrastructure.network.machine("demotest")
        pm = infrastructure.package_manager(machine)
        assert pm.is_installed("tomcat")
        deploy.uninstall(system)
        assert not pm.is_installed("tomcat")


class TestGuards:
    def test_out_of_order_start_raises_guard_error(self, deploy, openmrs_spec):
        """Manually starting a dependent before its dependencies must be
        caught by the runtime's guard check."""
        machines = deploy._resolve_machines(openmrs_spec)
        drivers = deploy._create_drivers(openmrs_spec, machines)
        from repro.runtime.deploy import DeployedSystem

        system = DeployedSystem(
            openmrs_spec, deploy.registry, deploy.infrastructure,
            drivers, machines,
        )
        # Install everything (unguarded), then try to start openmrs while
        # its upstreams are still inactive.
        for instance in openmrs_spec.topological_order():
            drivers[instance.id].perform("install")
        driver = drivers["openmrs"]
        transition = driver.machine_spec.find(driver.state, "start")
        with pytest.raises(GuardError):
            deploy._check_guard(system, "openmrs", transition)

    def test_stop_guard_blocks_while_dependents_active(
        self, deploy, openmrs_spec
    ):
        system = deploy.deploy(openmrs_spec)
        driver = system.driver("mysql")
        transition = driver.machine_spec.find(driver.state, "stop")
        with pytest.raises(GuardError):
            deploy._check_guard(system, "mysql", transition)
