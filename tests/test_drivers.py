"""Generic drivers against the simulated infrastructure."""

import pytest

from repro.core import (
    InstallSpec,
    PartialInstallSpec,
    PartialInstance,
    as_key,
)
from repro.core.errors import DriverError
from repro.config import ConfigurationEngine
from repro.drivers import (
    ACTIVE,
    DriverContext,
    DriverRegistry,
    INACTIVE,
    NullDriver,
    PackageDriver,
    ServiceDriver,
    UNINSTALLED,
    package_slug,
)
from repro.runtime import DeploymentEngine


def make_context(registry, infrastructure, spec, instance_id):
    instance = spec[instance_id]
    machine_iid = spec.machine_of(instance_id)
    hostname = spec[machine_iid].config["hostname"]
    if not infrastructure.network.has_machine(hostname):
        infrastructure.add_machine(hostname)
    return DriverContext(
        instance=instance,
        resource_type=registry.effective(instance.key),
        machine=infrastructure.network.machine(hostname),
        infrastructure=infrastructure,
        spec=spec,
    )


@pytest.fixture
def openmrs_spec(registry, openmrs_partial):
    return ConfigurationEngine(registry).configure(openmrs_partial).spec


class TestPackageSlug:
    @pytest.mark.parametrize(
        "name, slug",
        [
            ("Tomcat", "tomcat"),
            ("MySQL-JDBC-Connector", "mysql-jdbc-connector"),
            ("JasperReports-Server", "jasperreports-server"),
            ("Python-Runtime", "python-runtime"),
        ],
    )
    def test_slugs(self, name, slug):
        assert package_slug(name) == slug


class TestNullDriver:
    def test_actions_cost_nothing(self, registry, infrastructure, openmrs_spec):
        context = make_context(
            registry, infrastructure, openmrs_spec, "mysql"
        )
        driver = NullDriver(context)
        before = infrastructure.clock.now
        driver.perform("install")
        assert driver.state == INACTIVE
        assert infrastructure.clock.now == before


class TestPackageDriver:
    def test_install_uses_oslpm(self, registry, infrastructure, openmrs_spec):
        java_id = next(
            i.id for i in openmrs_spec if i.key.name in ("JDK", "JRE")
        )
        context = make_context(registry, infrastructure, openmrs_spec, java_id)
        driver = PackageDriver(context)
        driver.perform("install")
        assert context.package_manager.is_installed(
            package_slug(openmrs_spec[java_id].key.name)
        )
        driver.perform("start")
        assert driver.state == ACTIVE

    def test_uninstall_removes_package(
        self, registry, infrastructure, openmrs_spec
    ):
        java_id = next(
            i.id for i in openmrs_spec if i.key.name in ("JDK", "JRE")
        )
        context = make_context(registry, infrastructure, openmrs_spec, java_id)
        driver = PackageDriver(context)
        driver.perform("install")
        driver.perform("uninstall")
        assert driver.state == UNINSTALLED
        assert not context.package_manager.is_installed("jdk")
        assert not context.package_manager.is_installed("jre")

    def test_wrong_state_transition_rejected(
        self, registry, infrastructure, openmrs_spec
    ):
        java_id = next(
            i.id for i in openmrs_spec if i.key.name in ("JDK", "JRE")
        )
        context = make_context(registry, infrastructure, openmrs_spec, java_id)
        driver = PackageDriver(context)
        with pytest.raises(DriverError):
            driver.perform("start")  # not installed yet


class TestServiceDriver:
    def test_start_spawns_process(self, registry, infrastructure, openmrs_spec):
        context = make_context(registry, infrastructure, openmrs_spec, "mysql")
        driver = ServiceDriver(context)
        driver.perform("install")
        driver.perform("start")
        assert driver.process is not None
        assert driver.process.is_running()
        assert infrastructure.network.can_connect("demotest", 3306)

    def test_stop_kills_process(self, registry, infrastructure, openmrs_spec):
        context = make_context(registry, infrastructure, openmrs_spec, "mysql")
        driver = ServiceDriver(context)
        driver.perform("install")
        driver.perform("start")
        driver.perform("stop")
        assert not infrastructure.network.can_connect("demotest", 3306)
        assert driver.state == INACTIVE

    def test_restart(self, registry, infrastructure, openmrs_spec):
        context = make_context(registry, infrastructure, openmrs_spec, "mysql")
        driver = ServiceDriver(context)
        driver.perform("install")
        driver.perform("start")
        first_pid = driver.process.pid
        driver.perform("restart")
        assert driver.process.pid != first_pid
        assert infrastructure.network.can_connect("demotest", 3306)

    def test_unreachable_dependency_fails_startup(
        self, registry, infrastructure, drivers, openmrs_spec
    ):
        """The paper's intermittent-failure hazard: starting OpenMRS
        before MySQL accepts connections must fail loudly."""
        deploy = DeploymentEngine(registry, infrastructure, drivers)
        machines = deploy._resolve_machines(openmrs_spec)
        all_drivers = deploy._create_drivers(openmrs_spec, machines)
        # Install everything but start nothing.
        for instance in openmrs_spec.topological_order():
            all_drivers[instance.id].perform("install")
        with pytest.raises(DriverError):
            all_drivers["openmrs"].perform("start")


class TestDriverRegistry:
    def test_register_and_create(self, registry, infrastructure, openmrs_spec):
        driver_registry = DriverRegistry()
        driver_registry.register("svc", ServiceDriver)
        context = make_context(registry, infrastructure, openmrs_spec, "mysql")
        driver = driver_registry.create("svc", context)
        assert isinstance(driver, ServiceDriver)

    def test_duplicate_name_rejected(self):
        driver_registry = DriverRegistry()
        driver_registry.register("svc", ServiceDriver)
        with pytest.raises(DriverError):
            driver_registry.register("svc", NullDriver)

    def test_unknown_name(self, registry, infrastructure, openmrs_spec):
        driver_registry = DriverRegistry()
        context = make_context(registry, infrastructure, openmrs_spec, "mysql")
        with pytest.raises(DriverError):
            driver_registry.create("ghost", context)

    def test_standard_names(self, drivers):
        for name in ("machine", "package", "archive", "service", "tomcat",
                     "mysql", "django-app", "monit", "gunicorn"):
            assert drivers.has(name)
