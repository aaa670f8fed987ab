"""Monitoring: spec injection, config generation, and the monit pass
(a reconcile round that restarts crashed services)."""

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.config import ConfigurationEngine
from repro.runtime import (
    DeploymentEngine,
    MONIT_KEY,
    ProcessMonitor,
    ReconcileController,
    add_monitoring,
    provision_partial_spec,
)


@pytest.fixture
def monitored_system(registry, infrastructure, drivers, openmrs_partial):
    partial = provision_partial_spec(registry, openmrs_partial, infrastructure)
    partial = add_monitoring(registry, partial)
    spec = ConfigurationEngine(registry).configure(partial).spec
    system = DeploymentEngine(registry, infrastructure, drivers).deploy(spec)
    return system


class TestInjection:
    def test_monit_instance_per_machine(self, registry, openmrs_partial):
        augmented = add_monitoring(registry, openmrs_partial)
        monits = [i for i in augmented if i.key == MONIT_KEY]
        assert len(monits) == 1
        assert monits[0].inside_id == "server"

    def test_multi_machine_injection(self, registry):
        partial = PartialInstallSpec(
            [
                PartialInstance("a", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "a"}),
                PartialInstance("b", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "b"}),
            ]
        )
        augmented = add_monitoring(registry, partial)
        monits = [i for i in augmented if i.key == MONIT_KEY]
        assert {m.inside_id for m in monits} == {"a", "b"}

    def test_monit_itself_deployed(self, monitored_system):
        assert "monit_server" in monitored_system.spec
        assert monitored_system.state_of("monit_server") == "active"


class TestConfigGeneration:
    def test_monitrc_written(self, monitored_system, infrastructure):
        monitor = ProcessMonitor(monitored_system)
        written = monitor.generate_config()
        machine = infrastructure.network.machine("demotest")
        content = machine.fs.read_file("/etc/monitrc")
        assert "check process" in content
        assert "mysqld-mysql" in content
        assert f"demotest:/etc/monitrc" in written

    def test_watched_services_are_daemons(self, monitored_system):
        monitor = ProcessMonitor(monitored_system)
        watched = monitor.watched_services()
        assert "mysql" in watched
        assert "tomcat" in watched
        assert "server" not in watched  # machines are not processes


@pytest.fixture
def monit_pass(monitored_system, registry, infrastructure, drivers):
    """One reconcile round over the monitored system; returns the
    instances it journalled a ``restart`` for, in order."""
    engine = DeploymentEngine(registry, infrastructure, drivers)

    def run():
        before = len(monitored_system.journal.entries)
        round_ = ReconcileController(
            engine, monitored_system, interval=0.0
        ).poll()
        assert round_.converged
        return [
            entry.instance_id
            for entry in monitored_system.journal.entries[before:]
            if entry.action == "restart"
        ]

    return run


class TestWatchdog:
    """The monit pass is a reconcile round whose drift is crashed
    services: each comes back through its driver's ``restart``
    transition, and the journal's ``restart`` entries are the record."""

    def test_restart_failed_service(self, monitored_system, monit_pass,
                                    infrastructure):
        monitored_system.driver("mysql").process.fail()
        assert not infrastructure.network.can_connect("demotest", 3306)
        assert monit_pass() == ["mysql"]
        assert infrastructure.network.can_connect("demotest", 3306)
        assert monitored_system.driver("mysql").process.is_running()

    def test_quiet_poll_no_events(self, monitored_system, monit_pass):
        before = list(monitored_system.journal.entries)
        assert monit_pass() == []
        assert monitored_system.journal.entries == before

    def test_multiple_failures_one_pass(self, monitored_system, monit_pass):
        monitored_system.driver("mysql").process.fail()
        monitored_system.driver("tomcat").process.fail()
        assert sorted(monit_pass()) == ["mysql", "tomcat"]

    def test_event_log_accumulates(self, monitored_system, monit_pass):
        for _ in range(2):
            monitored_system.driver("mysql").process.fail()
            monit_pass()
        restarts = [
            entry for entry in monitored_system.journal.entries
            if entry.action == "restart" and entry.instance_id == "mysql"
        ]
        assert len(restarts) == 2
