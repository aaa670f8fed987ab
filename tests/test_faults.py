"""Fault injection and monitor resilience (chaos-style scenarios)."""

from collections import Counter

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.config import ConfigurationEngine
from repro.django import package_application, table1_apps
from repro.runtime import (
    DeploymentEngine,
    ProcessMonitor,
    ReconcileController,
    provision_partial_spec,
)

#: Twenty rounds of failures: no, one or several services at a time.
CAMPAIGN = [
    ["web"], [], ["db", "web"], ["app"], ["celery", "rabbitmq"],
    [], ["memcached"], ["redis", "db"], ["web"], [],
    ["app", "celery", "db", "memcached", "rabbitmq", "redis", "web"],
    ["db"], [], ["rabbitmq"], ["web", "app"], ["redis"], [],
    ["celery"], ["memcached", "db"], ["web"],
]


@pytest.fixture
def system(registry, infrastructure, drivers):
    webapp = next(a for a in table1_apps() if a.name == "WebApp")
    key = package_application(webapp, registry, infrastructure)
    partial = provision_partial_spec(
        registry,
        PartialInstallSpec(
            [
                PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "chaos"}),
                PartialInstance("app", key, inside_id="node"),
                PartialInstance("web", as_key("Gunicorn 0.13"),
                                inside_id="node"),
                PartialInstance("db", as_key("MySQL 5.1"),
                                inside_id="node"),
            ]
        ),
        infrastructure,
    )
    spec = ConfigurationEngine(registry).configure(partial).spec
    return DeploymentEngine(registry, infrastructure, drivers).deploy(spec)


def kill_and_reconcile(system, engine, victims_per_round):
    """Each round fails the named services' processes, waits 30
    simulated seconds and runs one reconcile round; returns the
    rounds."""
    controller = ReconcileController(engine, system, interval=30.0)
    for victims in victims_per_round:
        for instance_id in victims:
            system.driver(instance_id).process.fail()
        controller.run(rounds=1)
    return controller.rounds


def restart_entries(system):
    return [
        entry.instance_id for entry in system.journal.entries
        if entry.action == "restart"
    ]


class TestMonitorResilience:
    def test_campaign_keeps_system_alive(self, system, registry,
                                         infrastructure, drivers):
        """Twenty rounds of failures: reconcile restarts every victim
        and the full stack ends healthy."""
        ProcessMonitor(system).generate_config()
        engine = DeploymentEngine(registry, infrastructure, drivers)
        rounds = kill_and_reconcile(system, engine, CAMPAIGN)
        assert all(round_.converged for round_ in rounds)
        assert len(restart_entries(system)) == sum(map(len, CAMPAIGN))
        # Everything is running again.
        from repro.drivers.library import ServiceDriver

        for driver in system.drivers.values():
            if isinstance(driver, ServiceDriver):
                assert driver.process is not None
                assert driver.process.is_running()
        # Core endpoints reachable.
        assert infrastructure.network.can_connect("chaos", 3306)
        assert infrastructure.network.can_connect("chaos", 8000)

    def test_restart_counters_accumulate(self, system, registry,
                                         infrastructure, drivers):
        engine = DeploymentEngine(registry, infrastructure, drivers)
        victims = [["db"], [], ["web"], ["db"], ["redis"], [], ["db"]]
        kill_and_reconcile(system, engine, victims)
        # The journal's restart entries are the restart history: one
        # per injected failure, per instance.
        assert Counter(restart_entries(system)) == Counter(
            {"db": 3, "web": 1, "redis": 1}
        )
