"""Fault injection and monitor resilience (chaos-style scenarios)."""

from collections import Counter
from random import Random

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
from repro.sim import FaultInjector


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


def kill_and_reconcile(system, engine, *, seed, rounds, max_failures=2):
    """Each round fails up to ``max_failures`` random services, waits
    30 simulated seconds and runs one reconcile round; returns the
    injector and the rounds."""
    injector = FaultInjector(system, seed=seed)
    counts = Random(seed)
    controller = ReconcileController(engine, system, interval=30.0)
    for _ in range(rounds):
        injector.inject(counts.randint(0, max_failures))
        controller.run(rounds=1)
    return injector, controller.rounds


def restart_entries(system):
    return [
        entry.instance_id for entry in system.journal.entries
        if entry.action == "restart"
    ]


class TestFaultInjector:
    def test_inject_fails_a_running_process(self, system):
        injector = FaultInjector(system, seed=1)
        records = injector.inject(1)
        assert len(records) == 1
        assert records[0].hostname == "chaos"

    def test_records_carry_instance_id(self, system):
        injector = FaultInjector(system, seed=5)
        records = injector.inject(3)
        assert records
        for record in records:
            assert record.instance_id in system.drivers
            driver = system.driver(record.instance_id)
            assert driver.process.name == record.process_name

    def test_deterministic_given_seed(self, registry, infrastructure,
                                      drivers, system):
        a = FaultInjector(system, seed=42).inject(3)
        # Restart the victims so a second injector sees the same world.
        engine = DeploymentEngine(registry, infrastructure, drivers)
        assert ReconcileController(engine, system).poll().converged
        b = FaultInjector(system, seed=42).inject(3)
        assert [r.process_name for r in a] == [r.process_name for r in b]

    def test_inject_zero(self, system):
        injector = FaultInjector(system, seed=0)
        assert injector.inject(0) == []

    def test_inject_caps_at_running_count(self, system):
        injector = FaultInjector(system, seed=0)
        records = injector.inject(10_000)
        # Every service failed, but no more than exist.
        assert 0 < len(records) <= len(system.drivers)


class TestMonitorResilience:
    def test_campaign_keeps_system_alive(self, system, registry,
                                         infrastructure, drivers):
        """Twenty rounds of random failures: reconcile restarts every
        victim and the full stack ends healthy."""
        ProcessMonitor(system).generate_config()
        engine = DeploymentEngine(registry, infrastructure, drivers)
        injector, rounds = kill_and_reconcile(
            system, engine, seed=7, rounds=20
        )
        assert injector.records
        assert all(round_.converged for round_ in rounds)
        assert len(restart_entries(system)) == len(injector.records)
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
        injector, _ = kill_and_reconcile(
            system, engine, seed=3, rounds=10, max_failures=1
        )
        # The journal's restart entries are the restart history: one
        # per injected failure, per instance.
        assert Counter(restart_entries(system)) == Counter(
            record.instance_id for record in injector.records
        )
        assert len(injector.records) > 1
