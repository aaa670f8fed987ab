"""E11 + the parallel-deployment ablation (S5, Figure 3).

Figure 3's guards are what prevent the "intermittent failure due to
connection errors" hazard: ``start`` requires all upstream dependencies
active, ``stop`` requires all downstream dependents inactive.  These
benchmarks exercise the guard discipline on a live deployment and
measure the sequential-vs-parallel (critical path) deployment cost the
paper's "can be performed in parallel" remark implies.
"""

from __future__ import annotations

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import DriverError, GuardError
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import DeploymentEngine


def openmrs_spec(registry):
    partial = PartialInstallSpec(
        [
            PartialInstance("server", as_key("Mac-OSX 10.6"),
                            config={"hostname": "demotest"}),
            PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                            inside_id="server"),
            PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                            inside_id="tomcat"),
        ]
    )
    return ConfigurationEngine(registry).configure(partial).spec


def test_e11_guarded_deployment(benchmark):
    """Deployment respects the Figure 3 guards: starts happen in
    dependency order and the system ends fully active."""

    def run():
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        system = engine.deploy(openmrs_spec(registry))
        return system

    system = benchmark.pedantic(run, rounds=1, iterations=1)
    starts = [
        a.instance_id for a in system.report.actions if a.action == "start"
    ]
    benchmark.extra_info.update(
        {
            "start_order": starts,
            "sequential_seconds": round(
                system.report.sequential_seconds, 1
            ),
            "makespan_seconds": round(system.report.makespan_seconds, 1),
        }
    )
    assert system.is_deployed()
    assert starts.index("tomcat") < starts.index("openmrs")
    assert starts.index("mysql") < starts.index("openmrs")


def test_e11_unguarded_start_fails_like_the_paper_warns(benchmark):
    """Ignore the guards (start OpenMRS first) and the simulated TCP
    layer produces exactly the connection-refused failure S1 describes."""

    def run():
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        spec = openmrs_spec(registry)
        machines = engine._resolve_machines(spec)
        drivers = engine._create_drivers(spec, machines)
        for instance in spec.topological_order():
            drivers[instance.id].perform("install")
        try:
            drivers["openmrs"].perform("start")  # deps not started
        except DriverError as exc:
            return str(exc)
        return None

    failure = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["failure"] = failure
    assert failure is not None
    assert "not reachable" in failure


def test_ablation_parallel_vs_sequential_makespan(benchmark):
    """Design-choice ablation: the dependency DAG admits parallelism, so
    the critical-path makespan -- which the default one-worker engine
    reports as ``critical_path_seconds`` -- beats the sequential total
    whenever independent siblings exist (MySQL and the Java runtime,
    here)."""

    def run():
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        system = engine.deploy(openmrs_spec(registry))
        return (
            system.report.sequential_seconds,
            system.report.critical_path_seconds,
        )

    sequential, makespan = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "sequential_seconds": round(sequential, 1),
            "parallel_makespan_seconds": round(makespan, 1),
            "speedup": round(sequential / makespan, 2),
        }
    )
    assert makespan < sequential  # real parallelism exists in the DAG
    assert sequential / makespan < 6  # but the chain dominates


def test_measured_parallel_scheduler_hits_critical_path(benchmark):
    """The event-driven scheduler *measures* what the ablation above
    predicts: with unbounded workers the wall-clock makespan lands on
    the critical-path bound exactly, strictly below the sequential
    total."""

    def run():
        results = {}
        for jobs in (1, 2, 4, 0):
            registry = standard_registry()
            infrastructure = standard_infrastructure()
            engine = DeploymentEngine(
                registry, infrastructure, standard_drivers(), jobs=jobs
            )
            system = engine.deploy(openmrs_spec(registry))
            assert system.is_deployed()
            results[jobs] = system.report
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    unbounded = results[0]
    serial = results[1]
    benchmark.extra_info.update(
        {
            "sequential_seconds": round(unbounded.sequential_seconds, 1),
            "makespan_by_jobs": {
                str(jobs): round(report.makespan_seconds, 1)
                for jobs, report in results.items()
            },
            "critical_path_seconds": round(
                unbounded.critical_path_seconds, 1
            ),
            "speedup_unbounded": round(
                unbounded.sequential_seconds / unbounded.makespan_seconds, 2
            ),
        }
    )
    # Acceptance: measured makespan == critical-path bound (1e-6) and
    # strictly < sequential (independent siblings exist).
    assert (
        abs(unbounded.makespan_seconds - unbounded.critical_path_seconds)
        < 1e-6
    )
    assert unbounded.makespan_seconds < unbounded.sequential_seconds
    # One worker measures the sequential total; more workers never hurt.
    assert (
        abs(serial.makespan_seconds - serial.sequential_seconds) < 1e-6
    )
    assert (
        results[4].makespan_seconds
        <= results[2].makespan_seconds + 1e-9
        <= serial.makespan_seconds + 2e-9
    )


def test_measured_parallel_scheduler_django_stack(benchmark):
    """The same acceptance property on a wider topology: the S6.2
    production WebApp stack (23 configured instances over two machines)
    has far more independent siblings than OpenMRS, so parallelism buys
    about 2x."""
    from repro.django import package_application, table1_apps
    from repro.runtime import provision_partial_spec

    def run():
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        webapp = next(a for a in table1_apps() if a.name == "WebApp")
        app_key = package_application(webapp, registry, infrastructure)
        partial = PartialInstallSpec(
            [
                PartialInstance("webnode", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "www1"}),
                PartialInstance("dbnode", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "db1"}),
                PartialInstance("app", app_key, inside_id="webnode"),
                PartialInstance("web", as_key("Gunicorn 0.13"),
                                inside_id="webnode"),
                PartialInstance("db", as_key("MySQL 5.1"),
                                inside_id="dbnode"),
                PartialInstance("queue", as_key("RabbitMQ 2.7"),
                                inside_id="webnode"),
                PartialInstance("mon", as_key("Monit 5.3"),
                                inside_id="webnode"),
            ]
        )
        partial = provision_partial_spec(registry, partial, infrastructure)
        spec = ConfigurationEngine(
            registry, verify_registry=False
        ).configure(partial).spec
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers(), jobs=0
        )
        system = engine.deploy(spec)
        assert system.is_deployed()
        return len(spec), system.report

    size, report = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "instances": size,
            "sequential_seconds": round(report.sequential_seconds, 1),
            "parallel_makespan_seconds": round(report.makespan_seconds, 1),
            "critical_path_seconds": round(
                report.critical_path_seconds, 1
            ),
            "speedup": round(
                report.sequential_seconds / report.makespan_seconds, 2
            ),
        }
    )
    assert (
        abs(report.makespan_seconds - report.critical_path_seconds) < 1e-6
    )
    assert report.makespan_seconds < report.sequential_seconds
    assert report.sequential_seconds / report.makespan_seconds > 1.5


def test_e11_monitor_detects_and_restarts(benchmark):
    """Monitoring keeps the deployed system live: kill a service, poll,
    and the watchdog restores connectivity (the monit integration)."""
    from repro.runtime import ProcessMonitor

    def run():
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        system = engine.deploy(openmrs_spec(registry))
        monitor = ProcessMonitor(system)
        monitor.generate_config()
        system.driver("mysql").process.fail()
        down = not infrastructure.network.can_connect("demotest", 3306)
        events = monitor.poll()
        up = infrastructure.network.can_connect("demotest", 3306)
        return down, len(events), up

    down, events, up = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"went_down": down, "restart_events": events, "back_up": up}
    )
    assert down and events == 1 and up
