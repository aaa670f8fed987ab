#!/usr/bin/env python
"""The Django platform-as-a-service scenario (S6.2).

Package a third-party Django application (Buzzfire, from Table 1) with
the application packager, deploy it to a cloud-provisioned server with
the stack choices of the paper (Gunicorn + MySQL + Redis), inject
monitoring, and show a reconcile round -- the monit pass -- restarting a
crashed service.

Run:  python examples/django_paas.py
"""

from __future__ import annotations

from repro import (
    ConfigurationEngine,
    DeploymentEngine,
    PartialInstallSpec,
    PartialInstance,
    ProcessMonitor,
    add_monitoring,
    as_key,
    provision_partial_spec,
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.django import SimDatabase, package_application, table1_apps
from repro.runtime import ReconcileController


def main() -> None:
    registry = standard_registry()
    infrastructure = standard_infrastructure()  # includes a cloud provider

    # -- 1. Package the application (validates + generates a type) -------
    buzzfire = next(app for app in table1_apps() if app.name == "Buzzfire")
    app_key = package_application(buzzfire, registry, infrastructure)
    print(f"packaged {buzzfire.name!r} -> resource type {app_key}")
    print(f"  pip dependencies: {[p for p, _ in buzzfire.pip_packages]}")
    print(f"  uses redis: {buzzfire.uses_redis}")
    print()

    # -- 2. Partial spec with NO hostname: the cloud provides one --------
    partial = PartialInstallSpec(
        [
            PartialInstance("node", as_key("Ubuntu-Linux 10.04")),
            PartialInstance("app", app_key, inside_id="node"),
            PartialInstance("web", as_key("Gunicorn 0.13"),
                            inside_id="node"),
            PartialInstance("db", as_key("MySQL 5.1"), inside_id="node"),
        ]
    )
    partial = provision_partial_spec(registry, partial, infrastructure)
    hostname = partial["node"].config["hostname"]
    print(f"cloud provisioned server: {hostname}")

    # -- 3. Monitoring plugin injects monit per host ----------------------
    partial = add_monitoring(registry, partial)

    # -- 4. Configure + deploy --------------------------------------------
    result = ConfigurationEngine(registry).configure(partial)
    print(f"full specification: {len(result.spec)} instances "
          f"(user wrote {4})")
    deploy = DeploymentEngine(registry, infrastructure, standard_drivers())
    system = deploy.deploy(result.spec)
    print(f"deployed: {system.is_deployed()}")
    print(f"app URL : {result.spec['app'].outputs['url']}")

    machine = infrastructure.network.machine(hostname)
    database = SimDatabase(machine.fs, "/var/lib/mysql/app.json")
    print(f"migrated tables: {database.tables()}")
    print()

    # -- 5. The monit pass: one reconcile round ---------------------------
    monitor = ProcessMonitor(system)
    monitor.generate_config()
    print("monit watches:", ", ".join(monitor.watched_services()))
    redis_id = next(i.id for i in result.spec if i.key.name == "Redis")
    process = system.driver(redis_id).process
    print(f"killing {process.name} (pid {process.pid})...")
    process.fail()
    before = len(system.journal.entries)
    ReconcileController(deploy, system, interval=0.0).poll()
    for entry in system.journal.entries[before:]:
        print(f"  reconcile: {entry.action} {entry.instance_id} "
              f"at t={entry.timestamp:.0f}s")
    print("redis reachable again:",
          infrastructure.network.can_connect(hostname, 6379))


if __name__ == "__main__":
    main()
