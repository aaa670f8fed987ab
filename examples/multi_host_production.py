#!/usr/bin/env python
"""Multi-host production deployment (S5.2 + the WebApp case study).

The production topology of the paper's hosting company: the WebApp
application, Gunicorn, RabbitMQ, Redis, memcached, and Celery on a web
node, with MySQL on a dedicated database node.  The master coordinator
splits the full specification into per-node specs, orders the machines
by cross-machine dependencies (db before web), and runs a slave
deployment per node.

Run:  python examples/multi_host_production.py
"""

from __future__ import annotations

from repro import (
    BusCoordinator,
    ConfigurationEngine,
    PartialInstallSpec,
    PartialInstance,
    as_key,
    provision_partial_spec,
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.django import package_application, table1_apps
from repro.runtime import machine_waves, split_spec


def main() -> None:
    registry = standard_registry()
    infrastructure = standard_infrastructure()

    webapp = next(app for app in table1_apps() if app.name == "WebApp")
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
            PartialInstance("db", as_key("MySQL 5.1"), inside_id="dbnode"),
        ]
    )
    partial = provision_partial_spec(registry, partial, infrastructure)
    result = ConfigurationEngine(registry).configure(partial)
    spec = result.spec
    print(f"user wrote {len(partial)} instances; "
          f"engine produced {len(spec)}")

    # -- The coordination plan --------------------------------------------
    print("\nper-node specifications:")
    for machine_id, sub_spec in sorted(split_spec(spec).items()):
        print(f"  {machine_id}: {sorted(sub_spec.ids())}")
    print("machine waves (parallel groups):", machine_waves(spec))

    # -- Deploy -------------------------------------------------------------
    coordinator = BusCoordinator(
        registry, infrastructure, standard_drivers()
    )
    deployment = coordinator.deploy(spec)
    print(f"\ndeployed: {deployment.is_deployed()}")
    report = deployment.report
    for machine_id, seconds in sorted(report.per_machine_seconds.items()):
        print(f"  {machine_id}: {seconds / 60:.1f} simulated minutes")
    print(f"sequential total : {report.sequential_seconds / 60:.1f} min")
    print(f"parallel makespan: {report.parallel_makespan_seconds / 60:.1f} min")

    # The app on www1 reaches MySQL on db1 across the simulated network.
    print("\ncross-machine connectivity:")
    print("  www1 -> db1:3306 :",
          infrastructure.network.can_connect("db1", 3306))
    print("  app URL          :", spec["app"].outputs["url"])
    print("  db host seen by app:",
          spec["app"].inputs["database"]["host"])

    coordinator.engine.shutdown(deployment)
    print("\nafter shutdown:", sorted(set(deployment.states().values())))


if __name__ == "__main__":
    main()
