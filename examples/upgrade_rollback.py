#!/usr/bin/env python
"""Application upgrades with rollback (S6.2, the FA case study).

Deploy FA v1, load production data, upgrade to v2 (a South-style schema
migration adds a column while preserving rows), then attempt an upgrade
to a broken v2.1 whose migration fails -- Engage rolls the system back
to the running v2 with the data intact.

Run:  python examples/upgrade_rollback.py
"""

from __future__ import annotations

from repro import (
    ConfigurationEngine,
    DeploymentEngine,
    PartialInstallSpec,
    PartialInstance,
    UpgradeEngine,
    as_key,
    provision_partial_spec,
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.django import (
    SimDatabase,
    fa_broken_snapshot,
    fa_snapshots,
    package_application,
)


def main() -> None:
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()

    fa_v1, fa_v2 = fa_snapshots()
    fa_bad = fa_broken_snapshot()
    key_v1 = package_application(fa_v1, registry, infrastructure)
    key_v2 = package_application(fa_v2, registry, infrastructure)
    key_bad = package_application(fa_bad, registry, infrastructure)

    config_engine = ConfigurationEngine(registry)
    deploy_engine = DeploymentEngine(registry, infrastructure, drivers)
    upgrader = UpgradeEngine(config_engine, deploy_engine)

    def partial_for(key):
        return provision_partial_spec(
            registry,
            PartialInstallSpec(
                [
                    PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                    config={"hostname": "prod"}),
                    PartialInstance("app", key, inside_id="node"),
                    PartialInstance("web", as_key("Gunicorn 0.13"),
                                    inside_id="node"),
                    PartialInstance("db", as_key("MySQL 5.1"),
                                    inside_id="node"),
                ]
            ),
            infrastructure,
        )

    # -- v1 in production ---------------------------------------------------
    system = deploy_engine.deploy(config_engine.configure(
        partial_for(key_v1)).spec)
    machine = infrastructure.network.machine("prod")
    database = SimDatabase(machine.fs, "/var/lib/mysql/app.json")
    for row_id, name in enumerate(["Ada", "Grace", "Barbara"], start=1):
        database.insert("applicants",
                        {"id": row_id, "name": name, "area": "CS"})
    print(f"FA v1 deployed; schema={database.columns('applicants')}, "
          f"{database.count('applicants')} rows")

    # -- Upgrade to v2 ---------------------------------------------------------
    result = upgrader.upgrade(system, partial_for(key_v2))
    print(f"\nupgrade to v2: succeeded={result.succeeded}")
    print(f"  diff: upgraded={result.diff.upgraded} "
          f"added={result.diff.added}")
    print(f"  schema now: {database.columns('applicants')}")
    print(f"  rows preserved: {database.count('applicants')} "
          f"(decision backfilled: "
          f"{database.rows('applicants')[0]['decision']!r})")

    # -- Broken upgrade to v2.1 ---------------------------------------------------
    result2 = upgrader.upgrade(result.system, partial_for(key_bad))
    print(f"\nupgrade to broken v2.1: succeeded={result2.succeeded}, "
          f"rolled_back={result2.rolled_back}")
    print(f"  error: {result2.error}")
    print(f"  running version after rollback: "
          f"{result2.system.spec['app'].key}")
    print(f"  rows intact: {database.count('applicants')}")
    print(f"  system active: {result2.system.is_deployed()}")


if __name__ == "__main__":
    main()
