#!/usr/bin/env python
"""Day-2 operations: diagnosis and low-downtime upgrades.

Two extensions built on the paper's machinery:

1. *Unsatisfiability explanation* -- when a partial specification cannot
   be extended, Engage names a minimal set of pinned instances that
   cannot coexist instead of a bare "unsatisfiable".
2. *In-place upgrades* -- the optimisation the paper leaves as future
   work: only changed instances and their transitive dependents stop;
   everything else keeps serving.

Run:  python examples/day2_operations.py
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
from repro.config import explain_message
from repro.django import fa_snapshots, package_application


def main() -> None:
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()

    # ------------------------------------------------------------------
    # 1. Conflict diagnosis: pin BOTH Java runtimes and ask why not.
    # ------------------------------------------------------------------
    conflicted = PartialInstallSpec(
        [
            PartialInstance("server", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h"}),
            PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                            inside_id="server"),
            PartialInstance("jdk_pin", as_key("JDK 1.6"),
                            inside_id="server"),
            PartialInstance("jre_pin", as_key("JRE 1.6"),
                            inside_id="server"),
        ]
    )
    print("=== explain an unsatisfiable specification ===")
    print(explain_message(registry, conflicted))
    print()

    # ------------------------------------------------------------------
    # 2. In-place upgrade of the FA application.
    # ------------------------------------------------------------------
    fa_v1, fa_v2 = fa_snapshots()
    key_v1 = package_application(fa_v1, registry, infrastructure)
    key_v2 = package_application(fa_v2, registry, infrastructure)
    config_engine = ConfigurationEngine(registry, verify_registry=False)
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

    system = deploy_engine.deploy(
        config_engine.configure(partial_for(key_v1)).spec
    )
    mysql_pid = system.driver("db").process.pid
    web_pid = system.driver("web").process.pid
    print("=== in-place upgrade ===")
    print(f"FA v1 live; mysqld pid={mysql_pid}, gunicorn pid={web_pid}")

    before = infrastructure.clock.now
    result = upgrader.upgrade(
        system, partial_for(key_v2), strategy="delta"
    )
    in_place_seconds = infrastructure.clock.now - before
    print(f"upgrade to v2: succeeded={result.succeeded} in "
          f"{in_place_seconds:.0f} simulated seconds")
    print(f"  changed   : {result.diff.upgraded + result.diff.added}")
    print(f"  unchanged : mysqld pid still {result.system.driver('db').process.pid}, "
          f"gunicorn pid still {result.system.driver('web').process.pid}")

    # The worst-case baseline, for contrast.
    registry2 = standard_registry()
    infra2 = standard_infrastructure()
    k1 = package_application(fa_v1, registry2, infra2)
    k2 = package_application(fa_v2, registry2, infra2)
    ce2 = ConfigurationEngine(registry2, verify_registry=False)
    de2 = DeploymentEngine(registry2, infra2, standard_drivers())

    def pf2(key):
        return provision_partial_spec(
            registry2,
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
            infra2,
        )

    system2 = de2.deploy(ce2.configure(pf2(k1)).spec)
    before = infra2.clock.now
    UpgradeEngine(ce2, de2).upgrade(system2, pf2(k2), strategy="replace")
    replace_seconds = infra2.clock.now - before
    print(f"\nworst-case replace strategy: {replace_seconds:.0f} simulated "
          f"seconds ({replace_seconds / in_place_seconds:.0f}x slower)")


if __name__ == "__main__":
    main()
