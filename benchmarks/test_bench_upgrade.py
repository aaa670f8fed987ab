"""E9 -- the FA upgrade experiment (S6.2).

Paper: two FA production snapshots four months apart, with UI, logic,
and database schema changes; South migrations upgrade in place while
"preserving the content in the database"; an injected error in the
second version makes the upgrade fail and "Engage automatically rolls
back to the prior application version".
"""

from __future__ import annotations

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.django import (
    SimDatabase,
    fa_broken_snapshot,
    fa_snapshots,
    package_application,
)
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import (
    DeploymentEngine,
    UpgradeEngine,
    provision_partial_spec,
)


def build_world():
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()
    fa_v1, fa_v2 = fa_snapshots()
    key_v1 = package_application(fa_v1, registry, infrastructure)
    key_v2 = package_application(fa_v2, registry, infrastructure)
    key_bad = package_application(
        fa_broken_snapshot(), registry, infrastructure
    )
    config_engine = ConfigurationEngine(registry, verify_registry=False)
    deploy_engine = DeploymentEngine(registry, infrastructure, drivers)

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
    machine = infrastructure.network.machine("prod")
    database = SimDatabase(machine.fs, "/var/lib/mysql/app.json")
    for row_id, name in enumerate(["Ada", "Grace", "Barbara"], start=1):
        database.insert(
            "applicants", {"id": row_id, "name": name, "area": "CS"}
        )
    upgrader = UpgradeEngine(config_engine, deploy_engine)
    return {
        "system": system,
        "database": database,
        "partial_for": partial_for,
        "keys": {"v1": key_v1, "v2": key_v2, "bad": key_bad},
        "upgrader": upgrader,
        "infrastructure": infrastructure,
    }


def test_e9_successful_upgrade_preserves_data(benchmark):
    def run():
        world = build_world()
        result = world["upgrader"].upgrade(
            world["system"], world["partial_for"](world["keys"]["v2"])
        )
        return world, result

    world, result = benchmark.pedantic(run, rounds=1, iterations=1)
    database = world["database"]
    benchmark.extra_info.update(
        {
            "succeeded": result.succeeded,
            "upgraded": result.diff.upgraded,
            "added": result.diff.added,
            "columns_after": database.columns("applicants"),
            "rows_after": database.count("applicants"),
        }
    )
    assert result.succeeded and not result.rolled_back
    assert "decision" in database.columns("applicants")
    assert database.count("applicants") == 3  # content preserved
    assert all(
        row["decision"] == "pending" for row in database.rows("applicants")
    )
    assert result.system.is_deployed()


def test_e9_failed_upgrade_rolls_back(benchmark):
    def run():
        world = build_world()
        result = world["upgrader"].upgrade(
            world["system"], world["partial_for"](world["keys"]["bad"])
        )
        return world, result

    world, result = benchmark.pedantic(run, rounds=1, iterations=1)
    database = world["database"]
    benchmark.extra_info.update(
        {
            "succeeded": result.succeeded,
            "rolled_back": result.rolled_back,
            "error": result.error,
            "app_version_after": str(
                result.system.spec["app"].key.version
            ),
            "rows_after": database.count("applicants"),
        }
    )
    assert not result.succeeded
    assert result.rolled_back
    assert str(result.system.spec["app"].key.version) == "1.0"
    assert database.count("applicants") == 3  # restored from backup
    assert result.system.is_deployed()


def test_ablation_delta_vs_replace(benchmark):
    """The optimisation the paper leaves as future work ("We leave
    optimizations of the upgrade framework as future work"): the delta
    strategy only touches changed instances and their dependents.
    For the small FA diff it should beat the worst-case replace strategy
    by a wide margin of simulated time."""

    def run(strategy):
        world = build_world()
        infrastructure = world["infrastructure"]
        before = infrastructure.clock.now
        result = world["upgrader"].upgrade(
            world["system"],
            world["partial_for"](world["keys"]["v2"]),
            strategy=strategy,
        )
        assert result.succeeded
        return infrastructure.clock.now - before

    def both():
        return run("replace"), run("delta")

    replace_seconds, delta_seconds = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "replace_simulated_seconds": round(replace_seconds, 1),
            "delta_simulated_seconds": round(delta_seconds, 1),
            "speedup": round(replace_seconds / delta_seconds, 1),
        }
    )
    assert delta_seconds < replace_seconds / 3


def test_e9_worst_case_upgrade_time(benchmark):
    """The paper's admitted limitation: "all upgrades using this approach
    experience the worst case upgrade time" -- an upgrade costs about as
    much simulated time as a fresh deploy, even for a small diff."""

    def run():
        world = build_world()
        infrastructure = world["infrastructure"]
        before = infrastructure.clock.now
        world["upgrader"].upgrade(
            world["system"], world["partial_for"](world["keys"]["v2"])
        )
        upgrade_seconds = infrastructure.clock.now - before
        return upgrade_seconds

    upgrade_seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["upgrade_simulated_seconds"] = round(
        upgrade_seconds, 1
    )
    # Worst-case: a full stop + uninstall + redeploy, i.e. minutes of
    # simulated time, not the seconds an in-place no-op would cost.
    assert upgrade_seconds > 60
