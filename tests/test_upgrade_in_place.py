"""In-place upgrades (the paper's stated future work), which the
``"delta"`` strategy implements."""

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import UpgradeError
from repro.config import ConfigurationEngine
from repro.django import (
    SimDatabase,
    fa_broken_snapshot,
    fa_snapshots,
    package_application,
)
from repro.runtime import (
    DeploymentEngine,
    UpgradeEngine,
    provision_partial_spec,
)


@pytest.fixture
def world(registry, infrastructure, drivers):
    fa_v1, fa_v2 = fa_snapshots()
    key_v1 = package_application(fa_v1, registry, infrastructure)
    key_v2 = package_application(fa_v2, registry, infrastructure)
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
    database.insert("applicants", {"id": 1, "name": "Ada", "area": "PL"})
    return {
        "system": system,
        "database": database,
        "partial_for": partial_for,
        "key_v2": key_v2,
        "upgrader": UpgradeEngine(config_engine, deploy_engine),
        "infrastructure": infrastructure,
        "registry": registry,
    }


class TestInPlace:
    def test_succeeds_and_migrates(self, world):
        result = world["upgrader"].upgrade(
            world["system"],
            world["partial_for"](world["key_v2"]),
            strategy="delta",
        )
        assert result.succeeded
        assert result.system.is_deployed()
        assert "decision" in world["database"].columns("applicants")
        assert world["database"].count("applicants") == 1

    def test_untouched_services_never_stop(self, world):
        """MySQL and Gunicorn are unchanged AND not downstream of the
        app, so in-place leaves their processes running."""
        mysql_pid = world["system"].driver("db").process.pid
        web_pid = world["system"].driver("web").process.pid
        result = world["upgrader"].upgrade(
            world["system"],
            world["partial_for"](world["key_v2"]),
            strategy="delta",
        )
        assert result.system.driver("db").process.pid == mysql_pid
        assert result.system.driver("web").process.pid == web_pid

    def test_changed_app_is_replaced(self, world):
        old_process = world["system"].driver("app").process
        result = world["upgrader"].upgrade(
            world["system"],
            world["partial_for"](world["key_v2"]),
            strategy="delta",
        )
        new_process = result.system.driver("app").process
        assert new_process is not old_process
        assert str(result.system.spec["app"].key.version) == "2.0"

    def test_much_faster_than_replace(self, world):
        """The whole point: a small diff should cost far less simulated
        time than the worst-case replace strategy."""
        infrastructure = world["infrastructure"]
        before = infrastructure.clock.now
        result = world["upgrader"].upgrade(
            world["system"],
            world["partial_for"](world["key_v2"]),
            strategy="delta",
        )
        in_place_seconds = infrastructure.clock.now - before
        assert result.succeeded

        # Fresh world for the replace baseline.
        from repro.library import (
            standard_drivers,
            standard_infrastructure,
            standard_registry,
        )

        registry = standard_registry()
        infra2 = standard_infrastructure()
        fa_v1, fa_v2 = fa_snapshots()
        k1 = package_application(fa_v1, registry, infra2)
        k2 = package_application(fa_v2, registry, infra2)
        ce = ConfigurationEngine(registry, verify_registry=False)
        de = DeploymentEngine(registry, infra2, standard_drivers())

        def pf(key):
            return provision_partial_spec(
                registry,
                PartialInstallSpec(
                    [
                        PartialInstance("node",
                                        as_key("Ubuntu-Linux 10.04"),
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

        system = de.deploy(ce.configure(pf(k1)).spec)
        before = infra2.clock.now
        UpgradeEngine(ce, de).upgrade(system, pf(k2), strategy="replace")
        replace_seconds = infra2.clock.now - before

        assert in_place_seconds < replace_seconds / 3

    def test_failure_still_rolls_back(self, world):
        key_bad = package_application(
            fa_broken_snapshot(), world["registry"],
            world["infrastructure"],
        )
        result = world["upgrader"].upgrade(
            world["system"],
            world["partial_for"](key_bad),
            strategy="delta",
        )
        assert not result.succeeded
        assert result.rolled_back
        assert result.system.is_deployed()
        assert str(result.system.spec["app"].key.version) == "1.0"
        assert world["database"].count("applicants") == 1

    def test_unknown_strategy_rejected(self, world):
        # "in_place" was a strategy once; the delta planner replaced it.
        for strategy in ("yolo", "in_place"):
            with pytest.raises(UpgradeError):
                world["upgrader"].upgrade(
                    world["system"],
                    world["partial_for"](world["key_v2"]),
                    strategy=strategy,
                )
