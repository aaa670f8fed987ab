"""A three-tier topology: web node, worker node, database node.

Exercises cross-machine peer dependencies in both directions (the app
talks to MySQL and RabbitMQ; Celery on its own node talks to RabbitMQ on
the web node), machine wave ordering, and the monitor across machines.
"""

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.django import package_application, table1_apps
from repro.runtime import (
    BusCoordinator,
    DeploymentEngine,
    ReconcileController,
    machine_waves,
    provision_partial_spec,
)


@pytest.fixture
def three_tier(registry, infrastructure):
    webapp = next(a for a in table1_apps() if a.name == "WebApp")
    key = package_application(webapp, registry, infrastructure)
    partial = PartialInstallSpec(
        [
            PartialInstance("webnode", as_key("Ubuntu-Linux 10.04"),
                            config={"hostname": "web"}),
            PartialInstance("worknode", as_key("Ubuntu-Linux 10.04"),
                            config={"hostname": "work"}),
            PartialInstance("dbnode", as_key("Ubuntu-Linux 10.04"),
                            config={"hostname": "db"}),
            PartialInstance("app", key, inside_id="webnode"),
            PartialInstance("web", as_key("Gunicorn 0.13"),
                            inside_id="webnode"),
            PartialInstance("queue", as_key("RabbitMQ 2.7"),
                            inside_id="worknode"),
            PartialInstance("worker", as_key("Celery 2.4"),
                            inside_id="worknode"),
            PartialInstance("db", as_key("MySQL 5.1"),
                            inside_id="dbnode"),
        ]
    )
    partial = provision_partial_spec(registry, partial, infrastructure)
    return ConfigurationEngine(
        registry, verify_registry=False
    ).configure(partial).spec


class TestTopology:
    def test_worker_uses_pinned_celery(self, three_tier):
        """The app's Celery peer dependency matches the pinned worker on
        the worker node (peer deps cross machines)."""
        app = three_tier["app"]
        celery_targets = [
            l.target.id for l in app.peers
            if l.target.key.name == "Celery"
        ]
        assert celery_targets == ["worker"]

    def test_worker_brokers_locally(self, three_tier):
        worker = three_tier["worker"]
        assert worker.inputs["broker"]["host"] == "work"

    def test_app_db_on_db_node(self, three_tier):
        assert three_tier["app"].inputs["database"]["host"] == "db"

    def test_wave_structure(self, three_tier):
        waves = machine_waves(three_tier)
        flat = [m for wave in waves for m in wave]
        # dbnode and worknode have no cross-machine prerequisites; the
        # web node depends on both (app -> db, app -> worker).
        assert set(waves[0]) == {"dbnode", "worknode"}
        assert flat[-1] == "webnode"

    def test_instance_order(self, three_tier):
        order = [i.id for i in three_tier.topological_order()]
        assert order.index("queue") < order.index("worker")
        assert order.index("worker") < order.index("app")
        assert order.index("db") < order.index("app")


class TestDeployment:
    def test_full_three_tier_deploys(
        self, registry, infrastructure, drivers, three_tier
    ):
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        deployment = coordinator.deploy(three_tier)
        assert deployment.is_deployed()
        # Agents on all three hosts.
        assert sorted(deployment.report.agents_installed) == [
            "db", "web", "work",
        ]
        # Cross-machine connectivity in every direction used.
        assert infrastructure.network.can_connect("db", 3306)
        assert infrastructure.network.can_connect("work", 5672)
        assert infrastructure.network.can_connect("web", 8000)

    def test_monitor_spans_machines(
        self, registry, infrastructure, drivers, three_tier
    ):
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        deployment = coordinator.deploy(three_tier)
        # One reconcile loop over the whole fleet; fail the db and
        # restart it.
        engine = DeploymentEngine(registry, infrastructure, drivers)
        deployment.driver("db").process.fail()
        round_ = ReconcileController(engine, deployment).poll()
        assert round_.converged and round_.plan_by_op == {"restart": 1}
        last = deployment.journal.entries[-1]
        assert (last.instance_id, last.action) == ("db", "restart")
        assert infrastructure.network.can_connect("db", 3306)

    def test_machine_cycle_refused(self, registry, infrastructure, drivers):
        """The paper's documented limitation: if two machines depend on
        each other, the coordinator refuses rather than deadlocking."""
        from repro.core.errors import DeploymentError
        from repro.django import package_application, table1_apps

        webapp = next(a for a in table1_apps() if a.name == "WebApp")
        key = package_application(webapp, registry, infrastructure)
        partial = PartialInstallSpec(
            [
                PartialInstance("m1", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "c1"}),
                PartialInstance("m2", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "c2"}),
                PartialInstance("app", key, inside_id="m1"),
                PartialInstance("web", as_key("Gunicorn 0.13"),
                                inside_id="m1"),
                # The broker on m2 while the worker sits on... m2 needs
                # nothing from m1 -- build the cycle explicitly instead:
                # app(m1) -> worker(m2), worker(m2) -> queue(m1).
                PartialInstance("queue", as_key("RabbitMQ 2.7"),
                                inside_id="m1"),
                PartialInstance("worker", as_key("Celery 2.4"),
                                inside_id="m2"),
                PartialInstance("db", as_key("MySQL 5.1"),
                                inside_id="m1"),
            ]
        )
        partial = provision_partial_spec(registry, partial, infrastructure)
        spec = ConfigurationEngine(
            registry, verify_registry=False
        ).configure(partial).spec
        with pytest.raises(DeploymentError):
            machine_waves(spec)
