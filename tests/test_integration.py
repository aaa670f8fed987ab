"""End-to-end scenarios across all layers."""

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import UnsatisfiableError
from repro.config import ConfigurationEngine
from repro.django import SimDatabase, package_application, table1_apps
from repro.runtime import (
    DeploymentEngine,
    ProcessMonitor,
    ReconcileController,
    add_monitoring,
    provision_partial_spec,
)


class TestOpenMrsEndToEnd:
    """The S2 walkthrough, from Figure 2 to a running system."""

    def test_full_lifecycle(self, registry, infrastructure, drivers,
                            openmrs_partial):
        engine = ConfigurationEngine(registry)
        deploy = DeploymentEngine(registry, infrastructure, drivers)

        result = engine.configure(openmrs_partial)
        system = deploy.deploy(result.spec)
        assert system.is_deployed()
        assert infrastructure.network.can_connect("demotest", 8080)

        # The reverse static mapping materialised in Tomcat's server.xml.
        machine = infrastructure.network.machine("demotest")
        server_xml = machine.fs.read_file("/opt/tomcat-6.0.18/conf/server.xml")
        assert "openmrs.xml" in server_xml

        deploy.shutdown(system)
        assert not infrastructure.network.can_connect("demotest", 8080)
        deploy.start(system)
        assert system.is_deployed()


class TestDjangoPlatform:
    def app_partial(self, key, *, webserver="Gunicorn 0.13",
                    database="MySQL 5.1", extras=()):
        instances = [
            PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                            config={"hostname": "web1"}),
            PartialInstance("app", key, inside_id="node"),
            PartialInstance("web", as_key(webserver), inside_id="node"),
            PartialInstance("db", as_key(database), inside_id="node"),
        ]
        for index, extra in enumerate(extras):
            instances.append(
                PartialInstance(f"extra{index}", as_key(extra),
                                inside_id="node")
            )
        return PartialInstallSpec(instances)

    def test_every_table1_app_deploys_without_custom_code(
        self, registry, infrastructure, drivers
    ):
        """Table 1's headline: zero app-specific deployment code."""
        engine = ConfigurationEngine(registry)
        deploy = DeploymentEngine(registry, infrastructure, drivers)
        for index, app in enumerate(table1_apps()):
            key = package_application(app, registry, infrastructure)
            partial = PartialInstallSpec(
                [
                    PartialInstance(
                        f"node{index}", as_key("Ubuntu-Linux 10.04"),
                        config={"hostname": f"host{index}"},
                    ),
                    PartialInstance(f"app{index}", key,
                                    inside_id=f"node{index}"),
                ]
            )
            partial = provision_partial_spec(registry, partial,
                                             infrastructure)
            spec = engine.configure(partial).spec
            system = deploy.deploy(spec)
            assert system.is_deployed(), app.name

    def test_sqlite_configuration(self, registry, infrastructure, drivers):
        app = table1_apps()[0]
        key = package_application(app, registry, infrastructure)
        partial = provision_partial_spec(
            registry,
            self.app_partial(key, database="SQLite 3.7"),
            infrastructure,
        )
        spec = ConfigurationEngine(registry).configure(partial).spec
        assert spec["app"].inputs["database"]["engine"] == "sqlite"
        system = DeploymentEngine(registry, infrastructure, drivers).deploy(
            spec
        )
        assert system.is_deployed()
        machine = infrastructure.network.machine("web1")
        database = SimDatabase(machine.fs, "/var/lib/sqlite/app.json")
        assert "notes" in database.tables()

    def test_apache_configuration(self, registry, infrastructure, drivers):
        app = table1_apps()[0]
        key = package_application(app, registry, infrastructure)
        partial = provision_partial_spec(
            registry,
            self.app_partial(key, webserver="Apache-HTTPD 2.2"),
            infrastructure,
        )
        spec = ConfigurationEngine(registry).configure(partial).spec
        assert spec["app"].inputs["webserver"]["kind"] == "apache"
        assert spec["app"].outputs["url"] == "http://web1:80/"

    def test_conflicting_webserver_pins_unsat(
        self, registry, infrastructure
    ):
        """Pinning both Gunicorn and Apache contradicts the exactly-one
        webserver dependency -- detected statically, before any install."""
        app = table1_apps()[0]
        key = package_application(app, registry, infrastructure)
        partial = self.app_partial(
            key, extras=("Apache-HTTPD 2.2",)
        )  # web (gunicorn) + extra apache
        partial = provision_partial_spec(registry, partial, infrastructure)
        with pytest.raises(UnsatisfiableError):
            ConfigurationEngine(registry).configure(partial)

    def test_monitored_full_stack(self, registry, infrastructure, drivers):
        webapp = next(a for a in table1_apps() if a.name == "WebApp")
        key = package_application(webapp, registry, infrastructure)
        partial = self.app_partial(key)
        partial = provision_partial_spec(registry, partial, infrastructure)
        partial = add_monitoring(registry, partial)
        spec = ConfigurationEngine(registry).configure(partial).spec
        # WebApp pulls redis + memcached + celery + rabbitmq transitively.
        key_names = {i.key.name for i in spec}
        assert {"Redis", "Memcached", "Celery", "RabbitMQ", "Monit"} <= key_names

        engine = DeploymentEngine(registry, infrastructure, drivers)
        system = engine.deploy(spec)
        ProcessMonitor(system).generate_config()
        redis_id = next(i.id for i in spec if i.key.name == "Redis")
        system.driver(redis_id).process.fail()
        before = len(system.journal.entries)
        round_ = ReconcileController(engine, system).poll()
        assert round_.converged and round_.plan_by_op == {"restart": 1}
        assert [
            (entry.instance_id, entry.action)
            for entry in system.journal.entries[before:]
        ] == [(redis_id, "restart")]
        assert system.driver(redis_id).process.is_running()


class TestCostModel:
    def test_cached_install_much_faster(self, registry, drivers):
        """The E4 shape: a cold-internet install takes several times the
        cached install."""
        from repro.library import standard_infrastructure

        def deploy_once(use_cache):
            infrastructure = standard_infrastructure(use_cache=use_cache)
            partial = PartialInstallSpec(
                [
                    PartialInstance("server", as_key("Mac-OSX 10.6"),
                                    config={"hostname": "h"}),
                    PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                                    inside_id="server"),
                    PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                                    inside_id="tomcat"),
                ]
            )
            if use_cache:
                for name, version in (
                    ("jdk", "1.6"), ("jre", "1.6"), ("tomcat", "6.0.18"),
                    ("mysql", "5.1"), ("openmrs", "1.8"),
                ):
                    infrastructure.downloads.prefetch(name, version)
            spec = ConfigurationEngine(registry).configure(partial).spec
            from repro.library import standard_drivers

            DeploymentEngine(
                registry, infrastructure, standard_drivers()
            ).deploy(spec)
            return infrastructure.clock.now

        internet = deploy_once(use_cache=False)
        cached = deploy_once(use_cache=True)
        assert internet > 2.5 * cached
