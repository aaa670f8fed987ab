"""Behaviour of the concrete library drivers against the simulation."""

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.config import ConfigurationEngine
from repro.django import SimDatabase, package_application, table1_apps
from repro.runtime import DeploymentEngine, provision_partial_spec


def deployed(registry, infrastructure, drivers, partial):
    partial = provision_partial_spec(registry, partial, infrastructure)
    spec = ConfigurationEngine(registry).configure(partial).spec
    system = DeploymentEngine(registry, infrastructure, drivers).deploy(spec)
    return spec, system


class TestTomcatDriver:
    @pytest.fixture
    def world(self, registry, infrastructure, drivers):
        partial = PartialInstallSpec(
            [
                PartialInstance("server", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "tc"}),
                PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                                inside_id="server",
                                config={"manager_port": 9090}),
            ]
        )
        return deployed(registry, infrastructure, drivers, partial)

    def test_server_xml_reflects_config(self, world, infrastructure):
        machine = infrastructure.network.machine("tc")
        content = machine.fs.read_file("/opt/tomcat-6.0.18/conf/server.xml")
        assert '<Server port="9090">' in content
        assert "Context" not in content  # no servlet pushed config

    def test_webapps_directory_created(self, world, infrastructure):
        machine = infrastructure.network.machine("tc")
        assert machine.fs.is_dir("/opt/tomcat-6.0.18/webapps")

    def test_listens_on_configured_port(self, world, infrastructure):
        assert infrastructure.network.can_connect("tc", 9090)
        assert not infrastructure.network.can_connect("tc", 8080)


class TestWebappDriver:
    def test_connection_properties_written(
        self, registry, infrastructure, drivers, openmrs_partial
    ):
        spec, system = deployed(
            registry, infrastructure, drivers, openmrs_partial
        )
        machine = infrastructure.network.machine("demotest")
        props = machine.fs.read_file(
            "/opt/tomcat-6.0.18/webapps/openmrs/WEB-INF/connection.properties"
        )
        assert "jdbc:mysql://demotest:3306/app" in props
        assert "db.user=root" in props


class TestJasperDriver:
    def test_jdbc_jar_linked_into_tomcat(
        self, registry, infrastructure, drivers
    ):
        partial = PartialInstallSpec(
            [
                PartialInstance("server", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "rep"}),
                PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                                inside_id="server"),
                PartialInstance("jasper",
                                as_key("JasperReports-Server 4.2"),
                                inside_id="tomcat"),
            ]
        )
        spec, system = deployed(registry, infrastructure, drivers, partial)
        machine = infrastructure.network.machine("rep")
        link = machine.fs.read_file(
            "/opt/tomcat-6.0.18/lib/mysql-connector.link"
        )
        assert "mysql-connector-java.jar" in link
        # The connector itself was downloaded and extracted.
        manager = infrastructure.package_manager(machine)
        assert manager.is_installed("mysql-jdbc-connector", "5.1.17")


class TestApacheDriver:
    def test_httpd_conf(self, registry, infrastructure, drivers):
        partial = PartialInstallSpec(
            [
                PartialInstance("server", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "www"}),
                PartialInstance("apache", as_key("Apache-HTTPD 2.2"),
                                inside_id="server"),
            ]
        )
        spec, system = deployed(registry, infrastructure, drivers, partial)
        machine = infrastructure.network.machine("www")
        assert machine.fs.read_file("/etc/httpd.conf") == "Listen 80\n"
        assert infrastructure.network.can_connect("www", 80)


class TestPostgresDriver:
    def test_django_app_on_postgres(self, registry, infrastructure, drivers):
        app = table1_apps()[0]
        key = package_application(app, registry, infrastructure)
        partial = PartialInstallSpec(
            [
                PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "pg"}),
                PartialInstance("app", key, inside_id="node"),
                PartialInstance("web", as_key("Gunicorn 0.13"),
                                inside_id="node"),
                PartialInstance("db", as_key("PostgreSQL 8.4"),
                                inside_id="node"),
            ]
        )
        spec, system = deployed(registry, infrastructure, drivers, partial)
        assert spec["app"].inputs["database"]["engine"] == "postgres"
        assert spec["app"].inputs["database"]["port"] == 5432
        assert infrastructure.network.can_connect("pg", 5432)
        machine = infrastructure.network.machine("pg")
        database = SimDatabase(machine.fs, "/var/lib/postgresql/app.json")
        assert "notes" in database.tables()

    def test_data_survives_uninstall(self, registry, infrastructure, drivers):
        partial = PartialInstallSpec(
            [
                PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "pg2"}),
                PartialInstance("db", as_key("PostgreSQL 8.4"),
                                inside_id="node"),
            ]
        )
        spec, system = deployed(registry, infrastructure, drivers, partial)
        machine = infrastructure.network.machine("pg2")
        database = SimDatabase(machine.fs, "/var/lib/postgresql/keep.json")
        database.create_table("t", ["a"])
        DeploymentEngine(registry, infrastructure, drivers).uninstall(system)
        assert database.tables() == ["t"]  # data dir kept


class TestCeleryDriver:
    def test_worker_requires_broker(self, registry, infrastructure, drivers):
        partial = PartialInstallSpec(
            [
                PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "work"}),
                PartialInstance("celery", as_key("Celery 2.4"),
                                inside_id="node"),
            ]
        )
        spec, system = deployed(registry, infrastructure, drivers, partial)
        # RabbitMQ materialised automatically and started first.
        rabbit_id = next(
            i.id for i in spec if i.key.name == "RabbitMQ"
        )
        starts = [
            a.instance_id for a in system.report.actions
            if a.action == "start"
        ]
        assert starts.index(rabbit_id) < starts.index("celery")
        worker = system.driver("celery").process
        assert worker.is_running()
        assert worker.listen_ports == ()


class TestPipPackageDriver:
    def test_installs_into_site_packages(
        self, registry, infrastructure, drivers
    ):
        app = table1_apps()[0]  # Areneae: depends on simplejson
        key = package_application(app, registry, infrastructure)
        partial = PartialInstallSpec(
            [
                PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "py"}),
                PartialInstance("app", key, inside_id="node"),
            ]
        )
        spec, system = deployed(registry, infrastructure, drivers, partial)
        machine = infrastructure.network.machine("py")
        manager = infrastructure.package_manager(machine)
        assert manager.is_installed("pypi-simplejson", "2.1")
        assert manager.install_path("pypi-simplejson").startswith(
            "/opt/python-runtime-2.7/lib/python2.7/site-packages"
        )


class TestDjangoAppDriverDetails:
    def test_settings_file_reflects_stack(
        self, registry, infrastructure, drivers
    ):
        app = table1_apps()[0]
        key = package_application(app, registry, infrastructure)
        partial = PartialInstallSpec(
            [
                PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "dj"}),
                PartialInstance("app", key, inside_id="node",
                                config={"debug": True,
                                        "secret_key": "s3cret"}),
                PartialInstance("web", as_key("Apache-HTTPD 2.2"),
                                inside_id="node"),
                PartialInstance("db", as_key("SQLite 3.7"),
                                inside_id="node"),
            ]
        )
        spec, system = deployed(registry, infrastructure, drivers, partial)
        machine = infrastructure.network.machine("dj")
        settings = machine.fs.read_file(
            "/opt/django-app-areneae-1.0/settings.py"
        )
        assert "DEBUG = True" in settings
        assert "SECRET_KEY = 's3cret'" in settings
        assert "DATABASE_ENGINE = 'sqlite'" in settings
        assert "SERVED_BY = 'apache'" in settings

    def test_sqlite_app_has_no_database_endpoint_check(
        self, registry, infrastructure, drivers
    ):
        app = table1_apps()[0]
        key = package_application(app, registry, infrastructure)
        partial = PartialInstallSpec(
            [
                PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "lite"}),
                PartialInstance("app", key, inside_id="node"),
                PartialInstance("db", as_key("SQLite 3.7"),
                                inside_id="node"),
            ]
        )
        spec, system = deployed(registry, infrastructure, drivers, partial)
        driver = system.driver("app")
        assert driver.upstream_endpoints() == []
