"""The resource library: census, well-formedness, artifact coverage."""

import pytest

from repro.core import as_key, check_registry
from repro.drivers import package_slug
from repro.library import (
    ARTIFACTS,
    standard_drivers,
    standard_infrastructure,
    standard_registry,
    standard_types,
)
from repro.sim import Infrastructure


class TestWellFormedness:
    def test_library_is_well_formed(self, registry):
        assert check_registry(registry) == []

    def test_census(self, registry):
        """The paper's Django support involved 37 resources; our built-in
        library (before packager-generated app types) is the same order
        of magnitude."""
        assert 25 <= len(registry) <= 45

    def test_expected_types_present(self, registry):
        for key in (
            "Server", "Mac-OSX 10.6", "Ubuntu-Linux 10.04", "Java",
            "JDK 1.6", "JRE 1.6", "Tomcat 5.5", "Tomcat 6.0.18",
            "OpenMRS 1.8", "JasperReports-Server 4.2",
            "MySQL-JDBC-Connector 5.1.17", "Database", "MySQL 5.1",
            "PostgreSQL 8.4", "SQLite 3.7", "Redis 2.4", "MongoDB 2.0",
            "Memcached 1.4",
            "RabbitMQ 2.7", "Monit 5.3", "Python-Runtime 2.7",
            "Django 1.3", "South 0.7", "WebServer", "Gunicorn 0.13",
            "Apache-HTTPD 2.2", "Celery 2.4", "Django-App",
        ):
            assert registry.has(as_key(key)), key


class TestFrontiers:
    def test_server_frontier(self, registry):
        frontier = {str(k) for k in registry.concrete_frontier(as_key("Server"))}
        # Note the canonical display: version components are integers, so
        # "10.04" renders as "10.4" (the keys compare equal either way).
        assert frontier == {
            "Mac-OSX 10.5", "Mac-OSX 10.6",
            "Ubuntu-Linux 10.4", "Ubuntu-Linux 10.10",
            "Windows-XP 5.1",
        }

    def test_java_frontier(self, registry):
        frontier = {str(k) for k in registry.concrete_frontier(as_key("Java"))}
        assert frontier == {"JDK 1.6", "JRE 1.6"}

    def test_database_frontier(self, registry):
        frontier = {
            str(k) for k in registry.concrete_frontier(as_key("Database"))
        }
        assert frontier == {"MySQL 5.1", "PostgreSQL 8.4", "SQLite 3.7"}

    def test_webserver_frontier(self, registry):
        frontier = {
            str(k) for k in registry.concrete_frontier(as_key("WebServer"))
        }
        assert frontier == {"Gunicorn 0.13", "Apache-HTTPD 2.2"}


class TestDriverCoverage:
    def test_every_concrete_type_has_registered_driver(self, registry, drivers):
        for key in registry.keys():
            resource_type = registry.effective(key)
            if resource_type.abstract:
                continue
            assert drivers.has(resource_type.driver_name), (
                f"{key} uses unregistered driver "
                f"{resource_type.driver_name!r}"
            )


class TestArtifactCoverage:
    def test_package_driven_types_have_artifacts(self, registry):
        """Every concrete non-machine type whose driver installs a
        package must have its artifact in the catalogue."""
        infrastructure = standard_infrastructure()
        index = infrastructure.package_index
        exempt_drivers = {"null", "machine"}
        for key in registry.keys():
            resource_type = registry.effective(key)
            if resource_type.abstract or resource_type.is_machine():
                continue
            if resource_type.driver_name in exempt_drivers:
                continue
            slug = package_slug(key.name)
            assert index.has(slug, str(key.version)), (
                f"no artifact {slug}-{key.version} for {key}"
            )

    def test_artifact_sizes_positive(self):
        for (name, version), size in ARTIFACTS.items():
            assert size > 0, (name, version)


class TestInfrastructureFactory:
    def test_cloud_optional(self):
        assert standard_infrastructure().default_provider() is not None
        assert Infrastructure().default_provider() is None

    def test_types_list_is_fresh_each_call(self):
        a = standard_types()
        b = standard_types()
        assert a is not b
        assert [t.key for t in a] == [t.key for t in b]

    def test_registries_independent(self):
        r1 = standard_registry()
        r2 = standard_registry()
        r1.register(
            __import__("repro.core", fromlist=["define"]).define("Extra", "1").build()
        )
        assert not r2.has(as_key("Extra 1"))


class TestFleetModule:
    """``python -m repro.library.fleet``: the generator CI feeds to the
    CLI, driven here through its entry point."""

    def test_output_file_parses_back(self, tmp_path, capsys):
        from repro.dsl import partial_from_json
        from repro.library.fleet import _main

        path = tmp_path / "fleet.json"
        assert _main([
            "--replicas", "4", "--machines", "2", "--stacks", "django",
            "-o", str(path),
        ]) == 0
        assert capsys.readouterr().out == ""
        partial = partial_from_json(path.read_text(encoding="utf-8"))
        # Two machines, and five pinned services per django replica.
        assert len(partial) == 2 + 4 * 5
        assert sorted(i.id for i in partial if i.inside_id is None) == [
            "host000", "host001"
        ]

    def test_configure_reports_nodes_and_components(self, capsys):
        import re

        from repro.library.fleet import _main

        assert _main([
            "--replicas", "2", "--machines", "2", "--stacks", "openmrs",
            "--configure",
        ]) == 0
        line = capsys.readouterr().out
        assert re.fullmatch(
            r"configured \d+ nodes \(2 components\) in \d+\.\d\ds -- "
            r"\d+ nodes/sec\n",
            line,
        ), line
