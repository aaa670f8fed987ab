"""E6 -- Table 1: the eight Django applications.

Paper: "All eight applications were deployable by Engage without
requiring any application-specific deployment code."  The applications
here are synthetic stand-ins with the structural properties Table 1
reports (see DESIGN.md S3); the property under test is exactly the
paper's: the generic packager + generic driver deploy every one.
"""

from __future__ import annotations

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.django import package_application, table1_apps
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import DeploymentEngine, provision_partial_spec


def deploy_all_apps():
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()
    engine = ConfigurationEngine(registry)
    deploy = DeploymentEngine(registry, infrastructure, drivers)

    rows = []
    for index, app in enumerate(table1_apps()):
        key = package_application(app, registry, infrastructure)
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    f"node{index}",
                    as_key("Ubuntu-Linux 10.04"),
                    config={"hostname": f"host{index}"},
                ),
                PartialInstance(f"app{index}", key, inside_id=f"node{index}"),
            ]
        )
        partial = provision_partial_spec(registry, partial, infrastructure)
        result = engine.configure(partial)
        system = deploy.deploy(result.spec)
        rows.append(
            {
                "app": app.name,
                "source": app.source,
                "deployed": system.is_deployed(),
                "resources": len(result.spec),
                "pip_packages": len(app.pip_packages),
                "uses": [
                    flag
                    for flag, used in (
                        ("redis", app.uses_redis),
                        ("celery", app.uses_celery),
                        ("memcached", app.uses_memcached),
                        ("mongodb", app.uses_mongodb),
                    )
                    if used
                ],
            }
        )
    return rows


def test_e6_all_eight_apps_deploy(benchmark):
    rows = benchmark.pedantic(deploy_all_apps, rounds=1, iterations=1)
    benchmark.extra_info["table1"] = rows

    assert len(rows) == 8
    assert all(row["deployed"] for row in rows)
    # No application-specific deployment code exists: assert the driver
    # registry has exactly one Django driver, shared by all eight.
    drivers = standard_drivers()
    assert drivers.has("django-app")

    by_name = {row["app"]: row for row in rows}
    # Structural properties from Table 1's comments column.
    assert by_name["Django-Blog"]["pip_packages"] == 18
    assert "redis" in by_name["Buzzfire"]["uses"]
    assert {"redis", "celery", "memcached"} <= set(by_name["WebApp"]["uses"])
    # Richer apps pull in more resources.
    assert by_name["Django-Blog"]["resources"] > by_name["Areneae"]["resources"]


def test_e6_packager_validation_is_the_gate(benchmark):
    """The packager (not per-app code) is what vets applications: a
    malformed app is rejected before any resource is generated."""
    from repro.core.errors import SpecError
    from repro.django import DjangoAppDefinition, validate_application

    bad = DjangoAppDefinition(name="not valid!", version="x")

    def validate_all():
        problems = validate_application(bad)
        ok = [validate_application(app) for app in table1_apps()]
        return problems, ok

    problems, ok = benchmark(validate_all)
    assert problems  # the bad app is caught
    assert all(p == [] for p in ok)  # all Table 1 apps pass
