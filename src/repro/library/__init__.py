"""The resource library: the paper's "5K lines of resource types".

:func:`standard_registry` assembles every built-in resource type (the
Java stack, databases and stores, the Django platform);
:func:`standard_drivers` pairs them with driver implementations; and
:func:`standard_infrastructure` builds a simulation world with all the
needed artifacts published.
"""

from __future__ import annotations

from repro.core.registry import ResourceTypeRegistry
from repro.drivers.base import DriverRegistry
from repro.library.base import (
    ARTIFACTS,
    BROKER_RECORD,
    CELERY_RECORD,
    DATABASE_RECORD,
    DEFAULT_ARTIFACT_SIZE,
    HOST_RECORD,
    JAVA_RECORD,
    KV_RECORD,
    PYTHON_RECORD,
    SERVLET_CONTAINER_RECORD,
    WEBSERVER_RECORD,
    ensure_artifact,
    publish_artifacts,
)
from repro.library.databases import (
    database_types,
    register_store_drivers,
    store_types,
)
from repro.library.django_stack import (
    celery_types,
    django_app_base,
    pip_package_type,
    python_types,
    register_django_stack_drivers,
    webserver_types,
)
from repro.library.java import (
    TOMCAT_VERSIONS,
    jasper_types,
    java_types,
    openmrs_types,
    register_java_drivers,
    tomcat_types,
)
from repro.library.servers import server_types
from repro.sim.infrastructure import Infrastructure


def standard_types() -> list:
    """Every built-in resource type, in registration order (supertypes
    before subtypes)."""
    return (
        server_types()
        + java_types()
        + tomcat_types()
        + database_types()
        + openmrs_types()
        + jasper_types()
        + store_types()
        + python_types()
        + webserver_types()
        + celery_types()
        + [django_app_base()]
    )


def standard_registry() -> ResourceTypeRegistry:
    """A registry holding the whole built-in library."""
    return ResourceTypeRegistry(standard_types())


def standard_drivers() -> DriverRegistry:
    """A driver registry covering every built-in resource type."""
    from repro.runtime.deploy import standard_driver_registry
    from repro.django.driver import register_django_app_driver

    drivers = standard_driver_registry()
    register_java_drivers(drivers)
    register_store_drivers(drivers)
    register_django_stack_drivers(drivers)
    register_django_app_driver(drivers)
    return drivers


def standard_infrastructure(*, use_cache: bool = True) -> Infrastructure:
    """A simulation world with the artifact catalogue published and a
    cloud provider configured."""
    infrastructure = Infrastructure(use_cache=use_cache)
    publish_artifacts(infrastructure)
    infrastructure.add_provider("rackspace-sim")
    return infrastructure


__all__ = [
    "ARTIFACTS",
    "BROKER_RECORD",
    "CELERY_RECORD",
    "DATABASE_RECORD",
    "DEFAULT_ARTIFACT_SIZE",
    "HOST_RECORD",
    "JAVA_RECORD",
    "KV_RECORD",
    "PYTHON_RECORD",
    "SERVLET_CONTAINER_RECORD",
    "TOMCAT_VERSIONS",
    "WEBSERVER_RECORD",
    "celery_types",
    "database_types",
    "django_app_base",
    "ensure_artifact",
    "jasper_types",
    "java_types",
    "openmrs_types",
    "pip_package_type",
    "publish_artifacts",
    "python_types",
    "server_types",
    "standard_drivers",
    "standard_infrastructure",
    "standard_registry",
    "standard_types",
    "store_types",
    "tomcat_types",
    "webserver_types",
]
