"""The Django application packager (S6.2).

"We built an application packager that validates a Django application,
extracts some metadata used by Engage, and packages the application into
an archive with a pre-defined layout.  This application can then be
deployed by Engage to the cloud or a local machine."

:func:`package_application` does three things:

1. *validate* the application definition (name, version, dependencies);
2. *generate* a resource type extending the abstract ``Django-App`` with
   environment dependencies on the application's pip packages (and South
   when it carries migrations) and peer dependencies on the optional
   services it uses;
3. *publish* the application archive -- including the serialised
   migrations, which the driver reads back from the unpacked files -- and
   the pip artifacts into the package index.

The per-application resource types are generated, never hand-written:
that is how "all eight applications were deployable by Engage without
requiring any application-specific deployment code".
"""

from __future__ import annotations

import re
from typing import Optional

from repro.core.builder import ResourceTypeBuilder, define
from repro.core.errors import SpecError
from repro.core.keys import ResourceKey
from repro.core.ports import STRING
from repro.core.registry import ResourceTypeRegistry
from repro.core.resource_type import ResourceType
from repro.core.values import Lit
from repro.django.apps import DjangoAppDefinition
from repro.django.migrations import migrations_to_json
from repro.library.base import CELERY_RECORD, KV_RECORD, ensure_artifact
from repro.library.django_stack import pip_package_type
from repro.sim.infrastructure import Infrastructure

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")

#: Simulated archive bytes per line of application code.
_BYTES_PER_LOC = 120


def validate_application(app: DjangoAppDefinition) -> list[str]:
    """Packager validation: returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not _NAME_RE.match(app.name):
        problems.append(f"invalid application name: {app.name!r}")
    if not app.version or not app.version[0].isdigit():
        problems.append(f"invalid version: {app.version!r}")
    seen: set[str] = set()
    for package_name, package_version in app.pip_packages:
        if not _NAME_RE.match(package_name):
            problems.append(f"invalid pip package name: {package_name!r}")
        if package_name in seen:
            problems.append(f"duplicate pip dependency: {package_name!r}")
        seen.add(package_name)
        if not package_version:
            problems.append(f"pip package {package_name!r} has no version")
    migration_names = [m.name for m in app.migrations]
    if len(migration_names) != len(set(migration_names)):
        problems.append("duplicate migration names")
    return problems


def generate_app_type(app: DjangoAppDefinition) -> tuple[ResourceType, list[ResourceType]]:
    """The generated resource type for ``app``, plus any pip-package
    types it depends on (callers register whichever are new)."""
    builder: ResourceTypeBuilder = define(
        f"DjangoApp-{app.name}",
        app.version,
        extends="Django-App",
        driver="django-app",
    )
    builder.config("app_name", STRING, app.name, static=True)
    builder.config("app_version", STRING, app.version, static=True)

    pip_types: list[ResourceType] = []
    for package_name, package_version in app.pip_packages:
        pip_type = pip_package_type(package_name, package_version)
        pip_types.append(pip_type)
        input_name = "pkg_" + re.sub(r"[^a-z0-9]+", "_", package_name.lower())
        builder.input(input_name, STRING)
        builder.env(pip_type.key, **{"module": input_name})
    if app.migrations:
        builder.input("south_version", STRING)
        builder.env("South 0.7", south_version="south_version")

    if app.uses_redis:
        builder.input("redis", KV_RECORD)
        builder.peer("Redis 2.4", kv="redis")
    if app.uses_mongodb:
        builder.input("mongodb", KV_RECORD)
        builder.peer("MongoDB 2.0", kv="mongodb")
    if app.uses_memcached:
        builder.input("cache", KV_RECORD)
        builder.peer("Memcached 1.4", kv="cache")
    if app.uses_celery:
        builder.input("celery", CELERY_RECORD)
        builder.peer("Celery 2.4", celery="celery")

    return builder.build(), pip_types


def publish_app_artifacts(
    app: DjangoAppDefinition, infrastructure: Infrastructure
) -> None:
    """Publish the application archive (with its migrations inside, in
    the pre-defined layout) and its pip dependencies."""
    index = infrastructure.package_index
    archive = app.archive_name()
    if not index.has(archive, app.version):
        index.publish(_app_artifact(app))
    for package_name, package_version in app.pip_packages:
        ensure_artifact(
            infrastructure, f"pypi-{package_name.lower()}", package_version
        )


def _app_artifact(app: DjangoAppDefinition):
    from repro.sim.package_index import PackageArtifact

    return PackageArtifact(
        name=app.archive_name(),
        version=app.version,
        size_bytes=max(app.loc * _BYTES_PER_LOC, 50_000),
        files=(
            (f"{app.name}/engage_app.json",
             f'{{"name": "{app.name}", "version": "{app.version}"}}'),
            (f"{app.name}/migrations.json",
             migrations_to_json(list(app.migrations))),
        ),
    )


def package_application(
    app: DjangoAppDefinition,
    registry: ResourceTypeRegistry,
    infrastructure: Infrastructure,
) -> ResourceKey:
    """Validate, generate, register, and publish; returns the key of the
    generated resource type."""
    problems = validate_application(app)
    if problems:
        raise SpecError(
            f"application {app.name} failed packager validation:\n  "
            + "\n  ".join(problems)
        )
    app_type, pip_types = generate_app_type(app)
    for pip_type in pip_types:
        if not registry.has(pip_type.key):
            registry.register(pip_type)
    if not registry.has(app_type.key):
        registry.register(app_type)
    publish_app_artifacts(app, infrastructure)
    return app_type.key
