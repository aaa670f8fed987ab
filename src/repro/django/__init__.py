"""Django platform support (S6.2): the application packager, the
South-style migration engine, the generic application driver, and the
Table 1 application corpus."""

from repro.django.apps import (
    DjangoAppDefinition,
    fa_broken_snapshot,
    fa_snapshots,
    table1_apps,
)
from repro.django.driver import DjangoAppDriver, register_django_app_driver
from repro.django.migrations import (
    APPLIED_TABLE,
    Migration,
    MigrationEngine,
    MigrationError,
    Operation,
    SimDatabase,
    migrations_from_json,
    migrations_to_json,
)
from repro.django.packager import (
    generate_app_type,
    package_application,
    publish_app_artifacts,
    validate_application,
)

__all__ = [
    "APPLIED_TABLE",
    "DjangoAppDefinition",
    "DjangoAppDriver",
    "Migration",
    "MigrationEngine",
    "MigrationError",
    "Operation",
    "SimDatabase",
    "fa_broken_snapshot",
    "fa_snapshots",
    "generate_app_type",
    "migrations_from_json",
    "migrations_to_json",
    "package_application",
    "publish_app_artifacts",
    "register_django_app_driver",
    "table1_apps",
    "validate_application",
]
