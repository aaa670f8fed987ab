"""Django application definitions, including the Table 1 corpus.

The paper evaluated eight applications (Table 1): Areneae, Buzzfire,
Codespeed, Django-Blog, Django-CMS, FA, Feature Collector, and WebApp.
The originals are third-party code we cannot ship; these synthetic
definitions preserve the structural properties Table 1 reports (package
dependency counts, Redis/Celery/caching usage, production scale) -- which
is exactly what the experiment tests: "All eight applications were
deployable by Engage without requiring any application-specific
deployment code."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.django.migrations import Migration, Operation


@dataclass(frozen=True)
class DjangoAppDefinition:
    """Everything the packager extracts from a Django project."""

    name: str
    version: str
    description: str = ""
    source: str = "internal"
    loc: int = 1000
    pip_packages: tuple[tuple[str, str], ...] = ()
    uses_redis: bool = False
    uses_celery: bool = False
    uses_memcached: bool = False
    uses_mongodb: bool = False
    migrations: tuple[Migration, ...] = ()

    def archive_name(self) -> str:
        return f"django-app-{self.name.lower()}"


def _initial_migration(table: str, columns: Sequence[str]) -> Migration:
    return Migration(
        "0001_initial",
        (Operation("create_table", table=table, columns=tuple(columns)),),
    )


def table1_apps() -> list[DjangoAppDefinition]:
    """The eight applications of Table 1."""
    return [
        DjangoAppDefinition(
            name="Areneae",
            version="1.0",
            description="Simple test app",
            source="beta tester",
            loc=800,
            pip_packages=(("simplejson", "2.1"),),
            migrations=(_initial_migration("notes", ["id", "text"]),),
        ),
        DjangoAppDefinition(
            name="Buzzfire",
            version="1.0",
            description="Twitter bookmark and ranking app",
            source="open source",
            loc=3200,
            pip_packages=(("tweepy", "1.7"), ("simplejson", "2.1")),
            uses_redis=True,
            migrations=(
                _initial_migration("bookmarks", ["id", "url", "score"]),
            ),
        ),
        DjangoAppDefinition(
            name="Codespeed",
            version="0.8",
            description="Web application performance monitor",
            source="open source",
            loc=5100,
            pip_packages=(("matplotlib-lite", "0.9"), ("isodate", "0.4")),
            migrations=(
                _initial_migration("benchmarks", ["id", "name", "value"]),
            ),
        ),
        DjangoAppDefinition(
            name="Django-Blog",
            version="2.1",
            description="Blogging platform (18 pip dependencies)",
            source="beta tester",
            loc=4400,
            pip_packages=tuple(
                (f"blog-dep-{i:02d}", "1.0") for i in range(1, 19)
            ),
            migrations=(
                _initial_migration("posts", ["id", "title", "body"]),
            ),
        ),
        DjangoAppDefinition(
            name="Django-CMS",
            version="2.2",
            description="Content management system",
            source="open source",
            loc=9200,
            pip_packages=(
                ("pil-lite", "1.1"),
                ("html5lib", "0.90"),
                ("classytags", "0.3"),
            ),
            uses_memcached=True,
            migrations=(
                _initial_migration("pages", ["id", "slug", "content"]),
            ),
        ),
        DjangoAppDefinition(
            name="FA",
            version="1.0",
            description="Faculty, student, and postdoc applications",
            source="beta tester",
            loc=6100,
            pip_packages=(("xlwt", "0.7"), ("simplejson", "2.1")),
            migrations=(
                _initial_migration(
                    "applicants", ["id", "name", "area"]
                ),
            ),
        ),
        DjangoAppDefinition(
            name="Feature-Collector",
            version="1.0",
            description="Gather software feature requests",
            source="internal",
            loc=1900,
            pip_packages=(("simplejson", "2.1"),),
            migrations=(
                _initial_migration("features", ["id", "title", "votes"]),
            ),
        ),
        DjangoAppDefinition(
            name="WebApp",
            version="3.0",
            description="Production site of the Django hosting company",
            source="internal",
            loc=4000,
            pip_packages=(
                ("boto-lite", "2.0"),
                ("simplejson", "2.1"),
                ("requests-lite", "0.8"),
                ("django-celery", "2.4"),
                ("django-kombu", "0.9"),
                ("python-memcached", "1.47"),
                ("redis-py", "2.4"),
                ("django-cron", "0.3"),
                ("pytz", "2011"),
                ("south-utils", "0.7"),
            ),
            uses_redis=True,
            uses_celery=True,
            uses_memcached=True,
            migrations=(
                _initial_migration(
                    "customers", ["id", "email", "plan"]
                ),
            ),
        ),
    ]


def fa_snapshots() -> tuple[DjangoAppDefinition, DjangoAppDefinition]:
    """The two FA production snapshots of the upgrade experiment (S6.2):
    "the user interface, application logic, and database schema all
    changed" between them."""
    fa_v1 = next(app for app in table1_apps() if app.name == "FA")
    fa_v2 = DjangoAppDefinition(
        name="FA",
        version="2.0",
        description=fa_v1.description + " (second snapshot)",
        source=fa_v1.source,
        loc=fa_v1.loc + 900,
        pip_packages=fa_v1.pip_packages + (("reportlab-lite", "2.5"),),
        migrations=fa_v1.migrations
        + (
            Migration(
                "0002_add_decision",
                (
                    Operation(
                        "add_column",
                        table="applicants",
                        column="decision",
                        default="pending",
                    ),
                ),
            ),
        ),
    )
    return fa_v1, fa_v2


def fa_broken_snapshot() -> DjangoAppDefinition:
    """FA v2 with an injected migration error: "If we introduce an error
    in the second application version that causes the upgrade to fail,
    Engage automatically rolls back to the prior application version."""
    _, fa_v2 = fa_snapshots()
    return DjangoAppDefinition(
        name="FA",
        version="2.1",
        description=fa_v2.description + " (broken)",
        source=fa_v2.source,
        loc=fa_v2.loc,
        pip_packages=fa_v2.pip_packages,
        migrations=fa_v2.migrations
        + (
            Migration(
                "0003_broken",
                (
                    Operation(
                        "fail",
                        message="schema change conflicts with data",
                    ),
                ),
            ),
        ),
    )
