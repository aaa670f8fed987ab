"""E7/E10 -- the S6.2 configuration space and resource census.

Paper: "we currently support 256 distinct deployment configurations on a
single node": OS (4: two MacOSX + two Ubuntu versions) x web server
(Gunicorn | Apache) x database (SQLite | MySQL) x four independent
optional components (RabbitMQ/Celery, Redis, memcached, Monit).  And:
"Django support involves 37 resources, of which 14 are specific to
Django applications."
"""

from __future__ import annotations

import itertools

import pytest

import time

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.dsl import full_to_json
from repro.django import package_application, table1_apps
from repro.library import standard_infrastructure, standard_registry

OS_CHOICES = (
    "Mac-OSX 10.5",
    "Mac-OSX 10.6",
    "Ubuntu-Linux 10.04",
    "Ubuntu-Linux 10.10",
)
WEB_CHOICES = ("Gunicorn 0.13", "Apache-HTTPD 2.2")
DB_CHOICES = ("SQLite 3.7", "MySQL 5.1")
OPTIONAL = ("Celery 2.4", "Redis 2.4", "Memcached 1.4", "Monit 5.3")


def all_configurations():
    """The full 4 x 2 x 2 x 2^4 = 256 grid."""
    option_subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(OPTIONAL, r)
            for r in range(len(OPTIONAL) + 1)
        )
    )
    return [
        (os_key, web, db, extras)
        for os_key in OS_CHOICES
        for web in WEB_CHOICES
        for db in DB_CHOICES
        for extras in option_subsets
    ]


def partial_for(app_key, os_key, web, db, extras):
    instances = [
        PartialInstance("node", as_key(os_key), config={"hostname": "n1"}),
        PartialInstance("app", app_key, inside_id="node"),
        PartialInstance("web", as_key(web), inside_id="node"),
        PartialInstance("db", as_key(db), inside_id="node"),
    ]
    for index, extra in enumerate(extras):
        instances.append(
            PartialInstance(f"opt{index}", as_key(extra), inside_id="node")
        )
    return PartialInstallSpec(instances)


def sweep():
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    app = next(a for a in table1_apps() if a.name == "Areneae")
    app_key = package_application(app, registry, infrastructure)
    engine = ConfigurationEngine(registry, verify_registry=False)

    solved = 0
    web_kinds = set()
    db_engines = set()
    for os_key, web, db, extras in all_configurations():
        result = engine.configure(
            partial_for(app_key, os_key, web, db, extras)
        )
        app_instance = result.spec["app"]
        web_kinds.add(app_instance.inputs["webserver"]["kind"])
        db_engines.add(app_instance.inputs["database"]["engine"])
        expected_keys = {as_key(e) for e in extras}
        deployed_keys = {i.key for i in result.spec}
        assert expected_keys <= deployed_keys
        solved += 1
    return solved, web_kinds, db_engines


def test_e7_all_256_configurations_solve(benchmark):
    solved, web_kinds, db_engines = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "paper_configurations": 256,
            "measured_configurations": solved,
            "web_kinds": sorted(web_kinds),
            "db_engines": sorted(db_engines),
        }
    )
    assert solved == 256
    assert web_kinds == {"gunicorn", "apache"}
    assert db_engines == {"sqlite", "mysql"}


def test_e7_single_configuration_latency(benchmark, registry, infrastructure):
    """Per-configuration cost of the constraint pipeline (the quantity a
    user waits on for each deploy)."""
    app = next(a for a in table1_apps() if a.name == "Areneae")
    app_key = package_application(app, registry, infrastructure)
    engine = ConfigurationEngine(registry, verify_registry=False)
    partial = partial_for(
        app_key, "Ubuntu-Linux 10.04", "Gunicorn 0.13", "MySQL 5.1",
        ("Redis 2.4",),
    )
    result = benchmark(engine.configure, partial)
    assert "app" in result.spec


def test_e7_session_warm_sweep_vs_cold(benchmark, registry, infrastructure):
    """The incremental-session speedup on the 256-configuration sweep.

    Cold baseline: a fresh per-call :class:`ConfigurationEngine`
    pipeline for every configuration.  Warm: the same 256 queries
    through a primed :class:`ConfigurationSession`.  The acceptance bar
    is warm <= cold / 3, with identical output and cache counters
    proving that graphs, encodings, and solver state were reused.
    """
    app = next(a for a in table1_apps() if a.name == "Areneae")
    app_key = package_application(app, registry, infrastructure)
    partials = [
        partial_for(app_key, *config) for config in all_configurations()
    ]
    engine = ConfigurationEngine(registry, verify_registry=False)

    started = time.perf_counter()
    cold_specs = [full_to_json(engine.configure(p).spec) for p in partials]
    cold_ids = [engine.configure(p).deployed_ids for p in partials]
    cold_seconds = (time.perf_counter() - started) / 2  # two cold sweeps

    session = ConfigurationSession(registry, verify_registry=False)
    for partial in partials:
        session.configure(partial)  # prime every cache

    def warm_sweep():
        return [session.configure(partial) for partial in partials]

    results = benchmark.pedantic(warm_sweep, rounds=3, iterations=1)
    warm_seconds = benchmark.stats.stats.mean

    # Bit-identical to the cold per-call pipeline.
    for result, spec_json, ids in zip(results, cold_specs, cold_ids):
        assert full_to_json(result.spec) == spec_json
        assert result.deployed_ids == ids

    # The counters prove reuse: every benchmarked call hit every cache.
    stats = session.stats
    assert stats.graph_misses == 256
    assert stats.graph_hits == stats.configure_calls - 256
    assert stats.solver_reuses == stats.configure_calls - 256
    assert all(r.cache.graph_hit for r in results)
    assert all(r.cache.solver_reused for r in results)
    # The primed solver answered once; a warm call reuses its answer.
    assert all(r.solver_stats.solve_calls == 1 for r in results)

    benchmark.extra_info.update(
        {
            "configurations": len(partials),
            "cold_engine_seconds": round(cold_seconds, 3),
            "warm_session_seconds": round(warm_seconds, 3),
            "warm_over_cold": round(warm_seconds / cold_seconds, 3),
            "graph_hit_rate": round(stats.hit_rate, 3),
        }
    )
    assert warm_seconds <= cold_seconds / 3


def test_e10_resource_census(benchmark):
    """E10: library size vs the paper's 37 resources (14 Django-specific).

    Our census: the built-in library plus the resource types the packager
    generates for the Table 1 corpus.
    """

    def census():
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        builtin = len(registry)
        for app in table1_apps():
            package_application(app, registry, infrastructure)
        total = len(registry)
        django_specific = sum(
            1
            for key in registry.keys()
            if key.name.startswith(("DjangoApp-", "PyPkg-"))
            or key.name in ("Django", "South", "Gunicorn", "Celery",
                            "Django-App", "Python-Runtime", "WebServer")
        )
        return builtin, total, django_specific

    builtin, total, django_specific = benchmark(census)
    benchmark.extra_info.update(
        {
            "paper_django_resources": 37,
            "paper_django_specific": 14,
            "measured_builtin_resources": builtin,
            "measured_total_with_apps": total,
            "measured_django_related": django_specific,
        }
    )
    assert 25 <= builtin <= 45
    assert total > builtin  # packaging generated new types
