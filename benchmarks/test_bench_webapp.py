"""E8 -- the WebApp production deployment (S6.2).

Paper: "The partial installation specification for the production site is
61 lines long and has seven resources.  The full installation
specification generated by the Engage configuration engine from this spec
is 1,444 lines long and has 29 resources."
"""

from __future__ import annotations

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.django import package_application, table1_apps
from repro.dsl import full_to_json, line_count, partial_to_json
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import BusCoordinator, provision_partial_spec


def webapp_partial(app_key):
    """The production topology: web node + dedicated db node, with the
    optional components the WebApp uses pinned explicitly -- seven
    resources, like the paper's production partial spec."""
    return PartialInstallSpec(
        [
            PartialInstance("webnode", as_key("Ubuntu-Linux 10.04"),
                            config={"hostname": "www1"}),
            PartialInstance("dbnode", as_key("Ubuntu-Linux 10.04"),
                            config={"hostname": "db1"}),
            PartialInstance("app", app_key, inside_id="webnode"),
            PartialInstance("web", as_key("Gunicorn 0.13"),
                            inside_id="webnode"),
            PartialInstance("db", as_key("MySQL 5.1"), inside_id="dbnode"),
            PartialInstance("queue", as_key("RabbitMQ 2.7"),
                            inside_id="webnode"),
            PartialInstance("mon", as_key("Monit 5.3"),
                            inside_id="webnode"),
        ]
    )


def test_e8_webapp_expansion(benchmark):
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    webapp = next(a for a in table1_apps() if a.name == "WebApp")
    app_key = package_application(webapp, registry, infrastructure)
    engine = ConfigurationEngine(registry)
    partial = provision_partial_spec(
        registry, webapp_partial(app_key), infrastructure
    )

    result = benchmark(engine.configure, partial)

    partial_lines = line_count(partial_to_json(partial))
    full_lines = line_count(full_to_json(result.spec))
    benchmark.extra_info.update(
        {
            "paper_partial_lines": 61,
            "paper_partial_resources": 7,
            "paper_full_lines": 1444,
            "paper_full_resources": 29,
            "measured_partial_lines": partial_lines,
            "measured_partial_resources": len(partial),
            "measured_full_lines": full_lines,
            "measured_full_resources": len(result.spec),
            "measured_ratio": round(full_lines / partial_lines, 1),
        }
    )
    # Shape: seven user-named resources expand several-fold, with the
    # full document more than an order of magnitude longer.
    assert len(partial) == 7
    assert len(result.spec) >= 2.5 * len(partial)
    assert full_lines / partial_lines > 8


def test_e8_webapp_production_deploys(benchmark):
    """The expanded production system actually deploys across both
    machines via the master/slave coordinator."""
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()
    webapp = next(a for a in table1_apps() if a.name == "WebApp")
    app_key = package_application(webapp, registry, infrastructure)
    engine = ConfigurationEngine(registry)
    partial = provision_partial_spec(
        registry, webapp_partial(app_key), infrastructure
    )
    spec = engine.configure(partial).spec

    coordinator = BusCoordinator(registry, infrastructure, drivers)
    deployment = benchmark.pedantic(
        coordinator.deploy, args=(spec,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "machines": sorted(deployment.report.per_machine_seconds),
            "waves": deployment.report.waves,
            "per_machine_seconds": {
                m: round(s, 1)
                for m, s in deployment.report.per_machine_seconds.items()
            },
        }
    )
    assert deployment.is_deployed()
    # The db machine deploys before the web machine (cross-machine dep).
    flat_waves = [m for wave in deployment.report.waves for m in wave]
    assert flat_waves.index("dbnode") < flat_waves.index("webnode")
