#!/usr/bin/env python
"""Regenerate every table/figure/number of the paper's evaluation.

Prints one section per experiment id (see DESIGN.md section 4) with the
paper's reported value next to the value measured on this reproduction.
The pytest-benchmark suites in this directory assert the same shapes;
this script is the human-readable roll-up recorded in EXPERIMENTS.md.

Run:  python benchmarks/report.py

``python benchmarks/report.py --fleet`` instead renders
``benchmarks/BENCH_fleet.json`` (written by ``test_bench_fleet.py``) as
one comparison table, so fleet perf regressions are readable straight
from CI logs.
``--delta`` does the same for ``benchmarks/BENCH_delta.json`` (written
by ``test_bench_delta.py``): the elasticity ladder and the small-delta
plan-fraction bar against the 1000-replica fleet.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys
import time

from repro.config import (
    ConfigurationEngine,
    ConfigurationSession,
    generate_constraints,
    generate_graph,
)
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.django import (
    SimDatabase,
    fa_broken_snapshot,
    fa_snapshots,
    package_application,
    table1_apps,
)
from repro.dsl import (
    format_resource_type,
    full_to_json,
    line_count,
    partial_to_json,
)
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import (
    BusCoordinator,
    DeploymentEngine,
    UpgradeEngine,
    provision_partial_spec,
)
from repro.sat import CdclSolver


def header(experiment: str, title: str) -> None:
    print()
    print(f"--- {experiment}: {title} " + "-" * max(0, 58 - len(title)))


def row(label: str, paper, measured) -> None:
    print(f"  {label:<38} paper: {str(paper):<14} measured: {measured}")


def openmrs_partial() -> PartialInstallSpec:
    return PartialInstallSpec(
        [
            PartialInstance("server", as_key("Mac-OSX 10.6"),
                            config={"hostname": "demotest",
                                    "os_user_name": "root"}),
            PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                            inside_id="server"),
            PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                            inside_id="tomcat"),
        ]
    )


def e1_e2_e3() -> None:
    registry = standard_registry()
    engine = ConfigurationEngine(registry)
    partial = openmrs_partial()
    result = engine.configure(partial)

    header("E1", "OpenMRS spec compaction (S2)")
    partial_lines = line_count(partial_to_json(partial))
    full_lines = line_count(full_to_json(result.spec))
    row("partial spec lines", 22, partial_lines)
    row("full spec lines", 204, full_lines)
    row("compaction ratio", "9.3x", f"{full_lines / partial_lines:.1f}x")

    header("E2", "the S2 Boolean constraints")
    stats = result.constraint_stats
    row("facts from partial spec", 3, stats.facts)
    row("dependency hyperedges", 8, stats.hyperedges)
    model = {k: v for k, v in sorted(result.model.items())}
    row("model (jdk XOR jre)", "jdk=1,jre=0",
        ",".join(f"{k}={int(v)}" for k, v in model.items()
                 if k in ("jdk", "jre")))

    header("E3", "the Figure 5 hypergraph")
    row("instance nodes", 6, len(result.graph))
    row("hyperedges", 8, len(result.graph.edges()))
    row("deployed instances", 5, len(result.spec))


def e4_e5() -> None:
    def deploy_jasper(use_cache: bool) -> tuple[float, dict]:
        registry = standard_registry()
        infrastructure = standard_infrastructure(use_cache=use_cache)
        if use_cache:
            for name, version in (("jdk", "1.6"), ("jre", "1.6"),
                                  ("tomcat", "6.0.18"), ("mysql", "5.1"),
                                  ("jasperreports-server", "4.2"),
                                  ("mysql-jdbc-connector", "5.1.17")):
                infrastructure.downloads.prefetch(name, version)
        partial = PartialInstallSpec(
            [
                PartialInstance("server", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "reports"}),
                PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                                inside_id="server"),
                PartialInstance("jasper",
                                as_key("JasperReports-Server 4.2"),
                                inside_id="tomcat"),
            ]
        )
        engine = ConfigurationEngine(registry)
        result = engine.configure(partial)
        DeploymentEngine(registry, infrastructure,
                         standard_drivers()).deploy(result.spec)
        lines = {
            "partial": line_count(partial_to_json(partial)),
            "full": line_count(full_to_json(result.spec)),
        }
        return infrastructure.clock.now, lines

    internet_seconds, lines = deploy_jasper(use_cache=False)
    cached_seconds, _ = deploy_jasper(use_cache=True)

    header("E4", "JasperReports (S6.1)")
    row("partial spec lines", 26, lines["partial"])
    row("full spec lines", 434, lines["full"])
    row("install (internet)", "17 min",
        f"{internet_seconds / 60:.1f} min (simulated)")
    row("install (local cache)", "5 min",
        f"{cached_seconds / 60:.1f} min (simulated)")
    row("internet/cache ratio", "3.4x",
        f"{internet_seconds / cached_seconds:.1f}x")

    header("E5", "authoring cost (S6.1)")
    import inspect

    from repro.library.java import JasperDriver, JdbcConnectorDriver

    registry = standard_registry()
    jdbc_type = len(format_resource_type(
        registry.raw(as_key("MySQL-JDBC-Connector 5.1.17"))).splitlines())
    jasper_type = len(format_resource_type(
        registry.raw(as_key("JasperReports-Server 4.2"))).splitlines())
    jasper_driver = len(inspect.getsource(JasperDriver).splitlines())
    jdbc_driver_body = len(
        [l for l in inspect.getsource(JdbcConnectorDriver).splitlines()
         if l.strip() and not l.strip().startswith(('#', '"""', "'''"))]
    )
    row("JDBC connector type lines", 40, jdbc_type)
    row("JDBC connector driver lines", 0, f"{jdbc_driver_body} (generic reuse)")
    row("Jasper type lines", 69, jasper_type)
    row("Jasper driver lines", 201, jasper_driver)


def e6() -> None:
    header("E6", "Table 1: eight Django applications")
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()
    engine = ConfigurationEngine(registry)
    deploy = DeploymentEngine(registry, infrastructure, drivers)
    print(f"  {'app':<18} {'source':<14} {'resources':<10} deployed")
    for index, app in enumerate(table1_apps()):
        key = package_application(app, registry, infrastructure)
        partial = provision_partial_spec(
            registry,
            PartialInstallSpec(
                [
                    PartialInstance(f"node{index}",
                                    as_key("Ubuntu-Linux 10.04"),
                                    config={"hostname": f"host{index}"}),
                    PartialInstance(f"app{index}", key,
                                    inside_id=f"node{index}"),
                ]
            ),
            infrastructure,
        )
        result = engine.configure(partial)
        system = deploy.deploy(result.spec)
        print(f"  {app.name:<18} {app.source:<14} {len(result.spec):<10} "
              f"{system.is_deployed()}")
    row("apps needing app-specific code", 0, 0)


def e7_e10() -> None:
    header("E7", "256 single-node configurations (S6.2)")
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    app = next(a for a in table1_apps() if a.name == "Areneae")
    app_key = package_application(app, registry, infrastructure)
    engine = ConfigurationEngine(registry)

    os_choices = ("Mac-OSX 10.5", "Mac-OSX 10.6",
                  "Ubuntu-Linux 10.04", "Ubuntu-Linux 10.10")
    web_choices = ("Gunicorn 0.13", "Apache-HTTPD 2.2")
    db_choices = ("SQLite 3.7", "MySQL 5.1")
    optional = ("Celery 2.4", "Redis 2.4", "Memcached 1.4", "Monit 5.3")
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(optional, r)
        for r in range(len(optional) + 1)))

    partials = []
    for os_key in os_choices:
        for web in web_choices:
            for db in db_choices:
                for extras in subsets:
                    instances = [
                        PartialInstance("node", as_key(os_key),
                                        config={"hostname": "n1"}),
                        PartialInstance("app", app_key, inside_id="node"),
                        PartialInstance("web", as_key(web),
                                        inside_id="node"),
                        PartialInstance("db", as_key(db), inside_id="node"),
                    ] + [
                        PartialInstance(f"opt{i}", as_key(e),
                                        inside_id="node")
                        for i, e in enumerate(extras)
                    ]
                    partials.append(PartialInstallSpec(instances))

    started = time.perf_counter()
    solved = 0
    for partial in partials:
        engine.configure(partial)
        solved += 1
    elapsed = time.perf_counter() - started
    row("configurations solved", 256, solved)
    row("sweep wall-clock", "-", f"{elapsed:.1f}s")

    session = ConfigurationSession(registry)
    started = time.perf_counter()
    for partial in partials:
        session.configure(partial)
    prime_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    for partial in partials:
        session.configure(partial)
    warm_elapsed = time.perf_counter() - started
    row("session sweep (cold caches)", "-", f"{prime_elapsed:.1f}s")
    row("session sweep (warm caches)", "-", f"{warm_elapsed:.2f}s")
    row("warm speedup over per-call", "-",
        f"{elapsed / warm_elapsed:.1f}x")
    row("graph-cache hit rate", "-",
        f"{session.stats.hit_rate:.0%}")

    header("E10", "resource census (S6.2)")
    registry2 = standard_registry()
    infrastructure2 = standard_infrastructure()
    builtin = len(registry2)
    for app in table1_apps():
        package_application(app, registry2, infrastructure2)
    row("library resources", 37, builtin)
    row("with generated app types", "-", len(registry2))


def e8() -> None:
    header("E8", "WebApp production deployment (S6.2)")
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    webapp = next(a for a in table1_apps() if a.name == "WebApp")
    app_key = package_application(webapp, registry, infrastructure)
    partial = provision_partial_spec(
        registry,
        PartialInstallSpec(
            [
                PartialInstance("webnode", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "www1"}),
                PartialInstance("dbnode", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "db1"}),
                PartialInstance("app", app_key, inside_id="webnode"),
                PartialInstance("web", as_key("Gunicorn 0.13"),
                                inside_id="webnode"),
                PartialInstance("db", as_key("MySQL 5.1"),
                                inside_id="dbnode"),
                PartialInstance("queue", as_key("RabbitMQ 2.7"),
                                inside_id="webnode"),
                PartialInstance("mon", as_key("Monit 5.3"),
                                inside_id="webnode"),
            ]
        ),
        infrastructure,
    )
    result = ConfigurationEngine(registry).configure(partial)
    partial_lines = line_count(partial_to_json(partial))
    full_lines = line_count(full_to_json(result.spec))
    row("partial spec resources", 7, len(partial))
    row("partial spec lines", 61, partial_lines)
    row("full spec resources", 29, len(result.spec))
    row("full spec lines", 1444, full_lines)
    row("expansion ratio (lines)", "23.7x",
        f"{full_lines / partial_lines:.1f}x")

    deployment = BusCoordinator(
        registry, infrastructure, standard_drivers()).deploy(result.spec)
    row("multi-host deploy", "production", deployment.is_deployed())
    row("machine order", "db before web", deployment.report.waves)


def e9() -> None:
    header("E9", "FA upgrade with rollback (S6.2)")
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    drivers = standard_drivers()
    fa_v1, fa_v2 = fa_snapshots()
    key_v1 = package_application(fa_v1, registry, infrastructure)
    key_v2 = package_application(fa_v2, registry, infrastructure)
    key_bad = package_application(fa_broken_snapshot(), registry,
                                  infrastructure)
    config_engine = ConfigurationEngine(registry)
    deploy_engine = DeploymentEngine(registry, infrastructure, drivers)
    upgrader = UpgradeEngine(config_engine, deploy_engine)

    def partial_for(key):
        return provision_partial_spec(
            registry,
            PartialInstallSpec(
                [
                    PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                    config={"hostname": "prod"}),
                    PartialInstance("app", key, inside_id="node"),
                    PartialInstance("web", as_key("Gunicorn 0.13"),
                                    inside_id="node"),
                    PartialInstance("db", as_key("MySQL 5.1"),
                                    inside_id="node"),
                ]
            ),
            infrastructure,
        )

    system = deploy_engine.deploy(
        config_engine.configure(partial_for(key_v1)).spec)
    machine = infrastructure.network.machine("prod")
    database = SimDatabase(machine.fs, "/var/lib/mysql/app.json")
    database.insert("applicants", {"id": 1, "name": "Ada", "area": "PL"})

    result = upgrader.upgrade(system, partial_for(key_v2))
    row("v1 -> v2 upgrade", "succeeds", result.succeeded)
    row("schema migrated", "yes", "decision" in database.columns("applicants"))
    row("db content preserved", "yes", database.count("applicants") == 1)

    result2 = upgrader.upgrade(result.system, partial_for(key_bad))
    row("broken upgrade rolls back", "yes", result2.rolled_back)
    row("version after rollback", "previous",
        str(result2.system.spec["app"].key))
    row("system active after rollback", "yes",
        result2.system.is_deployed())


def e11_e12() -> None:
    header("E11", "driver guards (Figure 3)")
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    engine = DeploymentEngine(registry, infrastructure, standard_drivers())
    spec = ConfigurationEngine(registry).configure(openmrs_partial()).spec
    system = engine.deploy(spec)
    starts = [a.instance_id for a in system.report.actions
              if a.action == "start"]
    row("start order respects deps", "yes",
        starts.index("mysql") < starts.index("openmrs"))
    row("sequential deploy", "-",
        f"{system.report.sequential_seconds / 60:.1f} min (simulated)")
    row("parallel makespan", "-",
        f"{system.report.critical_path_seconds / 60:.1f} min (simulated)")

    header("E12", "solver/encoding ablation")
    from repro.sat import CnfFormula, ExactlyOneEncoding, exactly_one

    for n in (10, 40, 120):
        pairwise = CnfFormula()
        exactly_one(pairwise, [pairwise.new_var() for _ in range(n)],
                    ExactlyOneEncoding.PAIRWISE)
        sequential = CnfFormula()
        exactly_one(sequential, [sequential.new_var() for _ in range(n)],
                    ExactlyOneEncoding.SEQUENTIAL)
        row(f"exactly-one clauses (n={n})",
            "O(n^2) vs O(n)",
            f"pairwise={pairwise.num_clauses} "
            f"sequential={sequential.num_clauses}")


FLEET_RESULTS = pathlib.Path(__file__).parent / "BENCH_fleet.json"


def _fleet_serial(data: dict) -> None:
    serial = data.get("serial")
    if not serial:
        print("  (no serial section -- run test_bench_fleet.py)")
        return
    print(f"  nodes/s at the largest size over the smallest "
          f"(floor {serial.get('scaling_floor')}x): "
          f"{serial.get('scaling')}")
    print(f"  {'nodes':>7} {'comps':>6} {'mono s':>9} {'part s':>9} "
          f"{'mono n/s':>10} {'part n/s':>10} {'speedup':>8}")
    for size in serial.get("sizes", []):
        print(f"  {size['nodes']:>7} {size['components']:>6} "
              f"{size['monolithic_seconds']:>9.3f} "
              f"{size['partitioned_seconds']:>9.3f} "
              f"{size['monolithic_nodes_per_sec']:>10.0f} "
              f"{size['partitioned_nodes_per_sec']:>10.0f} "
              f"{size['speedup']:>7.2f}x")


def fleet_report() -> int:
    """Render BENCH_fleet.json as one table (the --fleet mode)."""
    if not FLEET_RESULTS.exists():
        print(f"no results at {FLEET_RESULTS}; run the fleet benchmarks "
              f"first:\n  PYTHONPATH=src python -m pytest "
              f"benchmarks/test_bench_fleet.py -o addopts=")
        return 1
    data = json.loads(FLEET_RESULTS.read_text(encoding="utf-8"))
    print("fleet configuration benchmarks "
          f"({data.get('benchmark', '?')}, {data.get('cores', '?')} cores)")
    print("=" * 68)
    header("F1", "serial: partitioned vs monolithic")
    _fleet_serial(data)
    print()
    return 0


DELTA_RESULTS = pathlib.Path(__file__).parent / "BENCH_delta.json"


def _delta_elasticity(data: dict) -> None:
    elasticity = data.get("elasticity")
    if not elasticity:
        print("  (no elasticity section -- run test_bench_delta.py)")
        return
    ladder = " -> ".join(str(r) for r in elasticity.get("ladder", []))
    print(f"  ladder {ladder} replicas on {elasticity.get('machines')} "
          f"machines ({', '.join(elasticity.get('stacks', []))})")
    print(f"  {'replicas':>14} {'nodes':>7} {'diff':>6} {'plan':>6} "
          f"{'frac':>6} {'plan s':>8} {'exec s':>8}")
    for leg in elasticity.get("legs", []):
        print(f"  {leg['from_replicas']:>5} -> {leg['to_replicas']:>5} "
              f"{leg['fleet_nodes']:>7} {leg['diff_size']:>6} "
              f"{leg['plan_size']:>6} {leg['plan_fraction']:>6.2f} "
              f"{leg['plan_seconds']:>8.3f} {leg['execute_seconds']:>8.3f}")
    print(f"  fresh deploy of final goal: "
          f"{elasticity.get('fresh_deploy_seconds_final', 0):.2f}s "
          f"(equivalence + bit-identical replay asserted in-test)")


def _delta_scale(data: dict) -> None:
    scale = data.get("scale")
    if not scale:
        print("  (no scale section -- run test_bench_delta.py)")
        return
    print(f"  +{scale['grow_by']} replicas against a live "
          f"{scale['replicas']}-replica fleet "
          f"({scale['fleet_nodes']} nodes)")
    row("plan size", f"<= {scale['max_plan_fraction']:.0%} of fleet",
        f"{scale['plan_size']} steps "
        f"({scale['plan_fraction']:.2%} of fleet)")
    row("plan wall-clock", "-", f"{scale['plan_seconds']:.3f}s")
    row("delta execute", "-", f"{scale['execute_seconds']:.3f}s")
    row("worst-case full redeploy", "-",
        f"{scale['worst_case_redeploy_seconds']:.3f}s")
    row("speedup vs redeploy", ">1x",
        f"{scale['speedup_vs_redeploy']:.1f}x")


def delta_report() -> int:
    """Render BENCH_delta.json as one table (the --delta mode)."""
    if not DELTA_RESULTS.exists():
        print(f"no results at {DELTA_RESULTS}; run the delta benchmarks "
              f"first:\n  PYTHONPATH=src python -m pytest "
              f"benchmarks/test_bench_delta.py -o addopts=")
        return 1
    data = json.loads(DELTA_RESULTS.read_text(encoding="utf-8"))
    print("delta transition benchmarks "
          f"({data.get('benchmark', '?')})")
    print("=" * 68)
    header("D1", "elasticity ladder: plan size is O(diff)")
    _delta_elasticity(data)
    header("D2", "small delta against the full fleet")
    _delta_scale(data)
    print()
    return 0


BUS_RESULTS = pathlib.Path(__file__).parent / "BENCH_bus.json"


def _bus_partition_sweep(data: dict) -> None:
    sweep = data.get("partition_sweep")
    if not sweep:
        print("  (no partition_sweep section -- run test_bench_bus.py)")
        return
    print(f"  {sweep['instances']} instances on {sweep['machines']} "
          f"machines; baseline makespan "
          f"{sweep['baseline_makespan_seconds']:.0f}s")
    print(f"  {'cut s':>7} {'recover s':>10} {'msgs sent':>10} "
          f"{'lost':>7} {'retrans':>8} {'dup acks':>9}")
    for row_ in sweep.get("sweep", []):
        print(f"  {row_['partition_seconds']:>7.0f} "
              f"{row_['time_to_recover_seconds']:>10.1f} "
              f"{row_['messages_sent']:>10} "
              f"{row_['partition_losses']:>7} "
              f"{row_['retransmits']:>8} "
              f"{row_['redundant_acks']:>9}")


def _bus_failover(data: dict) -> None:
    failover = data.get("failover")
    if not failover:
        print("  (no failover section -- run test_bench_bus.py)")
        return
    row("masters", "1 + standby", "master -> master-2 at "
        f"{failover['failover_at_seconds']:.0f}s")
    row("makespan overhead", "~0s",
        f"{failover['makespan_overhead_seconds']:.1f}s")
    row("work re-executed", "0",
        f"0 (executions == {failover['machines']} machines)")
    row("message overhead", "bounded",
        f"{failover['messages_sent_failover']}"
        f" vs {failover['messages_sent_unfaulted']} unfaulted")


def bus_report() -> int:
    """Render BENCH_bus.json as one table (the --bus mode)."""
    if not BUS_RESULTS.exists():
        print(f"no results at {BUS_RESULTS}; run the bus benchmarks "
              f"first:\n  PYTHONPATH=src python -m pytest "
              f"benchmarks/test_bench_bus.py -o addopts=")
        return 1
    data = json.loads(BUS_RESULTS.read_text(encoding="utf-8"))
    print("bus control-plane benchmarks "
          f"({data.get('benchmark', '?')})")
    print("=" * 68)
    header("B1", "partition sweep: recovery tracks the cut")
    _bus_partition_sweep(data)
    header("B2", "master failover: adopt, don't redo")
    _bus_failover(data)
    print()
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fleet", action="store_true",
        help="render benchmarks/BENCH_fleet.json instead of rerunning "
             "the paper evaluation",
    )
    parser.add_argument(
        "--delta", action="store_true",
        help="render benchmarks/BENCH_delta.json instead of rerunning "
             "the paper evaluation",
    )
    parser.add_argument(
        "--bus", action="store_true",
        help="render benchmarks/BENCH_bus.json instead of rerunning "
             "the paper evaluation",
    )
    args = parser.parse_args()
    if args.fleet:
        sys.exit(fleet_report())
    if args.delta:
        sys.exit(delta_report())
    if args.bus:
        sys.exit(bus_report())
    print("Engage (PLDI 2012) -- evaluation reproduction report")
    print("=" * 68)
    e1_e2_e3()
    e4_e5()
    e6()
    e7_e10()
    e8()
    e9()
    e11_e12()
    print()
    print("=" * 68)
    print("done.")


if __name__ == "__main__":
    main()
