"""The ``engage-sim`` command-line interface.

The paper's Engage was a command-line deployment tool; this module is
the reproduction's equivalent, driving the whole pipeline from files:

* ``check``      parse DSL files, run well-formedness and report;
* ``configure``  expand a JSON partial spec to a full spec;
* ``graph``      print the dependency hypergraph (Figure 5 style);
* ``explain``    diagnose an unsatisfiable partial spec;
* ``deploy``     configure and run a simulated deployment (optionally
  traced: ``--trace FILE`` / ``--metrics``);
* ``trace``      render a saved bundle's journal as Chrome trace-event
  JSON, or validate an existing trace file.

Every command accepts ``--types FILE ...`` to load DSL resource files;
by default the built-in standard library is preloaded (disable with
``--no-stdlib``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence, TextIO

from repro.core import ResourceTypeRegistry, assert_well_formed, check_registry
from repro.core.errors import EngageError
from repro.core.jsontext import indented
from repro.config import (
    ConfigurationEngine,
    ConfigurationSession,
    explain_message,
    generate_graph,
)
from repro.dsl import (
    full_to_json,
    line_count,
    load_resources,
    partial_from_json,
    partial_to_json,
)
from repro.library import (
    ensure_artifact,
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import (
    BusReport,
    DeploymentEngine,
    provision_partial_spec,
)


def _build_registry(args) -> ResourceTypeRegistry:
    registry = (
        ResourceTypeRegistry() if args.no_stdlib else standard_registry()
    )
    for path in args.types or ():
        with open(path, "r", encoding="utf-8") as handle:
            load_resources(handle.read(), registry)
    return registry


def _read_partial(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return partial_from_json(handle.read())


def cmd_check(args, out: TextIO) -> int:
    registry = _build_registry(args)
    problems = check_registry(registry)
    out.write(f"{len(registry)} resource types loaded\n")
    if problems:
        out.write("well-formedness problems:\n")
        for problem in problems:
            out.write(f"  {problem}\n")
        return 1
    out.write("well-formed.\n")
    return 0


def _run_stats(path: str, result) -> dict:
    """One configure call's stats, JSON-shaped (for --stats-json)."""
    import dataclasses

    payload = {
        "partial": path,
        "instances": len(result.spec),
        "timings": dataclasses.asdict(result.timings),
        "constraint_stats": dataclasses.asdict(result.constraint_stats),
        "solver_stats": dataclasses.asdict(result.solver_stats),
        "cache": (
            dataclasses.asdict(result.cache)
            if result.cache is not None else None
        ),
        "partition": None,
    }
    if result.partition is not None:
        info = result.partition
        payload["partition"] = {
            "count": info.count,
            "largest": info.largest,
            "partition_ms": info.partition_ms,
            "components": [
                dataclasses.asdict(component)
                for component in info.components
            ],
        }
    return payload


def _write_stats_json(path: str, runs: list, out: TextIO) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(indented({"runs": runs}, 1) + "\n")
    out.write(f"stats written to {path} ({len(runs)} run(s))\n")


def cmd_configure(args, out: TextIO) -> int:
    registry = _build_registry(args)
    paths = args.partial
    runs: list = []
    if not args.session:
        if len(paths) > 1 or args.repeat != 1:
            out.write(
                "error: multiple partial specs / --repeat require --session\n"
            )
            return 2
        partial = _read_partial(paths[0])
        result = ConfigurationEngine(
            registry, partition=args.partition
        ).configure(partial)
        if args.stats_json:
            _write_stats_json(
                args.stats_json, [_run_stats(paths[0], result)], out
            )
        return _write_full_spec(result, args, out)
    if args.output and len(paths) > 1:
        out.write("error: --output only works with a single partial spec\n")
        return 2
    partials = [_read_partial(path) for path in paths]
    session = ConfigurationSession(registry, partition=args.partition)
    result = None
    for round_number in range(args.repeat):
        for path, partial in zip(paths, partials):
            result = session.configure(partial)
            if args.stats_json:
                runs.append(_run_stats(path, result))
            cache = result.cache
            flags = ", ".join(
                name
                for name, on in (
                    ("graph-hit", cache.graph_hit),
                    ("cnf-hit", cache.cnf_hit),
                    ("solver-reused", cache.solver_reused),
                    ("spec-reused", cache.spec_reused),
                )
                if on
            ) or "cold"
            components = ""
            if result.partition is not None:
                components = f", {result.partition.count} components"
                if not cache.graph_hit:
                    components += f" ({cache.components_reused} reused)"
            out.write(
                f"[{round_number + 1}] {path}: "
                f"{len(result.spec)} instances "
                f"in {result.timings.total_ms:.2f} ms "
                f"({flags}{components})\n"
            )
    stats = session.stats
    out.write(
        f"session: {stats.configure_calls} calls, "
        f"{stats.graph_hits} graph hits / {stats.graph_misses} misses, "
        f"{stats.solver_reuses} solver reuses, "
        f"{stats.typecheck_skips} spec reuses, "
        f"{stats.components_reused} of {stats.components_total} "
        "components reused on graph misses\n"
    )
    if args.stats_json:
        _write_stats_json(args.stats_json, runs, out)
    if args.output and result is not None:
        return _write_full_spec(result, args, out)
    return 0


def _write_full_spec(result, args, out: TextIO) -> int:
    text = full_to_json(result.spec)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        out.write(
            f"wrote {len(result.spec)} instances "
            f"({line_count(text)} lines) to {args.output}\n"
        )
        if result.partition is not None:
            info = result.partition
            out.write(
                f"partitioned: {info.count} components "
                f"(largest {info.largest} nodes)\n"
            )
    else:
        out.write(text)
    return 0


def cmd_graph(args, out: TextIO) -> int:
    registry = _build_registry(args)
    partial = _read_partial(args.partial)
    graph = generate_graph(registry, partial)
    if getattr(args, "dot", False):
        from repro.dsl import graph_to_dot

        out.write(graph_to_dot(graph))
        return 0
    out.write(f"{len(graph)} instance nodes:\n")
    for node in graph.nodes():
        marker = " *" if node.from_partial else ""
        out.write(f"  {node.instance_id}: {node.key}{marker}\n")
    out.write(f"{len(graph.edges())} hyperedges:\n")
    for edge in graph.edges():
        out.write(f"  {edge}\n")
    return 0


def cmd_explain(args, out: TextIO) -> int:
    registry = _build_registry(args)
    partial = _read_partial(args.partial)
    message = explain_message(registry, partial)
    if message is None:
        out.write("satisfiable: a full installation specification exists.\n")
        return 0
    out.write(message + "\n")
    return 1


def _ordered_types(registry: ResourceTypeRegistry) -> list:
    """Raw types ordered so supertypes precede subtypes (reloadable)."""
    emitted: list = []
    done: set = set()
    pending = [registry.raw(key) for key in registry.keys()]
    while pending:
        progressed = False
        remaining = []
        for resource_type in pending:
            if resource_type.extends is None or resource_type.extends in done:
                emitted.append(resource_type)
                done.add(resource_type.key)
                progressed = True
            else:
                remaining.append(resource_type)
        pending = remaining
        if not progressed:  # extends chain outside the registry
            emitted.extend(pending)
            break
    return emitted


def cmd_render(args, out: TextIO) -> int:
    """Pretty-print every loaded resource type back to DSL text."""
    from repro.dsl import format_module

    registry = _build_registry(args)
    out.write(format_module(_ordered_types(registry)))
    return 0


def cmd_dimacs(args, out: TextIO) -> int:
    """Emit the generated Boolean constraints in DIMACS CNF."""
    from repro.config import generate_constraints
    from repro.sat import dimacs_text

    registry = _build_registry(args)
    partial = _read_partial(args.partial)
    graph = generate_graph(registry, partial)
    formula, stats = generate_constraints(graph)
    out.write(dimacs_text(formula))
    out.write(
        f"c {stats.variables} vars, {stats.clauses} clauses, "
        f"{stats.facts} facts, {stats.hyperedges} hyperedges\n"
    )
    return 0


BUNDLE_FORMAT = "engage-bundle-1"


def _save_bundle(path: str, registry, infrastructure, system) -> None:
    """Persist world + deployment state (journal included, so every
    bundle is resumable with ``engage-sim deploy --resume``) + resource
    types in one file."""
    from repro.dsl import format_module
    from repro.runtime import system_payload
    from repro.sim import world_payload

    bundle = {
        "format": BUNDLE_FORMAT,
        "types": format_module(_ordered_types(registry)),
        "world": world_payload(infrastructure),
        "state": system_payload(system),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(indented(bundle, 1) + "\n")


def _load_bundle(path: str):
    """Rebuild (registry, infrastructure, drivers, system) from a
    bundle; the bundle's journal is ``system.journal``.  Its types must
    be well-formed, or no command works on it."""
    import json

    from repro.core.errors import RuntimeEngageError, document_section
    from repro.runtime import system_from_payload
    from repro.sim import world_from_payload

    with open(path, "r", encoding="utf-8") as handle:
        try:
            bundle = json.load(handle)
        except json.JSONDecodeError as exc:
            raise RuntimeEngageError(f"malformed bundle: {exc}") from exc
    if not isinstance(bundle, dict) or bundle.get("format") != BUNDLE_FORMAT:
        found = bundle.get("format") if isinstance(bundle, dict) else bundle
        raise RuntimeEngageError(f"unsupported bundle format: {found!r}")
    types, world, state = (
        document_section(
            bundle, name, kind, of="bundle", error=RuntimeEngageError
        )
        for name, kind in (("types", str), ("world", dict), ("state", dict))
    )
    registry = ResourceTypeRegistry()
    load_resources(types, registry)
    assert_well_formed(registry)
    infrastructure = world_from_payload(world)
    drivers = standard_drivers()
    drivers.set_fallback("service")
    system = system_from_payload(registry, infrastructure, drivers, state)
    return registry, infrastructure, drivers, system


def cmd_status(args, out: TextIO) -> int:
    _, infrastructure, _, system = _load_bundle(args.bundle)
    if getattr(args, "json", False):
        from repro.runtime import detect_drift

        journal = system.journal
        drift = detect_drift(system)
        payload = {
            "bundle": args.bundle,
            "clock_seconds": infrastructure.clock.now,
            "converged": drift.is_converged,
            "instances": system.states(),
            "drift": drift.to_payload(),
            "journal": {
                "target": journal.target,
                "entries": len(journal.entries),
                "completed": len(journal.completed),
                "failed": sorted(journal.failed),
                "skipped": sorted(journal.skipped),
                "frontier": journal.states(),
            },
        }
        out.write(indented(payload, 1) + "\n")
        return 0 if drift.is_converged else 1
    out.write(system.describe() + "\n")
    out.write(
        f"simulated clock: {infrastructure.clock.now / 60:.1f} minutes\n"
    )
    return 0 if system.is_deployed() else 1


def cmd_stop(args, out: TextIO) -> int:
    registry, infrastructure, drivers, system = _load_bundle(args.bundle)
    DeploymentEngine(registry, infrastructure, drivers).shutdown(system)
    _save_bundle(args.bundle, registry, infrastructure, system)
    out.write("stopped; bundle updated.\n")
    return 0


def cmd_start(args, out: TextIO) -> int:
    registry, infrastructure, drivers, system = _load_bundle(args.bundle)
    DeploymentEngine(registry, infrastructure, drivers).start(system)
    _save_bundle(args.bundle, registry, infrastructure, system)
    out.write("started; bundle updated.\n")
    return 0 if system.is_deployed() else 1


def _load_goal_partial(args, registry, infrastructure):
    """Merge ``--types`` into a bundle's registry, publish any new
    artifacts, and read + provision the new goal's partial spec --
    shared by ``upgrade``, ``plan``, and ``deploy --delta``."""
    from repro.dsl import lower_module, parse_module

    for path in getattr(args, "types", None) or ():
        with open(path, "r", encoding="utf-8") as handle:
            # Skip types the bundle already carries (same key).
            for resource_type in lower_module(
                parse_module(handle.read()), registry
            ):
                if not registry.has(resource_type.key):
                    registry.register(resource_type)
    _publish_missing_artifacts(registry, infrastructure)
    partial = _read_partial(args.partial)
    return provision_partial_spec(registry, partial, infrastructure)


def cmd_upgrade(args, out: TextIO) -> int:
    """Upgrade a saved deployment to a new partial specification."""
    from repro.runtime import UpgradeEngine

    registry, infrastructure, drivers, system = _load_bundle(args.bundle)
    partial = _load_goal_partial(args, registry, infrastructure)
    config_engine = ConfigurationEngine(registry)
    deploy_engine = DeploymentEngine(registry, infrastructure, drivers)
    upgrader = UpgradeEngine(config_engine, deploy_engine)
    result = upgrader.upgrade(system, partial, strategy=args.strategy)
    if result.succeeded:
        changed = (
            result.diff.upgraded + result.diff.reconfigured
            + result.diff.moved
        )
        out.write(
            f"upgrade succeeded ({args.strategy}); "
            f"changed: {changed}, "
            f"added: {result.diff.added}, removed: {result.diff.removed}\n"
        )
    else:
        out.write(
            f"upgrade FAILED and was rolled back: {result.error}\n"
        )
    _save_bundle(args.bundle, registry, infrastructure, result.system)
    out.write("bundle updated.\n")
    return 0 if result.succeeded else 1


def cmd_plan(args, out: TextIO) -> int:
    """Dry-run a delta transition: print the plan as JSON, touch
    nothing."""
    from repro.runtime import plan_delta

    registry, infrastructure, _, system = _load_bundle(args.bundle)
    partial = _load_goal_partial(args, registry, infrastructure)
    config_engine = ConfigurationEngine(registry)
    new_spec = config_engine.configure(partial).spec
    delta = plan_delta(system, new_spec)
    payload = delta.to_payload()
    payload["bundle"] = args.bundle
    text = indented(payload, 1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        out.write(
            f"plan written to {args.output} ({len(delta)} step(s) for a "
            f"{len(new_spec)}-instance goal)\n"
        )
    else:
        out.write(text)
    return 0


def cmd_inject_fault(args, out: TextIO) -> int:
    """Fail a running service process (testing/chaos helper)."""
    registry, infrastructure, drivers, system = _load_bundle(args.bundle)
    driver = system.drivers.get(args.instance)
    if driver is None:
        out.write(f"error: no instance {args.instance!r}\n")
        return 2
    process = getattr(driver, "process", None)
    if process is None or not process.is_running():
        out.write(f"error: {args.instance!r} has no running process\n")
        return 2
    process.fail()
    machine = system.machine_for(args.instance)
    _save_bundle(args.bundle, registry, infrastructure, system)
    out.write(
        f"failed process {process.name!r} (instance {args.instance!r}) "
        f"on {machine.hostname}; bundle updated.\n"
    )
    return 0


def cmd_reconcile(args, out: TextIO) -> int:
    """Run the autonomic reconcile loop against a saved deployment."""
    from repro.runtime import ReconcileController
    from repro.sim import MachineChurn

    registry, infrastructure, drivers, system = _load_bundle(args.bundle)
    tracer = _install_tracer(args, infrastructure)
    engine = _engine_from_args(args, registry, infrastructure, drivers)
    churn = None
    if args.churn_rate > 0.0:
        churn = MachineChurn(
            system, seed=args.churn_seed, rate=args.churn_rate
        )
        out.write(
            f"churn: losing machines (seed={args.churn_seed}, "
            f"rate={args.churn_rate})\n"
        )
    watching = args.watch or churn is not None
    controller = ReconcileController(
        engine, system, interval=args.interval if watching else 0.0
    )
    rounds = args.max_rounds if watching else 1
    result = controller.run(rounds=rounds, churn=churn)
    for round_ in result.rounds:
        status = "converged" if round_.converged else "DRIFTED"
        detail = ""
        if round_.drift_items:
            kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(round_.drift_by_kind.items())
            )
            detail = (
                f" drift={round_.drift_items} ({kinds}) "
                f"plan={round_.plan_size} "
                f"repair={round_.time_to_repair:.1f}s"
            )
        if round_.error:
            detail += f" error: {round_.error}"
        out.write(f"round {round_.index}: {status}{detail}\n")
    if result.rounds_with_drift:
        out.write(
            f"median time-to-repair: "
            f"{result.median_time_to_repair:.1f}s over "
            f"{result.rounds_with_drift} drifted round(s)\n"
        )
    if args.json:
        out.write(indented(result.to_payload(), 1) + "\n")
    _finish_trace(args, tracer, out)
    if result.converged:
        _save_bundle(args.bundle, registry, infrastructure, system)
        out.write("converged; bundle updated.\n")
        return 0
    out.write("NOT converged; bundle left untouched.\n")
    return 1


def _publish_missing_artifacts(registry, infrastructure) -> None:
    from repro.drivers import package_slug

    for key in registry.keys():
        resource_type = registry.effective(key)
        if not resource_type.abstract and not resource_type.is_machine():
            ensure_artifact(
                infrastructure, package_slug(key.name), str(key.version)
            )


def _retry_policy_from_args(args):
    """A RetryPolicy when any retry flag was given, else None."""
    from repro.runtime import RetryPolicy

    if not (
        args.max_retries > 0
        or args.backoff is not None
        or args.timeout is not None
    ):
        return None
    return RetryPolicy(
        max_attempts=args.max_retries + 1,
        backoff_base=args.backoff if args.backoff is not None else 1.0,
        action_timeout=args.timeout,
    )


def _engine_from_args(args, registry, infrastructure, drivers):
    """The engine of ``deploy`` and ``reconcile``: the command's retry
    flags and worker bounds, set once for every pass it runs."""
    return DeploymentEngine(
        registry, infrastructure, drivers,
        policy=_retry_policy_from_args(args),
        jobs=args.jobs, jobs_per_host=args.jobs_per_host,
    )


def _install_tracer(args, infrastructure):
    """A Tracer on the infrastructure when --trace/--metrics was given."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics", False)):
        return None
    from repro.obs import Tracer

    tracer = Tracer(clock=infrastructure.clock)
    infrastructure.set_tracer(tracer)
    return tracer


def _finish_trace(args, tracer, out: TextIO) -> None:
    """Write the trace file and/or metrics summary after a deploy."""
    if tracer is None:
        return
    if args.trace:
        from repro.obs import write_trace

        write_trace(args.trace, tracer)
        out.write(
            f"trace written to {args.trace} ({len(tracer)} events)\n"
        )
    if args.metrics:
        out.write(tracer.metrics.render())


def _install_chaos(args, infrastructure, out: TextIO) -> None:
    """Install a seeded fault plan when --chaos-rate was given."""
    if getattr(args, "chaos_rate", 0.0) > 0.0:
        from repro.sim import FaultPlan

        infrastructure.set_fault_plan(
            FaultPlan.seeded(args.chaos_seed, args.chaos_rate)
        )
        out.write(
            f"chaos: injecting faults (seed={args.chaos_seed}, "
            f"rate={args.chaos_rate})\n"
        )


def _write_deploy_outcome(system, infrastructure, out: TextIO) -> None:
    out.write("deployment state:\n")
    for instance in system.spec.topological_order():
        out.write(
            f"  {instance.id:<16} {str(instance.key):<28} "
            f"{system.state_of(instance.id)}\n"
        )
    report = system.report
    if report is not None and report.retries:
        out.write(
            f"recovered from {report.retries} failed attempt(s), "
            f"{report.total_backoff_seconds:.1f}s total backoff\n"
        )
    if report is not None and report.jobs != 1:
        jobs_label = "unbounded" if report.jobs == 0 else str(report.jobs)
        speedup = (
            report.sequential_seconds / report.makespan_seconds
            if report.makespan_seconds > 0
            else 1.0
        )
        out.write(
            f"parallel deploy (jobs={jobs_label}): makespan "
            f"{report.makespan_seconds:.1f}s vs sequential "
            f"{report.sequential_seconds:.1f}s "
            f"(speedup {speedup:.2f}x, critical path "
            f"{report.critical_path_seconds:.1f}s)\n"
        )
    out.write(
        f"simulated time: {infrastructure.clock.now / 60:.1f} minutes\n"
    )
    if isinstance(report, BusReport):
        _write_bus_report(report, out)


def _write_bus_report(report, out: TextIO) -> None:
    stats = report.bus_stats
    out.write(
        f"bus: {stats['total_sent']} messages sent, "
        f"{stats['total_delivered']} delivered, "
        f"{stats['dropped']} dropped, "
        f"{stats['partition_losses']} lost to partitions\n"
    )
    out.write(
        f"control plane: {report.retransmits} retransmit(s), "
        f"{report.redundant_acks} redundant ack(s), "
        f"{report.crashes} crash(es), {len(report.rejoins)} rejoin(s), "
        f"{report.loop_instants} instants, "
        f"{report.node_steps} node steps, "
        f"masters: {', '.join(report.masters)}\n"
    )
    if report.partition is not None:
        out.write(
            f"partition: at {report.partition['at']:.1f}s for "
            f"{report.partition['for']:.1f}s "
            f"({', '.join(report.partition['slaves'])})\n"
        )
    if report.failover is not None:
        out.write(
            f"failover: {report.failover['master']} adopted at "
            f"{report.failover['at']:.1f}s\n"
        )
    out.write(
        f"waves: {len(report.waves)}; makespan "
        f"{report.makespan_seconds:.1f}s vs sequential "
        f"{report.sequential_seconds:.1f}s\n"
    )


def _write_failure(failure, out: TextIO) -> None:
    out.write(f"deployment FAILED: {failure}\n")
    out.write(f"  completed: {sorted(failure.completed)}\n")
    out.write(f"  failed:    {sorted(failure.failed)}\n")
    out.write(f"  skipped:   {sorted(failure.skipped)}\n")
    if failure.report is not None and failure.report.retries:
        out.write(
            f"  attempts:  {failure.report.retries} failed attempt(s), "
            f"{failure.report.total_backoff_seconds:.1f}s total backoff\n"
        )


#: The ``deploy`` flags that shape the bus control plane, by the keyword
#: of :class:`LinkFaultPlan` / :class:`BusChaos` each one sets.  They are
#: declared ``default=SUPPRESS``: one is in ``args`` only when given --
#: an error without ``--bus`` -- and the defaults are the two classes'.
_LINK_FAULT_FLAGS = {
    "bus_seed": "seed", "bus_drop": "drop", "bus_dup": "duplicate",
    "bus_jitter": "jitter",
}
_BUS_CHAOS_FLAGS = {
    "partition_at": "partition_at", "partition_for": "partition_for",
    "failover_at": "failover_at", "crash_slave": "crash_machine",
    "crash_after": "crash_after_actions", "rejoin_after": "crash_down_for",
}


def _given(args, flags: dict) -> dict:
    return {
        keyword: getattr(args, flag)
        for flag, keyword in flags.items() if hasattr(args, flag)
    }


def _misused_bus_flags(args) -> Optional[str]:
    """What is wrong with the command's bus flags, if anything."""
    if args.bus:
        for mode in ("resume", "delta"):
            if getattr(args, mode):
                return (
                    "--bus coordinates a first deployment; it cannot be "
                    f"combined with --{mode}"
                )
        return None
    for flag in (*_LINK_FAULT_FLAGS, *_BUS_CHAOS_FLAGS):
        if hasattr(args, flag):
            return f"--{flag.replace('_', '-')} needs --bus"
    return None


#: Numeric flags by the range their value must lie in.  A library
#: constructor refuses the same values with a ``ValueError``; the CLI
#: refuses them before it loads or configures anything.
_FLAG_RANGES = (
    (("chaos_rate", "churn_rate", "bus_drop", "bus_dup"), "in [0, 1]",
     lambda value: 0 <= value <= 1),
    (("bus_jitter", "backoff", "interval", "max_retries", "jobs",
      "jobs_per_host"), ">= 0", lambda value: value >= 0),
    (("timeout",), "> 0", lambda value: value > 0),
    (("max_rounds", "repeat"), ">= 1", lambda value: value >= 1),
)


def _out_of_range_flag(args) -> Optional[str]:
    """The first numeric flag of the command outside its range, if any."""
    for flags, bound, within in _FLAG_RANGES:
        for flag in flags:
            value = getattr(args, flag, None)
            if value is not None and not within(value):
                return (
                    f"--{flag.replace('_', '-')} must be {bound}, "
                    f"got {value}"
                )
    return None


def _bus_coordinator_from_args(args, registry, infrastructure, drivers):
    """The ``--bus`` counterpart of :func:`_engine_from_args`."""
    from repro.runtime import BusCoordinator
    from repro.sim.faults import LinkFaultPlan

    link = _given(args, _LINK_FAULT_FLAGS)
    return BusCoordinator(
        registry, infrastructure, drivers,
        policy=_retry_policy_from_args(args),
        jobs=args.jobs, jobs_per_host=args.jobs_per_host,
        link_faults=LinkFaultPlan(**link) if link else None,
    )


def _run_deployment(
    args, run, registry, infrastructure, tracer, save_to, out: TextIO
) -> int:
    """Run one deployment pass (``run()`` returns the system) and
    report it: the outcome, or the failure with its resumable bundle;
    then the bundle and -- however the pass ended -- the trace."""
    from repro.core.errors import DeploymentFailure

    try:
        system = run()
    except DeploymentFailure as failure:
        _write_failure(failure, out)
        if save_to:
            _save_bundle(save_to, registry, infrastructure, failure.system)
            out.write(
                f"resumable bundle saved to {save_to} "
                f"(finish with: deploy --resume {save_to})\n"
            )
        return 1
    else:
        _write_deploy_outcome(system, infrastructure, out)
        if save_to:
            _save_bundle(save_to, registry, infrastructure, system)
            out.write(f"bundle saved to {save_to}\n")
        return 0 if system.is_deployed() else 1
    finally:
        _finish_trace(args, tracer, out)


def cmd_deploy(args, out: TextIO) -> int:
    misuse = _misused_bus_flags(args)
    if misuse:
        out.write(f"error: {misuse}\n")
        return 2
    if args.delta:
        if not args.partial:
            out.write(
                "error: a partial spec (the new goal) is required with "
                "--delta\n"
            )
            return 2
        from repro.runtime import execute_delta, plan_delta

        registry, infrastructure, drivers, system = _load_bundle(args.delta)
        tracer = _install_tracer(args, infrastructure)
        partial = _load_goal_partial(args, registry, infrastructure)
        config_engine = ConfigurationEngine(registry)
        new_spec = config_engine.configure(partial).spec
        delta = plan_delta(system, new_spec)
        by_op = ", ".join(
            f"{op}: {count}" for op, count in sorted(delta.plan.by_op().items())
        )
        out.write(
            f"delta plan: {len(delta)} step(s) toward a "
            f"{len(new_spec)}-instance goal"
            + (f" ({by_op})" if by_op else " (nothing to do)")
            + "\n"
        )
        _install_chaos(args, infrastructure, out)
        engine = _engine_from_args(args, registry, infrastructure, drivers)
        return _run_deployment(
            args,
            lambda: execute_delta(engine, system, delta).system,
            registry, infrastructure, tracer, args.save or args.delta, out,
        )

    if args.resume:
        registry, infrastructure, drivers, system = _load_bundle(args.resume)
        journal = system.journal
        if not (journal.entries or journal.completed or journal.failed):
            out.write(
                f"error: {args.resume} has no deployment journal to "
                "resume from\n"
            )
            return 2
        tracer = _install_tracer(args, infrastructure)
        _install_chaos(args, infrastructure, out)
        engine = _engine_from_args(args, registry, infrastructure, drivers)
        out.write(
            f"resuming: {len(journal.completed)} of "
            f"{len(journal.spec)} instances already deployed\n"
        )
        return _run_deployment(
            args, lambda: engine.resume(journal),
            registry, infrastructure, tracer, args.save or args.resume, out,
        )

    if not args.partial:
        out.write("error: a partial spec is required (or use --resume)\n")
        return 2
    registry = _build_registry(args)
    partial = _read_partial(args.partial)
    infrastructure = standard_infrastructure()
    tracer = _install_tracer(args, infrastructure)
    # Make sure DSL-defined packages have downloadable artifacts.
    _publish_missing_artifacts(registry, infrastructure)
    drivers = standard_drivers()
    drivers.set_fallback("service")

    partial = provision_partial_spec(registry, partial, infrastructure)
    engine = ConfigurationEngine(registry, tracer=tracer)
    result = engine.configure(partial)
    out.write(
        f"configured {len(result.spec)} instances from "
        f"{len(partial)} in the partial specification\n"
    )
    _install_chaos(args, infrastructure, out)
    if args.bus:
        from repro.runtime import BusChaos

        coordinator = _bus_coordinator_from_args(
            args, registry, infrastructure, drivers
        )
        chaos = BusChaos(**_given(args, _BUS_CHAOS_FLAGS))
        run = lambda: coordinator.deploy(result.spec, chaos=chaos)
    else:
        deploy = _engine_from_args(args, registry, infrastructure, drivers)
        run = lambda: deploy.deploy(result.spec)
    return _run_deployment(
        args, run, registry, infrastructure, tracer, args.save, out
    )


def cmd_trace(args, out: TextIO) -> int:
    """Render a saved bundle's journal into a Chrome trace file (one
    instant per entry, on its machine's lane), or validate an existing
    trace file against the schema."""
    import json

    from repro.obs import (
        chrome_trace_json,
        trace_from_journal,
        validate_chrome_trace,
    )

    if args.validate:
        with open(args.validate, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                out.write(f"invalid trace: not JSON ({exc})\n")
                return 1
        problems = validate_chrome_trace(payload)
        if problems:
            out.write("invalid Chrome trace:\n")
            for problem in problems:
                out.write(f"  {problem}\n")
            return 1
        out.write(
            f"valid Chrome trace: "
            f"{len(payload['traceEvents'])} events\n"
        )
        return 0

    if not args.bundle:
        out.write("error: a bundle is required (or use --validate)\n")
        return 2
    _, _, _, system = _load_bundle(args.bundle)
    host_of = {
        instance.id: system.machine_for(instance.id).hostname
        for instance in system.spec
    }
    events = trace_from_journal(system.journal.entries, lane_of=host_of)
    text = chrome_trace_json(events, metadata={"bundle": args.bundle})
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        out.write(
            f"trace written to {args.output} ({len(events)} events)\n"
        )
    else:
        out.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engage-sim",
        description="Engage deployment management (PLDI 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_partial: bool = True):
        p.add_argument(
            "--types", action="append", metavar="FILE", default=[],
            help="a DSL resource file to load (repeatable)",
        )
        p.add_argument(
            "--no-stdlib", action="store_true",
            help="do not preload the built-in resource library",
        )
        if with_partial:
            p.add_argument(
                "partial", metavar="PARTIAL_SPEC.json",
                help="partial installation specification (Figure 2 JSON)",
            )

    check = sub.add_parser("check", help="validate DSL resource files")
    common(check, with_partial=False)

    configure = sub.add_parser(
        "configure", help="expand a partial spec to a full spec"
    )
    common(configure, with_partial=False)
    configure.add_argument(
        "partial", metavar="PARTIAL_SPEC.json", nargs="+",
        help="partial installation specification(s) (Figure 2 JSON)",
    )
    configure.add_argument(
        "-o", "--output", metavar="FILE", help="write the full spec here"
    )
    configure.add_argument(
        "--session", action="store_true",
        help="run through an incremental ConfigurationSession and report "
        "per-call timing and cache hits",
    )
    configure.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="with --session: configure each partial spec N times",
    )
    configure.add_argument(
        "--partition", dest="partition", action="store_true", default=False,
        help="split the hypergraph into connected components and solve "
        "each independently (bit-identical result, faster on fleets)",
    )
    configure.add_argument(
        "--no-partition", dest="partition", action="store_false",
        help="force the monolithic single-formula pipeline (default)",
    )
    configure.add_argument(
        "--stats-json", dest="stats_json", metavar="FILE",
        help="write phase timings and per-component stats for every "
        "configure call as JSON",
    )

    graph = sub.add_parser("graph", help="print the dependency hypergraph")
    common(graph)
    graph.add_argument(
        "--dot", action="store_true",
        help="emit Graphviz DOT instead of text (Figure 5 style)",
    )

    explain = sub.add_parser(
        "explain", help="diagnose an unsatisfiable partial spec"
    )
    common(explain)

    deploy = sub.add_parser(
        "deploy", help="configure and run a simulated deployment"
    )
    common(deploy, with_partial=False)
    deploy.add_argument(
        "partial", metavar="PARTIAL_SPEC.json", nargs="?",
        help="partial installation specification (Figure 2 JSON); "
        "omit when using --resume",
    )
    deploy.add_argument(
        "--save", metavar="BUNDLE",
        help="persist world + deployment for later status/stop/start; "
        "on failure the bundle is resumable",
    )
    deploy.add_argument(
        "--resume", metavar="BUNDLE",
        help="resume an interrupted deployment from its journal "
        "(a bundle written by a failed 'deploy --save')",
    )
    deploy.add_argument(
        "--delta", metavar="BUNDLE",
        help="transition the deployment saved in BUNDLE to the given "
        "partial spec by planning only the difference (journalled and "
        "resumable, unlike 'upgrade'); saves back to BUNDLE unless "
        "--save is given",
    )
    deploy.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry each failing driver action up to N times "
        "(transient faults only; default 0)",
    )
    deploy.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help="base backoff between retries (exponential, deterministic "
        "jitter; default 1.0 when retries are enabled)",
    )
    deploy.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-action simulated-time budget; hung actions are "
        "abandoned (and retried) after this long",
    )
    deploy.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="deploy with N simulated workers in dependency order "
        "(0 = unbounded; default: 1, one instance at a time)",
    )
    deploy.add_argument(
        "--jobs-per-host", type=int, default=None, metavar="N",
        help="with --jobs: at most N concurrent instances per target "
        "machine",
    )
    deploy.add_argument(
        "--bus", action="store_true",
        help="coordinate the deployment over the simulated message bus "
        "(master/slave control plane; enables the fault flags below)",
    )
    # In ``args`` only when given: see ``_LINK_FAULT_FLAGS``.
    bus_flag = functools.partial(
        deploy.add_argument, default=argparse.SUPPRESS
    )
    bus_flag(
        "--bus-seed", type=int, metavar="SEED",
        help="seed for --bus-drop/--bus-dup/--bus-jitter link faults",
    )
    bus_flag(
        "--bus-drop", type=float, metavar="RATE",
        help="with --bus: drop this fraction of messages (0..1)",
    )
    bus_flag(
        "--bus-dup", type=float, metavar="RATE",
        help="with --bus: duplicate this fraction of messages (0..1)",
    )
    bus_flag(
        "--bus-jitter", type=float, metavar="SECONDS",
        help="with --bus: add up to this much random delivery delay "
        "(reorders messages)",
    )
    bus_flag(
        "--partition-at", type=float, metavar="SECONDS",
        help="with --bus: cut the network between master and slaves "
        "this long after the deployment starts",
    )
    bus_flag(
        "--partition-for", type=float, metavar="SECONDS",
        help="with --partition-at: heal the partition after this long "
        "(default 30)",
    )
    bus_flag(
        "--failover-at", type=float, metavar="SECONDS",
        help="with --bus: kill the master at this time; a standby "
        "adopts the control log and finishes the deployment",
    )
    bus_flag(
        "--crash-slave", metavar="MACHINE",
        help="with --bus: crash this slave machine mid-deploy; it "
        "rejoins and resumes from its write-ahead journal",
    )
    bus_flag(
        "--crash-after", type=int, metavar="N",
        help="with --crash-slave: crash after N driver actions "
        "(default 3)",
    )
    bus_flag(
        "--rejoin-after", type=float, metavar="SECONDS",
        help="with --crash-slave: rejoin this long after the crash "
        "(default 25)",
    )
    deploy.add_argument(
        "--chaos-rate", type=float, default=0.0, metavar="RATE",
        help="inject deterministic transient faults into this fraction "
        "of driver actions (0..1; testing helper)",
    )
    deploy.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed for --chaos-rate fault decisions",
    )
    deploy.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace-event JSON file of the deployment "
        "(open in Perfetto or chrome://tracing)",
    )
    deploy.add_argument(
        "--metrics", action="store_true",
        help="print a plain-text metrics summary after the deployment",
    )

    status = sub.add_parser(
        "status", help="show the state of a saved deployment"
    )
    status.add_argument(
        "bundle", metavar="BUNDLE",
        help="bundle file written by 'deploy --save'",
    )
    status.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable drift/journal summary (exit 0 "
        "iff the deployment matches its goal)",
    )

    for name, help_text in (
        ("stop", "stop a saved deployment (reverse dependency order)"),
        ("start", "start a saved deployment (dependency order)"),
    ):
        manage = sub.add_parser(name, help=help_text)
        manage.add_argument(
            "bundle", metavar="BUNDLE",
            help="bundle file written by 'deploy --save'",
        )

    upgrade = sub.add_parser(
        "upgrade", help="upgrade a saved deployment to a new partial spec"
    )
    upgrade.add_argument("bundle", metavar="BUNDLE")
    upgrade.add_argument("partial", metavar="NEW_PARTIAL_SPEC.json")
    upgrade.add_argument(
        "--types", action="append", metavar="FILE", default=[],
        help="additional DSL resource files (e.g. the new version's type)",
    )
    upgrade.add_argument(
        "--strategy", choices=("replace", "delta"),
        default="replace",
        help="worst-case replace (paper) or delta (planner-driven)",
    )

    plan = sub.add_parser(
        "plan",
        help="dry-run a delta transition: print the spec-to-spec plan "
        "as JSON without executing it",
    )
    plan.add_argument(
        "bundle", metavar="BUNDLE",
        help="bundle file written by 'deploy --save'",
    )
    plan.add_argument(
        "partial", metavar="NEW_PARTIAL_SPEC.json",
        help="the new goal's partial installation specification",
    )
    plan.add_argument(
        "--types", action="append", metavar="FILE", default=[],
        help="additional DSL resource files (e.g. the new version's type)",
    )
    plan.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the plan JSON here instead of stdout",
    )

    reconcile = sub.add_parser(
        "reconcile",
        help="detect drift and repair a saved deployment, one round "
        "unless --watch: restart crashed services, redeploy lost machines",
    )
    reconcile.add_argument(
        "bundle", metavar="BUNDLE",
        help="bundle file written by 'deploy --save'",
    )
    reconcile.add_argument(
        "--watch", action="store_true",
        help="keep polling for up to --max-rounds rounds instead of a "
        "single detect-and-repair pass",
    )
    reconcile.add_argument(
        "--max-rounds", type=int, default=10, metavar="N",
        help="rounds to run with --watch or churn (default 10)",
    )
    reconcile.add_argument(
        "--interval", type=float, default=30.0, metavar="SECONDS",
        help="simulated seconds between rounds (default 30)",
    )
    reconcile.add_argument(
        "--churn-rate", type=float, default=0.0, metavar="RATE",
        help="per-round probability of each machine being permanently "
        "lost (chaos soak; implies multiple rounds)",
    )
    reconcile.add_argument(
        "--churn-seed", type=int, default=0, metavar="SEED",
        help="seed for --churn-rate machine-loss decisions",
    )
    reconcile.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry each failing repair action up to N times",
    )
    reconcile.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help="base backoff between retries",
    )
    reconcile.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-action simulated-time budget",
    )
    reconcile.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="execute repairs with N simulated workers in dependency "
        "order (0 = unbounded; default: 1)",
    )
    reconcile.add_argument(
        "--jobs-per-host", type=int, default=None, metavar="N",
        help="with --jobs: at most N concurrent instances per machine",
    )
    reconcile.add_argument(
        "--json", action="store_true",
        help="emit the per-round reconcile result as JSON",
    )
    reconcile.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace-event JSON file of the repair rounds",
    )
    reconcile.add_argument(
        "--metrics", action="store_true",
        help="print a plain-text metrics summary after the run",
    )

    inject = sub.add_parser(
        "inject-fault", help="fail a running service (chaos helper)"
    )
    inject.add_argument("bundle", metavar="BUNDLE")
    inject.add_argument("instance", metavar="INSTANCE_ID")

    trace = sub.add_parser(
        "trace",
        help="render a saved bundle's journal as Chrome trace JSON, or "
        "validate a trace file",
    )
    trace.add_argument(
        "bundle", metavar="BUNDLE", nargs="?",
        help="bundle file written by 'deploy --save'",
    )
    trace.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the trace here instead of stdout",
    )
    trace.add_argument(
        "--validate", metavar="TRACE_FILE",
        help="validate an existing Chrome trace JSON file instead of "
        "rendering a bundle",
    )

    render = sub.add_parser(
        "render", help="pretty-print loaded resource types as DSL"
    )
    common(render, with_partial=False)

    dimacs = sub.add_parser(
        "dimacs", help="emit the Boolean constraints in DIMACS CNF"
    )
    common(dimacs)
    return parser


_COMMANDS = {
    "check": cmd_check,
    "configure": cmd_configure,
    "graph": cmd_graph,
    "explain": cmd_explain,
    "deploy": cmd_deploy,
    "status": cmd_status,
    "stop": cmd_stop,
    "start": cmd_start,
    "reconcile": cmd_reconcile,
    "upgrade": cmd_upgrade,
    "plan": cmd_plan,
    "inject-fault": cmd_inject_fault,
    "trace": cmd_trace,
    "render": cmd_render,
    "dimacs": cmd_dimacs,
}


def main(
    argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None
) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    out_of_range = _out_of_range_flag(args)
    if out_of_range:
        out.write(f"error: {out_of_range}\n")
        return 2
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        return 0  # e.g. `engage-sim graph ... | head`
    except EngageError as exc:
        out.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        out.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
