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
from repro.core.jsontext import STRING, document_text, parse, write_file
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


def cmd_configure(args, out: TextIO) -> int:
    registry = _build_registry(args)
    paths = args.partial
    if not args.session:
        partial = _read_partial(paths[0])
        result = ConfigurationEngine(
            registry, partition=args.partition
        ).configure(partial)
        runs = [_run_stats(paths[0], result)] if args.stats_json else []
        return _write_configured(args, result, runs, out)
    partials = [_read_partial(path) for path in paths]
    session = ConfigurationSession(registry, partition=args.partition)
    runs: list = []
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
            components = shapes = ""
            if result.partition is not None:
                components = f", {result.partition.count} components"
                if not cache.graph_hit:
                    components += f" ({cache.components_reused} reused)"
                    shapes = f" over {cache.shapes} shape(s)"
            out.write(
                f"[{round_number + 1}] {path}: "
                f"{len(result.spec)} instances "
                f"in {result.timings.total_ms:.2f} ms "
                f"({flags}{components}){shapes}\n"
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
    return _write_configured(args, result, runs, out)


def _write_configured(args, result, runs: list, out: TextIO) -> int:
    """The stats of ``runs`` to ``--stats-json``'s file; then the last
    full spec to ``-o``'s file or -- without ``--session`` -- to
    ``out``."""
    if args.stats_json:
        write_file(args.stats_json, document_text({"runs": runs}, 1))
        out.write(
            f"stats written to {args.stats_json} ({len(runs)} run(s))\n"
        )
    if args.session and not args.output:
        return 0
    text = full_to_json(result.spec)
    note = (
        f"wrote {len(result.spec)} instances "
        f"({line_count(text)} lines) to {args.output}\n"
    )
    if result.partition is not None:
        info = result.partition
        note += (
            f"partitioned: {info.count} components "
            f"(largest {info.largest} nodes)\n"
        )
    return _write_output(args, text, note, out)


def _write_output(args, text: str, note: str, out: TextIO) -> int:
    """``text`` to the file ``-o`` names, then ``note`` on ``out``; or,
    without ``-o``, ``text`` on ``out``."""
    if args.output:
        write_file(args.output, text)
        out.write(note)
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
    """Raw types ordered so supertypes precede subtypes (reloadable).

    Every pass emits at least one type: a registry refuses a type whose
    supertype it does not hold, so each chain ends at a root."""
    emitted: list = []
    done: set = set()
    pending = [registry.raw(key) for key in registry.keys()]
    while pending:
        remaining = []
        for resource_type in pending:
            if resource_type.extends is None or resource_type.extends in done:
                emitted.append(resource_type)
                done.add(resource_type.key)
            else:
                remaining.append(resource_type)
        pending = remaining
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
#: What :meth:`Bundle.write` writes; its world and state are read as
#: documents of their own.
BUNDLE = {"format": STRING, "types": STRING, "world": {}, "state": {}}


class Bundle:
    """The deployment one command works on -- its resource types, world,
    drivers and system -- opened once (:func:`_open_bundle`) and
    committed at most once, after the command returns, if it asked to
    with :meth:`save`.  The commit replaces the file at ``path`` whole,
    so a command that raises leaves the old bytes."""

    def __init__(self, path: Optional[str], registry, infrastructure):
        self.path = path
        self.registry = registry
        self.infrastructure = infrastructure
        self.drivers = standard_drivers()
        self.drivers.set_fallback("service")
        self.system = None
        self._note: Optional[str] = None

    @classmethod
    def load(cls, source: str, path: Optional[str] = None) -> "Bundle":
        """The bundle saved in ``source``, to commit to ``path`` (by
        default ``source``); its journal is ``system.journal``.  Its
        types must be well-formed, or no command works on it."""
        from repro.core.errors import RuntimeEngageError
        from repro.runtime import system_from_payload
        from repro.sim import world_from_payload

        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
        saved = parse(text, BUNDLE, of="bundle", error=RuntimeEngageError)
        if saved["format"] != BUNDLE_FORMAT:
            raise RuntimeEngageError(
                f"unsupported bundle format: {saved['format']!r}"
            )
        registry = ResourceTypeRegistry()
        load_resources(saved["types"], registry)
        assert_well_formed(registry)
        bundle = cls(
            path or source, registry, world_from_payload(saved["world"])
        )
        bundle.system = system_from_payload(
            registry, bundle.infrastructure, bundle.drivers, saved["state"]
        )
        return bundle

    def engine(self, args=None) -> DeploymentEngine:
        """An engine on the bundle's world; with ``args``, under the
        command's retry flags and worker bounds (:func:`_engine_settings`)."""
        return DeploymentEngine(
            self.registry, self.infrastructure, self.drivers,
            **(_engine_settings(args) if args else {}),
        )

    def save(self, note: str, system=None) -> None:
        """Commit the bundle -- holding ``system`` from now on, if given
        -- when the command returns, then print ``note``."""
        if system is not None:
            self.system = system
        self._note = note

    def commit(self, out: TextIO) -> None:
        if self._note is not None:
            self.write()
            out.write(self._note)

    def write(self) -> None:
        """Replace ``path`` with world + deployment state (journal
        included, so every bundle is resumable with ``engage-sim deploy
        --resume``) + resource types, in one file."""
        from repro.dsl import format_module
        from repro.runtime import system_document
        from repro.sim import world_document

        document = {
            "format": BUNDLE_FORMAT,
            "types": format_module(_ordered_types(self.registry)),
            "world": world_document(self.infrastructure),
            "state": system_document(self.system),
        }
        write_file(self.path, document_text(document, 1))


def _open_bundle(args) -> Optional[Bundle]:
    """The bundle ``args``'s command works on: the file its BUNDLE or
    ``deploy``'s ``--delta``/``--resume`` names, committed back to it
    unless ``--save`` names another; for a fresh ``deploy``, a new one
    with no file behind it; none for ``trace --validate``."""
    if getattr(args, "validate", None):
        return None
    source = (
        getattr(args, "bundle", None) or getattr(args, "delta", None)
        or getattr(args, "resume", None)
    )
    if source is not None:
        return Bundle.load(source, getattr(args, "save", None))
    registry = _build_registry(args)
    bundle = Bundle(args.save, registry, standard_infrastructure())
    # Make sure DSL-defined packages have downloadable artifacts.
    _publish_missing_artifacts(registry, bundle.infrastructure)
    return bundle


def cmd_status(args, bundle: Bundle, out: TextIO) -> int:
    system, infrastructure = bundle.system, bundle.infrastructure
    if args.json:
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
        out.write(document_text(payload, 1))
        return 0 if drift.is_converged else 1
    out.write(system.describe() + "\n")
    transition = system.journal.transition
    if transition is not None:
        out.write(
            f"unfinished delta transition: {len(transition.pending)} "
            "instance(s) still to drive down (finish with: deploy "
            f"--resume {args.bundle})\n"
        )
    out.write(
        f"simulated clock: {infrastructure.clock.now / 60:.1f} minutes\n"
    )
    return 0 if system.is_deployed() and transition is None else 1


def cmd_stop(args, bundle: Bundle, out: TextIO) -> int:
    bundle.engine().shutdown(bundle.system)
    bundle.save("stopped; bundle updated.\n")
    return 0


def cmd_start(args, bundle: Bundle, out: TextIO) -> int:
    bundle.engine().start(bundle.system)
    bundle.save("started; bundle updated.\n")
    return 0 if bundle.system.is_deployed() else 1


def _load_goal_partial(args, bundle: Bundle):
    """Merge ``--types`` into a bundle's registry, publish any new
    artifacts, and read + provision the new goal's partial spec --
    shared by ``upgrade``, ``plan``, and ``deploy --delta``."""
    from repro.dsl import lower_module, parse_module

    registry = bundle.registry
    for path in args.types:
        with open(path, "r", encoding="utf-8") as handle:
            # Skip types the bundle already carries (same key).
            for resource_type in lower_module(
                parse_module(handle.read()), registry
            ):
                if not registry.has(resource_type.key):
                    registry.register(resource_type)
    _publish_missing_artifacts(registry, bundle.infrastructure)
    partial = _read_partial(args.partial)
    return provision_partial_spec(registry, partial, bundle.infrastructure)


def _plan_to_goal(args, bundle: Bundle):
    """The new goal's full spec and the delta plan that reaches it --
    shared by ``plan`` and ``deploy --delta``."""
    from repro.runtime import plan_delta

    partial = _load_goal_partial(args, bundle)
    new_spec = ConfigurationEngine(bundle.registry).configure(partial).spec
    return new_spec, plan_delta(bundle.system, new_spec)


def cmd_upgrade(args, bundle: Bundle, out: TextIO) -> int:
    """Upgrade a saved deployment to a new partial specification."""
    from repro.runtime import UpgradeEngine

    partial = _load_goal_partial(args, bundle)
    upgrader = UpgradeEngine(
        ConfigurationEngine(bundle.registry), bundle.engine()
    )
    result = upgrader.upgrade(bundle.system, partial, strategy=args.strategy)
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
    bundle.save("bundle updated.\n", result.system)
    return 0 if result.succeeded else 1


def cmd_plan(args, bundle: Bundle, out: TextIO) -> int:
    """Dry-run a delta transition: print the plan as JSON, touch
    nothing."""
    new_spec, delta = _plan_to_goal(args, bundle)
    payload = delta.to_payload()
    payload["bundle"] = args.bundle
    return _write_output(
        args, document_text(payload, 1),
        f"plan written to {args.output} ({len(delta)} step(s) for a "
        f"{len(new_spec)}-instance goal)\n",
        out,
    )


def cmd_inject_fault(args, bundle: Bundle, out: TextIO) -> int:
    """Fail a running service process (testing/chaos helper)."""
    system = bundle.system
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
    bundle.save(
        f"failed process {process.name!r} (instance {args.instance!r}) "
        f"on {machine.hostname}; bundle updated.\n"
    )
    return 0


def cmd_reconcile(args, bundle: Bundle, out: TextIO) -> int:
    """Run the autonomic reconcile loop against a saved deployment."""
    from repro.runtime import ReconcileController
    from repro.sim import MachineChurn

    _install_tracer(args, bundle.infrastructure)
    churn = None
    if args.churn_rate > 0.0:
        churn = MachineChurn(
            bundle.system, seed=args.churn_seed, rate=args.churn_rate
        )
        out.write(
            f"churn: losing machines (seed={args.churn_seed}, "
            f"rate={args.churn_rate})\n"
        )
    watching = args.watch or churn is not None
    controller = ReconcileController(
        bundle.engine(args), bundle.system,
        interval=args.interval if watching else 0.0,
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
        out.write(document_text(result.to_payload(), 1))
    _finish_trace(args, bundle, out)
    if result.converged:
        bundle.save("converged; bundle updated.\n")
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


def _engine_settings(args) -> dict:
    """``deploy``'s or ``reconcile``'s retry flags and worker bounds as
    engine keywords; a RetryPolicy only when a retry flag was given."""
    from repro.runtime import RetryPolicy

    settings = {
        "policy": None, "jobs": args.jobs, "jobs_per_host": args.jobs_per_host,
    }
    if (
        args.max_retries > 0
        or args.backoff is not None
        or args.timeout is not None
    ):
        settings["policy"] = RetryPolicy(
            max_attempts=args.max_retries + 1,
            backoff_base=args.backoff if args.backoff is not None else 1.0,
            action_timeout=args.timeout,
        )
    return settings


def _install_tracer(args, infrastructure) -> None:
    """A Tracer on the infrastructure when --trace/--metrics was given."""
    if args.trace or args.metrics:
        from repro.obs import Tracer

        infrastructure.set_tracer(Tracer(clock=infrastructure.clock))


def _finish_trace(args, bundle: Bundle, out: TextIO) -> None:
    """Write the trace file and/or metrics summary of the tracer
    :func:`_install_tracer` put on the bundle's world, if any."""
    tracer = bundle.infrastructure.tracer
    if tracer is None:
        return
    if args.trace:
        from repro.obs import chrome_trace_json

        write_file(args.trace, chrome_trace_json(tracer))
        out.write(
            f"trace written to {args.trace} ({len(tracer)} events)\n"
        )
    if args.metrics:
        out.write(tracer.metrics.render())


def _install_chaos(args, infrastructure, out: TextIO) -> None:
    """Install a seeded fault plan when --chaos-rate was given."""
    if args.chaos_rate > 0.0:
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


def _usage_error(args) -> Optional[str]:
    """What is wrong with the command's arguments, if anything: a
    numeric flag out of its range first.  Checked before any file is
    read."""
    for flags, bound, within in _FLAG_RANGES:
        for flag in flags:
            value = getattr(args, flag, None)
            if value is not None and not within(value):
                return (
                    f"--{flag.replace('_', '-')} must be {bound}, "
                    f"got {value}"
                )
    if args.command == "configure":
        if not args.session and (len(args.partial) > 1 or args.repeat != 1):
            return "multiple partial specs / --repeat require --session"
        if args.output and len(args.partial) > 1:
            return "--output only works with a single partial spec"
    if args.command == "trace" and not (args.bundle or args.validate):
        return "a bundle is required (or use --validate)"
    if args.command != "deploy":
        return None
    if args.bus:
        for mode in ("resume", "delta"):
            if getattr(args, mode):
                return (
                    "--bus coordinates a first deployment; it cannot be "
                    f"combined with --{mode}"
                )
    else:
        for flag in (*_LINK_FAULT_FLAGS, *_BUS_CHAOS_FLAGS):
            if hasattr(args, flag):
                return f"--{flag.replace('_', '-')} needs --bus"
    if args.delta and not args.partial:
        return "a partial spec (the new goal) is required with --delta"
    if not (args.partial or args.resume):
        return "a partial spec is required (or use --resume)"
    return None


def _bus_coordinator_from_args(args, bundle: Bundle):
    """The ``--bus`` counterpart of :meth:`Bundle.engine`."""
    from repro.runtime import BusCoordinator
    from repro.sim.faults import LinkFaultPlan

    link = _given(args, _LINK_FAULT_FLAGS)
    return BusCoordinator(
        bundle.registry, bundle.infrastructure, bundle.drivers,
        link_faults=LinkFaultPlan(**link) if link else None,
        **_engine_settings(args),
    )


def _run_deployment(args, run, bundle: Bundle, out: TextIO) -> int:
    """Run one deployment pass (``run()`` returns the system) and
    report it: the outcome, or the failure with its resumable bundle;
    then -- however the pass ended -- the trace.  A bundle with a
    ``path`` is saved either way."""
    from repro.core.errors import DeploymentFailure

    path = bundle.path
    try:
        system = run()
    except DeploymentFailure as failure:
        _write_failure(failure, out)
        if path:
            bundle.save(
                f"resumable bundle saved to {path} "
                f"(finish with: deploy --resume {path})\n",
                failure.system,
            )
        return 1
    else:
        _write_deploy_outcome(system, bundle.infrastructure, out)
        if path:
            bundle.save(f"bundle saved to {path}\n", system)
        return 0 if system.is_deployed() else 1
    finally:
        _finish_trace(args, bundle, out)


def cmd_deploy(args, bundle: Bundle, out: TextIO) -> int:
    infrastructure = bundle.infrastructure
    _install_tracer(args, infrastructure)
    engine = bundle.engine(args)
    if args.delta:
        from repro.runtime import execute_delta

        new_spec, delta = _plan_to_goal(args, bundle)
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
        run = lambda: execute_delta(engine, bundle.system, delta).system
    elif args.resume:
        journal = bundle.system.journal
        if not (journal.entries or journal.completed or journal.failed):
            out.write(
                f"error: {args.resume} has no deployment journal to "
                "resume from\n"
            )
            return 2
        _install_chaos(args, infrastructure, out)
        out.write(
            f"resuming: {len(journal.completed)} of "
            f"{len(journal.spec)} instances already deployed\n"
        )
        run = lambda: engine.resume(journal)
    else:
        partial = provision_partial_spec(
            bundle.registry, _read_partial(args.partial), infrastructure
        )
        result = ConfigurationEngine(
            bundle.registry, tracer=infrastructure.tracer
        ).configure(partial)
        out.write(
            f"configured {len(result.spec)} instances from "
            f"{len(partial)} in the partial specification\n"
        )
        _install_chaos(args, infrastructure, out)
        if args.bus:
            from repro.runtime import BusChaos

            coordinator = _bus_coordinator_from_args(args, bundle)
            chaos = BusChaos(**_given(args, _BUS_CHAOS_FLAGS))
            run = lambda: coordinator.deploy(result.spec, chaos=chaos)
        else:
            run = lambda: engine.deploy(result.spec)
    return _run_deployment(args, run, bundle, out)


def cmd_trace(args, bundle: Optional[Bundle], out: TextIO) -> int:
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

    system = bundle.system
    host_of = {
        instance.id: system.machine_for(instance.id).hostname
        for instance in system.spec
    }
    events = trace_from_journal(system.journal.entries, lane_of=host_of)
    return _write_output(
        args, chrome_trace_json(events, metadata={"bundle": args.bundle}),
        f"trace written to {args.output} ({len(events)} events)\n", out,
    )


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

    def on_bundle(name: str, help_text: str, **bundle):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "bundle", metavar="BUNDLE",
            help="bundle file written by 'deploy --save'", **bundle,
        )
        return p

    def new_goal(p: argparse.ArgumentParser):
        p.add_argument(
            "partial", metavar="NEW_PARTIAL_SPEC.json",
            help="the new goal's partial installation specification",
        )
        p.add_argument(
            "--types", action="append", metavar="FILE", default=[],
            help="additional DSL resource files (e.g. the new version's "
            "type)",
        )

    def output(p: argparse.ArgumentParser, what: str):
        p.add_argument(
            "-o", "--output", metavar="FILE",
            help=f"write {what} here instead of stdout",
        )

    def engine_flags(p: argparse.ArgumentParser):
        p.add_argument(
            "--max-retries", type=int, default=0, metavar="N",
            help="retry each failing driver action up to N times "
            "(transient faults only; default 0)",
        )
        p.add_argument(
            "--backoff", type=float, default=None, metavar="SECONDS",
            help="base backoff between retries (exponential, "
            "deterministic jitter; default 1.0 when retries are enabled)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-action simulated-time budget; hung actions are "
            "abandoned (and retried) after this long",
        )
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="run with N simulated workers in dependency order "
            "(0 = unbounded; default: 1, one instance at a time)",
        )
        p.add_argument(
            "--jobs-per-host", type=int, default=None, metavar="N",
            help="with --jobs: at most N concurrent instances per target "
            "machine",
        )
        p.add_argument(
            "--trace", metavar="FILE",
            help="write a Chrome trace-event JSON file of the run "
            "(open in Perfetto or chrome://tracing)",
        )
        p.add_argument(
            "--metrics", action="store_true",
            help="print a plain-text metrics summary after the run",
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
    output(configure, "the full spec")
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
    engine_flags(deploy)
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

    status = on_bundle("status", "show the state of a saved deployment")
    status.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable drift/journal summary (exit 0 "
        "iff the deployment matches its goal)",
    )

    on_bundle("stop", "stop a saved deployment (reverse dependency order)")
    on_bundle("start", "start a saved deployment (dependency order)")

    upgrade = on_bundle(
        "upgrade", "upgrade a saved deployment to a new partial spec"
    )
    new_goal(upgrade)
    upgrade.add_argument(
        "--strategy", choices=("replace", "delta"),
        default="replace",
        help="worst-case replace (paper) or delta (planner-driven)",
    )

    plan = on_bundle(
        "plan",
        "dry-run a delta transition: print the spec-to-spec plan as JSON "
        "without executing it",
    )
    new_goal(plan)
    output(plan, "the plan JSON")

    reconcile = on_bundle(
        "reconcile",
        "detect drift and repair a saved deployment, one round unless "
        "--watch: restart crashed services, redeploy lost machines",
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
    engine_flags(reconcile)
    reconcile.add_argument(
        "--json", action="store_true",
        help="emit the per-round reconcile result as JSON",
    )

    inject = on_bundle(
        "inject-fault", "fail a running service (chaos helper)"
    )
    inject.add_argument("instance", metavar="INSTANCE_ID")

    trace = on_bundle(
        "trace",
        "render a saved bundle's journal as Chrome trace JSON, or "
        "validate a trace file",
        nargs="?",
    )
    output(trace, "the trace")
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
    "render": cmd_render,
    "dimacs": cmd_dimacs,
}

#: The commands that work on a bundle (:class:`Bundle`).
_BUNDLE_COMMANDS = {
    "deploy": cmd_deploy,
    "status": cmd_status,
    "stop": cmd_stop,
    "start": cmd_start,
    "reconcile": cmd_reconcile,
    "upgrade": cmd_upgrade,
    "plan": cmd_plan,
    "inject-fault": cmd_inject_fault,
    "trace": cmd_trace,
}


def main(
    argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None
) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _usage_error(args)
    if problem:
        out.write(f"error: {problem}\n")
        return 2
    try:
        if args.command in _COMMANDS:
            return _COMMANDS[args.command](args, out)
        bundle = _open_bundle(args)
        code = _BUNDLE_COMMANDS[args.command](args, bundle, out)
        if bundle is not None:
            bundle.commit(out)
        return code
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
