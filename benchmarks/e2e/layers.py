"""Where the traced pass attaches to ``repro``'s layers.

Two mechanisms, both outside ``src/``:

* :func:`install` sets timing wrappers on public runtime callables for
  the duration of the pass.  A callable that no longer exists is
  reported and skipped, so a later deletion turns its metrics into
  ``null`` instead of breaking the benchmark.
* :func:`staged_configure` replays one configure call stage by stage
  through the public stage functions, with a span around each, *beside*
  the operation's own ``configure`` call.  Its result must serialise to
  the same bytes as the engine's.
"""

from __future__ import annotations

import importlib

from spans import Tracer

#: (module, class or None, attribute, span name).
WRAPPED = (
    ("repro.runtime.deploy", "DeploymentEngine", "deploy", "runtime.deploy.deploy"),
    ("repro.runtime.deploy", "DeploymentEngine", "prepare", "runtime.deploy.prepare"),
    ("repro.runtime.deploy", "DeploymentEngine", "drive_instances",
     "runtime.deploy.drive_instances"),
    ("repro.runtime.scheduler", None, "execute_serial", "runtime.scheduler.run"),
    ("repro.runtime.scheduler", "DagScheduler", "run", "runtime.scheduler.run"),
    ("repro.drivers.base", "ResourceDriver", "perform", "drivers.perform"),
    ("repro.runtime.journal", "DeploymentJournal", "record", "runtime.journal.record"),
    ("repro.runtime.delta", None, "rebase_journal", "runtime.journal.rebase"),
    ("repro.runtime.state", None, "save_system", "runtime.state.save_system"),
    ("repro.sim.persistence", None, "save_world", "sim.persistence.save_world"),
    ("repro.runtime.delta", None, "plan_delta", "runtime.delta.plan_delta"),
    ("repro.runtime.delta", None, "execute_delta", "runtime.delta.execute_delta"),
    ("repro.runtime.reconcile", None, "detect_drift", "runtime.reconcile.detect_drift"),
    ("repro.runtime.reconcile", None, "plan_repair", "runtime.reconcile.plan_repair"),
    ("repro.runtime.reconcile", None, "execute_plan", "runtime.reconcile.execute_plan"),
    ("repro.runtime.coordinator", "BusCoordinator", "deploy", "runtime.coordinator.deploy"),
    ("repro.runtime.bus", "MessageBus", "send", "runtime.bus.send"),
    ("repro.runtime.bus", "MessageBus", "deliver_due", "runtime.bus.deliver_due"),
    ("repro.sim.faults", "LinkFaultPlan", "copies", "sim.faults.link_copies"),
    ("repro.config.explain", None, "explain_unsat", "config.explain.explain_unsat"),
    ("repro.sat.solver", "CdclSolver", "solve", "sat.solve"),
)

#: Span names opened by :func:`staged_configure`; their metrics are read
#: from the replay's spans, everything else from the operation's own.
REPLAY_STAGES = (
    "config.hypergraph.generate_graph",
    "config.partition.partition_graph",
    "config.constraints.generate",
    "sat.canonical_model",
    "config.engine.selected_nodes",
    "config.propagation.propagate",
    "config.typecheck.check_spec",
    "config.partition.merge_specs",
)


def _observe_solve(args):
    """Solver work counters, taken at the same boundary as ``sat.solve``."""
    stats = args[0].stats
    before = (stats.decisions, stats.conflicts, stats.propagations)

    def done(tracer: Tracer, _result) -> None:
        if tracer.root_name() == "replay":
            return  # the operation's own solves are the ones reported
        tracer.count("sat.decisions", stats.decisions - before[0])
        tracer.count("sat.conflicts", stats.conflicts - before[1])
        tracer.count("sat.propagations", stats.propagations - before[2])

    return done


def install(tracer: Tracer) -> list[str]:
    """Wrap every callable in :data:`WRAPPED`; returns the span names
    whose callable is gone."""
    found: set[str] = set()
    for module_name, class_name, attr, span in WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if class_name is None:
            wrapped = tracer.wrap_function(module_name, attr, span)
        else:
            observe = _observe_solve if span == "sat.solve" else None
            wrapped = tracer.wrap(
                getattr(module, class_name, None), attr, span, observe
            )
        if wrapped:
            found.add(span)
    # execute_serial and DagScheduler.run share a span name: the metric
    # survives as long as either of them does.
    return sorted({row[3] for row in WRAPPED} - found)


def staged_configure(tracer: Tracer, registry, partial, *, partition: bool):
    """One configure call, stage by stage, under a ``replay`` span.

    Mirrors the engine's monolithic pipeline, or its partitioned one
    when ``partition`` is set; returns the full specification."""
    from repro.config.constraints import generate_constraints, selected_nodes
    from repro.config.engine import canonical_model
    from repro.config.hypergraph import generate_graph
    from repro.config.partition import merge_component_specs, partition_graph
    from repro.config.propagation import propagate
    from repro.config.typecheck import check_spec
    from repro.sat.solver import CdclSolver

    span = tracer.span
    with span("replay"):
        with span("config.hypergraph.generate_graph"):
            graph = generate_graph(registry, partial)
        tracer.count("config.hypergraph.nodes", len(graph))
        tracer.count("config.hypergraph.edges", len(graph.edges()))
        if partition:
            with span("config.partition.partition_graph"):
                graphs = [
                    component.graph
                    for component in partition_graph(graph).components
                ]
        else:
            graphs = [graph]
        tracer.count("config.partition.components", len(graphs))
        tracer.count(
            "config.partition.largest_component_nodes",
            max(len(component) for component in graphs),
        )
        specs = []
        for component in graphs:
            with span("config.constraints.generate"):
                formula, stats = generate_constraints(component)
            tracer.count("config.constraints.variables", stats.variables)
            tracer.count("config.constraints.clauses", stats.clauses)
            solver = CdclSolver(formula)
            if not solver.solve():  # spanned by the sat.solve wrapper
                raise AssertionError("staged replay of a satisfiable spec is UNSAT")
            with span("sat.canonical_model"):
                model = canonical_model(formula, solver)
            named = {
                str(name): value
                for name, value in formula.decode_model(model).items()
            }
            with span("config.engine.selected_nodes"):
                deployed, choices = selected_nodes(component, named)
            with span("config.propagation.propagate"):
                spec = propagate(registry, component, deployed, choices)
            with span("config.typecheck.check_spec"):
                check_spec(registry, spec)
            specs.append(spec)
        if partition:
            with span("config.partition.merge_specs"):
                return merge_component_specs(specs)
        return specs[0]
