"""The configuration engine (S4).

Ties the pipeline together: partial installation specification ->
hypergraph (``GraphGen``) -> Boolean constraints (``Generate``) -> SAT
(the CDCL solver) -> port-value propagation -> full installation
specification.  Theorem 1 justifies raising
:class:`~repro.core.errors.UnsatisfiableError` when the solver says no.

There is one pipeline, over a list of graph components:
:func:`configure_component` takes a single component from encoding to a
propagated specification, and :meth:`ConfigurationEngine.run` maps it
over the list, merges, aggregates the stats and emits the trace.  The
list is the connected components of the hypergraph with
``partition=True`` and the whole graph as its only member otherwise, so
monolithic configuration is the one-component case of the same code.
:class:`~repro.config.session.ConfigurationSession` runs the same two
functions over component entries it keeps between calls.

The pipeline has one behaviour: pinned instances are unit clauses, the
exactly-one constraints use the pairwise encoding, and an unsatisfiable
result carries its minimal-conflict diagnosis.  The engine does not
run the static checker (:mod:`repro.config.typecheck`) on its own
output: Theorem 1 and propagation's per-value type check make that
output well-typed by construction, so the checker guards the specs
that arrive from outside instead (:func:`repro.runtime.system_from_payload`).

Every result carries :class:`PhaseTimings` so callers (benchmarks, the
CLI) can see where a query spent its time without re-instrumenting the
pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.collector import collector_paused
from repro.core.errors import ConfigurationError, UnsatisfiableError
from repro.core.instances import (
    InstallSpec,
    PartialInstallSpec,
    ResourceInstance,
)
from repro.core.registry import ResourceTypeRegistry
from repro.core.wellformed import assert_well_formed
from repro.config.constraints import (
    ConstraintStats,
    generate_constraints,
    selected_nodes,
)
from repro.config.hypergraph import ResourceGraph, generate_graph
from repro.config.partition import (
    ComponentStats,
    GraphComponent,
    PartitionInfo,
    merge_component_specs,
    partition_graph,
    whole_graph_component,
)
from repro.config.propagation import propagate
from repro.sat.cnf import CnfFormula
from repro.sat.solver import CdclSolver, SolverStats


@dataclass
class PhaseTimings:
    """Wall-clock milliseconds spent in each pipeline phase.

    ``encode_ms``/``solve_ms``/``propagate_ms`` are sums over the
    components (``propagate_ms`` also covers the final merge).
    """

    graph_ms: float = 0.0
    #: Connected-component split; 0 on the monolithic path.
    partition_ms: float = 0.0
    encode_ms: float = 0.0
    solve_ms: float = 0.0
    propagate_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.graph_ms + self.partition_ms + self.encode_ms
            + self.solve_ms + self.propagate_ms
        )


@dataclass
class SessionCacheInfo:
    """Per-call cache outcome of a ``ConfigurationSession`` call.

    The session fills the fingerprint, the graph verdict and the
    component counts; the pipeline fills the rest from what each
    component reported.
    """

    fingerprint: str = ""
    graph_hit: bool = False
    #: No component had to be encoded.
    cnf_hit: bool = False
    #: Some component was answered by a solver kept from an earlier call.
    solver_reused: bool = False
    #: Every component answered with the specification an earlier call
    #: propagated, so no propagation ran.
    spec_reused: bool = False
    solvers_built: int = 0
    solvers_reused: int = 0
    #: On a graph miss: the components of the new graph / those whose
    #: content an earlier spec had already configured (both 0 on a hit,
    #: which resolves nothing).
    components_total: int = 0
    components_reused: int = 0
    #: On a graph miss: the machine groups whose GraphGen ran / those of
    #: a grouped assembly that an earlier spec had generated (0 when the
    #: spec took the global path).
    groups_generated: int = 0
    groups_reused: int = 0


@dataclass
class ConfigurationResult:
    """Everything the engine produced, for inspection and benchmarks."""

    spec: InstallSpec
    graph: ResourceGraph
    model: dict[str, bool]
    constraint_stats: ConstraintStats
    solver_stats: SolverStats
    deployed_ids: set[str] = field(default_factory=set)
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: Cache outcome when the result came from a session; None otherwise.
    cache: Optional[SessionCacheInfo] = None
    #: Component sizes/timings when the partitioned pipeline ran.
    partition: Optional[PartitionInfo] = None


def canonical_model(
    formula: CnfFormula, solver: CdclSolver
) -> dict[int, bool]:
    """A decode model that does not depend on solver heuristics/history.

    The canonical model is the one found by static-order search: decide
    variables in index order, preferring False.  Because clauses never
    cross connected components, that search decomposes exactly over
    components -- which is what makes partitioned and monolithic decode
    bit-identical (see docs/INTERNALS.md).

    A CDCL run that never conflicted *is* that search: VSIDS ties break
    towards the lowest index while all activities are zero, and saved
    phases start False (a warm conflict-free solver replays its previous
    model).  Only conflicted runs -- where activity bumps and backjump
    phase flips can reorder decisions -- pay a deterministic re-solve.
    """
    if solver.stats.conflicts == 0:
        return solver.model()
    deterministic = CdclSolver(formula, use_vsids=False, use_restarts=False)
    if not deterministic.solve():
        raise ConfigurationError(
            "canonical re-solve found no model for a satisfiable formula"
        )
    return deterministic.model()


class ComponentEntry:
    """One component's encoding, solver and answer.

    The engine builds these fresh for every call and drops them; a
    session keeps them and hands one to every spec that has a component
    of the same content.  Content includes which nodes are pinned, so an
    entry's unit facts never change and its :class:`CdclSolver` --
    learned clauses, activities, saved phases -- can answer every later
    call as it stands.
    """

    __slots__ = (
        "component", "formula", "constraint_stats", "solver", "answer",
        "__weakref__",
    )

    def __init__(self, component: GraphComponent) -> None:
        self.component = component
        self.formula: Optional[CnfFormula] = None
        self.constraint_stats: Optional[ConstraintStats] = None
        self.solver: Optional[CdclSolver] = None
        #: (model, deployed, instances in install order) once the
        #: component has been solved and propagated.  The
        #: formula is fixed per entry and the decode reads its canonical
        #: model, so every later call would compute exactly this; the
        #: instances are frozen dataclasses, reused inside a fresh
        #: container.
        self.answer: Optional[tuple] = None


@dataclass
class ComponentRun:
    """What :func:`configure_component` did with one component."""

    stats: ComponentStats
    encoded: bool
    solver_reused: bool
    spec_reused: bool = False
    #: The component's instances in install order -- the specification
    #: just propagated, or the tuple an earlier call propagated; None when
    #: the component is unsatisfiable.
    instances: Optional[Iterable[ResourceInstance]] = None
    model: dict[str, bool] = field(default_factory=dict)
    deployed: set[str] = field(default_factory=set)


def configure_component(
    registry: ResourceTypeRegistry,
    entry: ComponentEntry,
) -> ComponentRun:
    """Encode, solve, decode and propagate one component.

    Whatever ``entry`` already holds is reused and whatever it lacks is
    built and left on it; the timings are this call's own.  An entry
    that has answered answers again without its solver, which still
    counts as reused: the solver's verdict on an unchanged formula
    cannot change.
    """
    graph = entry.component.graph
    stats = ComponentStats(
        index=entry.component.index,
        nodes=len(graph),
        edges=len(graph.edges()),
        pinned=len(entry.component.pinned),
    )
    if entry.answer is not None:
        run = ComponentRun(
            stats, encoded=False, solver_reused=True, spec_reused=True
        )
        run.model, run.deployed, run.instances = entry.answer
        stats.decisions = entry.solver.stats.decisions
        stats.conflicts = entry.solver.stats.conflicts
        return run
    started = time.perf_counter()
    encoded = entry.formula is None
    if encoded:
        entry.formula, entry.constraint_stats = generate_constraints(graph)
    encode_done = time.perf_counter()
    solver_reused = entry.solver is not None
    if not solver_reused:
        entry.solver = CdclSolver(entry.formula)
    formula, solver = entry.formula, entry.solver
    run = ComponentRun(stats, encoded, solver_reused)
    if not solver.solve():
        return run
    run.model = {
        str(name): value
        for name, value in formula.decode_model(
            canonical_model(formula, solver)
        ).items()
    }
    solve_done = time.perf_counter()
    run.deployed, choices = selected_nodes(graph, run.model)
    spec = propagate(registry, graph, run.deployed, choices)
    run.instances = spec
    entry.answer = (run.model, run.deployed, tuple(spec))
    if encoded:  # a cached encoding cost this call nothing, not one tick
        stats.encode_ms = (encode_done - started) * 1000.0
    stats.solve_ms = (solve_done - encode_done) * 1000.0
    stats.propagate_ms = (time.perf_counter() - solve_done) * 1000.0
    stats.decisions = solver.stats.decisions
    stats.conflicts = solver.stats.conflicts
    return run


def raise_unsatisfiable(
    graph: ResourceGraph, entries: list[ComponentEntry]
) -> None:
    """Raise the Theorem 1 :class:`UnsatisfiableError` with the
    minimal-conflict explanation :mod:`repro.config.explain` computes
    over ``graph`` from the call's component ``entries``."""
    from repro.config.explain import explain_unsat

    message = (
        "no full installation specification extends the partial "
        f"specification (over {len(graph)} candidate instances)"
    )
    explanation = explain_unsat(graph, entries)
    if explanation is not None:
        message += "\n" + explanation.message(graph)
    raise UnsatisfiableError(message)


def emit_config_trace(tracer, timings, cache=None, partition=None) -> None:
    """Emit one span per pipeline phase onto ``tracer``'s ``config`` lane.

    Wall-clock milliseconds are mapped onto the simulated timeline as
    seconds (ms -> s) so the spans are visible at trace scale; the real
    measurement is preserved in each span's ``wall_ms`` argument and in
    the ``config.<phase>_ms`` histograms.
    """
    if tracer is None:
        return
    start = tracer.clock.now if tracer.clock is not None else 0.0
    phases = [
        ("configure:graph", timings.graph_ms),
        ("configure:partition", timings.partition_ms),
        ("configure:encode", timings.encode_ms),
        ("configure:solve", timings.solve_ms),
        ("configure:propagate", timings.propagate_ms),
    ]
    if partition is None:
        phases.pop(1)  # monolithic path: keep the original span shape
    for phase, wall_ms in phases:
        duration = wall_ms / 1000.0
        tracer.span(
            phase, category="config", start=start, duration=duration,
            lane="config", wall_ms=round(wall_ms, 3),
        )
        name = phase.split(":", 1)[1]
        tracer.metrics.histogram(f"config.{name}_ms").observe(wall_ms)
        start += duration
    if partition is not None:
        # One span per component, stacked in the order they ran, so a
        # fleet-sized configure shows where each machine group spent its
        # time.  The component index and node count ride along as args
        # (the span name alone is not machine-filterable in Perfetto).
        for component in partition.components:
            wall_ms = (
                component.encode_ms + component.solve_ms
                + component.propagate_ms
            )
            duration = wall_ms / 1000.0
            tracer.span(
                f"configure:component[{component.index}]",
                category="config", start=start, duration=duration,
                lane="config", wall_ms=round(wall_ms, 3),
                component=component.index, nodes=component.nodes,
                edges=component.edges, pinned=component.pinned,
                decisions=component.decisions,
                conflicts=component.conflicts,
            )
            tracer.metrics.histogram("config.component_ms").observe(wall_ms)
            start += duration
        tracer.metrics.histogram("config.components").observe(partition.count)
    if cache is not None:
        tracer.instant(
            "cache", category="config", timestamp=start, lane="config",
            fingerprint=cache.fingerprint, graph_hit=cache.graph_hit,
            cnf_hit=cache.cnf_hit, solver_reused=cache.solver_reused,
            spec_reused=cache.spec_reused,
            components_reused=cache.components_reused,
            groups_generated=cache.groups_generated,
            groups_reused=cache.groups_reused,
        )


class ConfigurationEngine:
    """Expands partial installation specifications to full ones.

    With ``partition=True`` the pipeline splits the hypergraph into
    connected components after GraphGen and encodes/solves/propagates
    each component independently (:mod:`repro.config.partition`); the
    resulting specification is bit-identical to the monolithic one.
    The registry's well-formedness is checked up front and ``tracer``
    receives the phase spans; nothing else is settable.
    """

    def __init__(
        self,
        registry: ResourceTypeRegistry,
        *,
        partition: bool = False,
        tracer=None,
    ) -> None:
        self._registry = registry
        self._partition = partition
        self._tracer = tracer
        # Memoized on the registry: many engines over one registry pay
        # the full well-formedness sweep once.
        assert_well_formed(registry)

    @property
    def registry(self) -> ResourceTypeRegistry:
        return self._registry

    # There is nothing to release.  The ``with`` form exists for one
    # caller: the frozen end-to-end benchmark's ``fleet_cold`` probe
    # (benchmarks/e2e/workloads.py) builds its engine in a ``with``.
    def __enter__(self) -> "ConfigurationEngine":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    @collector_paused
    def configure(self, partial: PartialInstallSpec) -> ConfigurationResult:
        """Compute a full installation specification extending ``partial``.

        Raises :class:`UnsatisfiableError` when no extension exists
        (Theorem 1), and surfaces any propagation error (an ill-typed
        port value among them).
        """
        timings = PhaseTimings()
        graph, components = self.components(partial, timings)
        entries = [ComponentEntry(c) for c in components]
        return self.run(graph, entries, timings)

    def components(
        self, partial: PartialInstallSpec, timings: PhaseTimings
    ) -> tuple[ResourceGraph, list[GraphComponent]]:
        """GraphGen, then the component list the pipeline maps over."""
        started = time.perf_counter()
        graph = generate_graph(self._registry, partial)
        ticked = time.perf_counter()
        timings.graph_ms = (ticked - started) * 1000.0
        if not self._partition:
            return graph, [whole_graph_component(graph)]
        components = partition_graph(graph).components
        timings.partition_ms = (time.perf_counter() - ticked) * 1000.0
        return graph, components

    def run(
        self,
        graph: ResourceGraph,
        entries: list[ComponentEntry],
        timings: PhaseTimings,
        cache: Optional[SessionCacheInfo] = None,
    ) -> ConfigurationResult:
        """The pipeline after GraphGen: solve every component in order
        (the first unsatisfiable one raises for the whole graph, with
        the diagnosis over all of ``entries``), merge, aggregate the
        stats into one result and emit the trace.

        ``cache`` is a session's per-call record, attached to the
        result when given.
        """
        record = cache or SessionCacheInfo()
        record.cnf_hit = True
        runs: list[ComponentRun] = []
        for entry in entries:
            run = configure_component(self._registry, entry)
            record.cnf_hit &= not run.encoded
            record.solvers_reused += run.solver_reused
            record.solvers_built += not run.solver_reused
            if run.instances is None:
                raise_unsatisfiable(graph, entries)
            runs.append(run)
        record.solver_reused = record.solvers_reused > 0
        record.spec_reused = bool(runs) and all(
            run.spec_reused for run in runs
        )
        tick = time.perf_counter()
        spec = merge_component_specs([run.instances for run in runs])
        timings.propagate_ms = (time.perf_counter() - tick) * 1000.0

        # The encoding is edge-local, so the per-component sizes sum to
        # the whole-graph formula's exactly.
        constraint_stats = ConstraintStats(0, 0, 0, 0)
        solver_stats = SolverStats(components=len(entries))
        info = PartitionInfo(partition_ms=timings.partition_ms)
        model: dict[str, bool] = {}
        deployed: set[str] = set()
        for entry, run in zip(entries, runs):
            model.update(run.model)
            deployed |= run.deployed
            info.components.append(run.stats)
            timings.encode_ms += run.stats.encode_ms
            timings.solve_ms += run.stats.solve_ms
            timings.propagate_ms += run.stats.propagate_ms
            constraint_stats.variables += entry.constraint_stats.variables
            constraint_stats.clauses += entry.constraint_stats.clauses
            constraint_stats.facts += entry.constraint_stats.facts
            constraint_stats.hyperedges += entry.constraint_stats.hyperedges
            _accumulate_solver_stats(solver_stats, entry.solver.stats)
        partition_info = info if self._partition else None
        emit_config_trace(self._tracer, timings, cache, partition_info)
        return ConfigurationResult(
            spec=spec,
            graph=graph,
            model=model,
            constraint_stats=constraint_stats,
            solver_stats=solver_stats,
            deployed_ids=deployed,
            timings=timings,
            cache=cache,
            partition=partition_info,
        )


def _accumulate_solver_stats(total: SolverStats, part: SolverStats) -> None:
    total.decisions += part.decisions
    total.propagations += part.propagations
    total.conflicts += part.conflicts
    total.learned_clauses += part.learned_clauses
    total.deleted_clauses += part.deleted_clauses
    total.restarts += part.restarts
    total.max_learned_length = max(
        total.max_learned_length, part.max_learned_length
    )
    total.solve_calls += part.solve_calls
