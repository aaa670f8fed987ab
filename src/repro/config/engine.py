"""The configuration engine (S4).

Ties the pipeline together: partial installation specification ->
hypergraph (``GraphGen``) -> Boolean constraints (``Generate``) -> SAT
(the CDCL solver) -> port-value propagation -> full installation
specification.  Theorem 1 justifies raising
:class:`~repro.core.errors.UnsatisfiableError` when the solver says no.

There is one pipeline, over a list of graph components:
:func:`configure_component` takes a single component from encoding to a
typechecked specification, and :meth:`ConfigurationEngine.run` maps it
over the list, merges, aggregates the stats and emits the trace.  The
list is the connected components of the hypergraph with
``partition=True`` and the whole graph as its only member otherwise, so
monolithic configuration is the one-component case of the same code.
:class:`~repro.config.session.ConfigurationSession` runs the same two
functions over component entries it keeps between calls.

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
    fact_literals,
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
from repro.config.typecheck import check_spec
from repro.sat.cnf import CnfFormula
from repro.sat.encodings import ExactlyOneEncoding
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
    #: Every component's decoded outcome had been propagated and
    #: typechecked before, so neither ran.
    typecheck_skipped: bool = False
    solvers_built: int = 0
    solvers_reused: int = 0
    #: On a graph miss: the components of the new graph / those whose
    #: content an earlier spec had already configured (both 0 on a hit,
    #: which resolves nothing).
    components_total: int = 0
    components_reused: int = 0


@dataclass
class ConfigurationResult:
    """Everything the engine produced, for inspection and benchmarks."""

    spec: InstallSpec
    graph: ResourceGraph
    #: The whole-graph CNF encoding; None on the partitioned path, which
    #: builds one formula per component instead (their aggregated sizes
    #: are in :attr:`constraint_stats` and match the monolithic ones).
    formula: Optional[CnfFormula]
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
    formula: CnfFormula,
    solver: CdclSolver,
    assumptions=(),
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
    model under the same assumptions).  Only conflicted runs -- where
    activity bumps and backjump phase flips can reorder decisions -- pay
    a deterministic re-solve.
    """
    if solver.stats.conflicts == 0:
        return solver.model()
    deterministic = CdclSolver(formula, use_vsids=False, use_restarts=False)
    if not deterministic.solve(list(assumptions)):
        raise ConfigurationError(
            "canonical re-solve found no model for a satisfiable formula"
        )
    return deterministic.model()


class ComponentEntry:
    """One component's encoding, solver and verified outcomes.

    The engine builds these fresh for every call and drops them; a
    session keeps them (``keep=True``) and hands one to every spec that
    has a component of the same content, which is the whole difference
    between the two: a kept entry states the partial-spec facts as
    assumption literals, so its clause database holds only graph
    structure and its :class:`CdclSolver` -- learned clauses,
    activities, saved phases -- can answer every later call.
    """

    __slots__ = (
        "component", "keep", "formula", "constraint_stats", "assumptions",
        "solver", "canonical", "verified", "__weakref__",
    )

    def __init__(self, component: GraphComponent, *, keep: bool) -> None:
        self.component = component
        self.keep = keep
        self.formula: Optional[CnfFormula] = None
        self.constraint_stats: Optional[ConstraintStats] = None
        self.assumptions: list[int] = []
        self.solver: Optional[CdclSolver] = None
        #: The canonical model; the assumptions are fixed per entry, so
        #: it never changes once computed.
        self.canonical: Optional[dict[int, bool]] = None
        #: (deployed, choices) outcome -> the propagated (and, when
        #: enabled, typechecked) instances in install order, reused as
        #: they are (frozen dataclasses) inside a fresh container.
        self.verified: dict[tuple, tuple] = {}


@dataclass
class ComponentRun:
    """What :func:`configure_component` did with one component."""

    stats: ComponentStats
    encoded: bool
    solver_reused: bool
    spec_reused: bool = False
    #: The component's instances in install order -- the specification
    #: just propagated, or the tuple verified for this outcome earlier;
    #: None when the component is unsatisfiable.
    instances: Optional[Iterable[ResourceInstance]] = None
    model: dict[str, bool] = field(default_factory=dict)
    deployed: set[str] = field(default_factory=set)


def configure_component(
    registry: ResourceTypeRegistry,
    entry: ComponentEntry,
    *,
    encoding: ExactlyOneEncoding,
    check_types: bool,
) -> ComponentRun:
    """Encode, solve, decode, propagate and typecheck one component.

    Whatever ``entry`` already holds is reused and whatever it lacks is
    built and left on it; the timings are this call's own.
    """
    graph = entry.component.graph
    started = time.perf_counter()
    encoded = entry.formula is None
    if encoded:
        entry.formula, entry.constraint_stats = generate_constraints(
            graph, encoding, facts_as_assumptions=entry.keep
        )
        if entry.keep:
            entry.assumptions = sorted(
                fact_literals(graph, entry.formula).values()
            )
    encode_done = time.perf_counter()
    solver_reused = entry.solver is not None
    if not solver_reused:
        entry.solver = CdclSolver(entry.formula)
    formula, solver = entry.formula, entry.solver
    stats = ComponentStats(
        index=entry.component.index,
        nodes=len(graph),
        edges=len(graph.edges()),
        pinned=len(entry.component.pinned),
    )
    run = ComponentRun(stats, encoded, solver_reused)
    if not solver.solve(entry.assumptions):
        return run
    if entry.canonical is None:
        entry.canonical = canonical_model(formula, solver, entry.assumptions)
    run.model = {
        str(name): value
        for name, value in formula.decode_model(entry.canonical).items()
    }
    solve_done = time.perf_counter()
    run.deployed, choices = selected_nodes(graph, run.model)
    outcome = (frozenset(run.deployed), tuple(sorted(choices.items())))
    run.instances = entry.verified.get(outcome)
    run.spec_reused = run.instances is not None
    if not run.spec_reused:
        spec = propagate(registry, graph, run.deployed, choices)
        if check_types:
            check_spec(registry, spec)
        run.instances = spec
        entry.verified[outcome] = tuple(spec)
    if encoded:  # a cached encoding cost this call nothing, not one tick
        stats.encode_ms = (encode_done - started) * 1000.0
    stats.solve_ms = (solve_done - encode_done) * 1000.0
    stats.propagate_ms = (time.perf_counter() - solve_done) * 1000.0
    stats.decisions = solver.stats.decisions
    stats.conflicts = solver.stats.conflicts
    return run


def raise_unsatisfiable(
    registry: ResourceTypeRegistry,
    partial: PartialInstallSpec,
    graph: ResourceGraph,
    *,
    explain: bool,
    partition: bool = False,
) -> None:
    """Raise the Theorem 1 :class:`UnsatisfiableError`, optionally with a
    minimal-conflict explanation computed over ``graph``.

    ``partition`` selects the component-narrowed MUS computation in
    :mod:`repro.config.explain`; the resulting diagnosis is byte-identical
    to the monolithic one, just cheaper to compute.
    """
    message = (
        "no full installation specification extends the partial "
        f"specification (over {len(graph)} candidate instances)"
    )
    if explain:
        from repro.config.explain import explain_unsat

        explanation = explain_unsat(
            registry, partial, partition=partition, graph=graph
        )
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
            typecheck_skipped=cache.typecheck_skipped,
            components_reused=cache.components_reused,
        )


class ConfigurationEngine:
    """Expands partial installation specifications to full ones.

    With ``partition=True`` the pipeline splits the hypergraph into
    connected components after GraphGen and encodes/solves/propagates
    each component independently (:mod:`repro.config.partition`); the
    resulting specification is bit-identical to the monolithic one.
    ``configure(..., partition=...)`` overrides the mode per call.
    """

    def __init__(
        self,
        registry: ResourceTypeRegistry,
        *,
        encoding: ExactlyOneEncoding = ExactlyOneEncoding.PAIRWISE,
        check_types: bool = True,
        verify_registry: bool = True,
        explain_unsat: bool = True,
        peer_policy: str = "colocate",
        partition: bool = False,
        tracer=None,
    ) -> None:
        self._registry = registry
        self._encoding = encoding
        self._check_types = check_types
        self._explain_unsat = explain_unsat
        self._peer_policy = peer_policy
        self._partition = partition
        self._tracer = tracer
        if verify_registry:
            # Memoized on the registry: many engines over one registry
            # pay the full well-formedness sweep once.
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
    def configure(
        self,
        partial: PartialInstallSpec,
        *,
        partition: Optional[bool] = None,
    ) -> ConfigurationResult:
        """Compute a full installation specification extending ``partial``.

        Raises :class:`UnsatisfiableError` when no extension exists
        (Theorem 1), and surfaces any propagation or typechecking error.
        ``partition`` overrides the engine's configured mode for this
        call.
        """
        use_partition = self._partition if partition is None else partition
        timings = PhaseTimings()
        graph, components = self.components(partial, use_partition, timings)
        entries = [ComponentEntry(c, keep=False) for c in components]
        return self.run(partial, graph, entries, use_partition, timings)

    def components(
        self, partial: PartialInstallSpec, partition: bool,
        timings: PhaseTimings,
    ) -> tuple[ResourceGraph, list[GraphComponent]]:
        """GraphGen, then the component list the pipeline maps over."""
        started = time.perf_counter()
        graph = generate_graph(
            self._registry, partial, peer_policy=self._peer_policy
        )
        ticked = time.perf_counter()
        timings.graph_ms = (ticked - started) * 1000.0
        if not partition:
            return graph, [whole_graph_component(graph)]
        components = partition_graph(graph).components
        timings.partition_ms = (time.perf_counter() - ticked) * 1000.0
        return graph, components

    def solve_components(
        self,
        partial: PartialInstallSpec,
        graph: ResourceGraph,
        entries: list[ComponentEntry],
        cache: SessionCacheInfo,
        *,
        partition: bool,
    ) -> list[ComponentRun]:
        """Run :func:`configure_component` over ``entries`` in order,
        recording each one's cache outcome on ``cache``; the first
        unsatisfiable component raises for the whole ``graph``."""
        runs: list[ComponentRun] = []
        cache.cnf_hit = True
        for entry in entries:
            run = configure_component(
                self._registry, entry,
                encoding=self._encoding, check_types=self._check_types,
            )
            cache.cnf_hit &= not run.encoded
            cache.solvers_reused += run.solver_reused
            cache.solvers_built += not run.solver_reused
            if run.instances is None:
                raise_unsatisfiable(
                    self._registry, partial, graph,
                    explain=self._explain_unsat, partition=partition,
                )
            runs.append(run)
        cache.solver_reused = cache.solvers_reused > 0
        cache.typecheck_skipped = bool(runs) and all(
            run.spec_reused for run in runs
        )
        return runs

    def run(
        self,
        partial: PartialInstallSpec,
        graph: ResourceGraph,
        entries: list[ComponentEntry],
        partition: bool,
        timings: PhaseTimings,
        cache: Optional[SessionCacheInfo] = None,
    ) -> ConfigurationResult:
        """The pipeline after GraphGen: solve every component, merge,
        aggregate the stats into one result and emit the trace.

        ``partition`` only says how ``entries`` was built (and so how
        the result is labelled); ``cache`` is a session's per-call
        record, attached to the result when given.
        """
        runs = self.solve_components(
            partial, graph, entries, cache or SessionCacheInfo(),
            partition=partition,
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
        partition_info = info if partition else None
        emit_config_trace(self._tracer, timings, cache, partition_info)
        return ConfigurationResult(
            spec=spec,
            graph=graph,
            formula=None if partition else entries[0].formula,
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
