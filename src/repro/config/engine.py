"""The configuration engine (S4).

Ties the pipeline together: partial installation specification ->
hypergraph (``GraphGen``) -> Boolean constraints (``Generate``) -> SAT
(the CDCL solver) -> port-value propagation -> full installation
specification.  Theorem 1 justifies raising
:class:`~repro.core.errors.UnsatisfiableError` when the solver says no.

This module holds what one component goes through:
:func:`configure_component` answers a single component from its
shape's :class:`ComponentEntry` (encode, solve, canonical model, decode
and link plan, once per shape) and propagates the component's own
values.  :func:`repro.config.session.configure_call` resolves a spec to
groups and maps it over their components; :class:`ConfigurationEngine`
is that call with an empty memo, and
:class:`~repro.config.session.ConfigurationSession` the same call with
the memo it keeps.  Monolithic configuration is the degenerate case of
the same code: one group holding every instance, as one component.

The pipeline has one behaviour: pinned instances are unit clauses, the
exactly-one constraints use the pairwise encoding, and an unsatisfiable
result carries its minimal-conflict diagnosis.  The engine does not
run the static checker (:mod:`repro.config.typecheck`) on its own
output, which Theorem 1 and propagation's per-value type check make
well-typed: the checker guards the specs that arrive from outside
(:func:`repro.runtime.system_from_payload`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from repro.core.collector import collector_paused
from repro.core.errors import ConfigurationError
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
    selection_order,
)
from repro.config.hypergraph import ResourceGraph
from repro.config.partition import (
    ComponentStats,
    GraphComponent,
    PartitionInfo,
)
from repro.config.propagation import link_plan, propagate_links
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

    The session fills the graph verdict and the group and component
    counts; the pipeline fills the rest from what each component
    reported.
    """

    #: The session held this very spec, so nothing was resolved.
    graph_hit: bool = False
    #: No component had to be encoded.
    cnf_hit: bool = False
    #: Some component was answered by a solver kept from an earlier call.
    solver_reused: bool = False
    #: Every component answered with the specification an earlier call
    #: propagated, so no propagation ran.
    spec_reused: bool = False
    #: The solvers this call built (one per shape it met first) / the
    #: components answered by a solver kept from an earlier call.
    solvers_built: int = 0
    solvers_reused: int = 0
    #: On a graph miss (a hit resolves nothing, so all four are 0): the
    #: components / those whose group content an earlier spec had
    #: already configured; the group shapes generated (machine groups
    #: met before an escape among them) / the call's groups answered by
    #: a shape already held.
    components_total: int = 0
    components_reused: int = 0
    groups_generated: int = 0
    groups_reused: int = 0
    #: Work done by this call: GraphGen runs (one per new group shape),
    #: formulas encoded, solver runs.
    graph_runs: int = 0
    encodes: int = 0
    solves: int = 0
    #: The distinct component shapes among this call's components.
    shapes: int = 0


@dataclass
class ConfigurationResult:
    """Everything the engine produced, for inspection and benchmarks."""

    spec: InstallSpec
    #: Builds the whole hypergraph, which a call that configured machine
    #: groups by shape never needed whole; read it as :attr:`graph`.
    build_graph: Callable[[], ResourceGraph]
    model: dict[str, bool]
    constraint_stats: ConstraintStats
    solver_stats: SolverStats
    deployed_ids: set[str] = field(default_factory=set)
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: Cache outcome when the result came from a session; None otherwise.
    cache: Optional[SessionCacheInfo] = None
    #: Component sizes/timings when the partitioned pipeline ran.
    partition: Optional[PartitionInfo] = None

    @property
    def graph(self) -> ResourceGraph:
        return self.build_graph()


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


class Decoded(NamedTuple):
    """A satisfiable shape's decoded answer, by node position."""

    #: The canonical model, one value per node.
    values: tuple[bool, ...]
    #: The deployed nodes, in the order the closure reached them.
    deployed: tuple[int, ...]
    #: :func:`~repro.config.propagation.link_plan`: which port feeds
    #: which, per selected edge.
    links: dict


class ComponentEntry:
    """One component *shape*'s encoding, solver and decoded answer.

    Entries are held by their group's
    :class:`~repro.config.groups.GroupShape`: ``component`` is that of
    the first group of the shape, and every other one differs only in
    its ids and explicit configuration, so the formula (variables
    numbered by position), the canonical model and the link plan are
    computed once on ``component`` and renamed onto the rest.  The unit
    facts never change, so the :class:`CdclSolver` -- learned clauses,
    activities, saved phases -- answers every later call as it stands.
    """

    __slots__ = (
        "component", "formula", "constraint_stats", "solver", "decoded",
        "__weakref__",
    )

    def __init__(self, component: GraphComponent) -> None:
        self.component = component
        self.formula: Optional[CnfFormula] = None
        self.constraint_stats: Optional[ConstraintStats] = None
        self.solver: Optional[CdclSolver] = None
        #: Set once the shape has been solved and found satisfiable.  The
        #: formula is fixed per entry and the decode reads its canonical
        #: model, so every later call would compute exactly this.
        self.decoded: Optional[Decoded] = None


class Answer:
    """A component's propagated instances, in install order, once known.

    The instances are frozen dataclasses; a session keeps the holder per
    component ``content`` and hands the same instances to every spec
    that has that component, inside a fresh container.
    """

    __slots__ = ("instances", "content", "__weakref__")

    def __init__(self, content: tuple = ()) -> None:
        self.instances: Optional[tuple[ResourceInstance, ...]] = None
        self.content = content


class Slot(NamedTuple):
    """One component of a configure call."""

    index: int
    #: The entry of the component's shape.
    entry: ComponentEntry
    #: The component's node ids, in the shape's node order.
    ids: tuple[str, ...]
    answer: Answer


@dataclass
class ComponentRun:
    """What :func:`configure_component` did with one component."""

    stats: ComponentStats
    encoded: bool
    solver_reused: bool
    #: The shape's solver ran in this call (once per shape at most).
    solved: bool = False
    spec_reused: bool = False
    #: The component's instances in install order -- the specification
    #: just propagated, or the tuple an earlier call propagated; None when
    #: the component is unsatisfiable.
    instances: Optional[Iterable[ResourceInstance]] = None
    model: dict[str, bool] = field(default_factory=dict)
    deployed: set[str] = field(default_factory=set)


def configure_component(
    registry: ResourceTypeRegistry,
    slot: Slot,
    nodes: Callable[[int], tuple[Sequence, Sequence]],
) -> ComponentRun:
    """Answer one component: encode, solve and decode its shape unless
    the shape's entry already holds them, then propagate values unless
    the slot's answer already holds them.

    ``nodes(index)`` gives the component's node keys and explicit
    configurations, by position; it is asked only when propagation runs.
    Whatever the entry lacks is built and left on it, and a propagated
    answer is left on the slot's holder; the timings are this call's
    own.  A component answered from a kept shape counts its solver as
    reused: the solver's verdict on an unchanged formula cannot change.
    """
    entry, ids = slot.entry, slot.ids
    started = time.perf_counter()
    encoded = entry.formula is None
    if encoded:
        entry.formula, entry.constraint_stats = generate_constraints(
            entry.component.graph
        )
    encode_done = time.perf_counter()
    stats = ComponentStats(
        index=slot.index,
        nodes=len(ids),
        edges=entry.constraint_stats.hyperedges,
        pinned=len(entry.component.pinned),
    )
    solver_reused = entry.solver is not None
    if not solver_reused:
        entry.solver = CdclSolver(entry.formula)
    solver = entry.solver
    run = ComponentRun(
        stats, encoded, solver_reused, solved=entry.decoded is None
    )
    satisfiable = not run.solved or solver.solve()
    stats.decisions = solver.stats.decisions
    stats.conflicts = solver.stats.conflicts
    if not satisfiable:
        return run
    if run.solved:
        entry.decoded = _decode(entry)
    solve_done = time.perf_counter()
    decoded = entry.decoded
    run.model = dict(zip(ids, decoded.values))
    run.deployed = deployed = set(ids[p] for p in decoded.deployed)
    if slot.answer.instances is not None:
        run.spec_reused = True
        run.instances = slot.answer.instances
        return run
    keys, configs = nodes(slot.index)
    spec = propagate_links(
        registry, ids, keys, configs, deployed, decoded.links
    )
    run.instances = spec
    slot.answer.instances = tuple(spec)
    if encoded:  # a cached encoding cost this call nothing, not one tick
        stats.encode_ms = (encode_done - started) * 1000.0
    if run.solved:
        stats.solve_ms = (solve_done - encode_done) * 1000.0
    stats.propagate_ms = (time.perf_counter() - solve_done) * 1000.0
    return run


def _decode(entry: ComponentEntry) -> Decoded:
    """Decode and plan the links of a solved shape, by position."""
    graph, formula = entry.component.graph, entry.formula
    model = {
        str(name): value
        for name, value in formula.decode_model(
            canonical_model(formula, entry.solver)
        ).items()
    }
    node_ids = entry.component.node_ids
    order, choices = selection_order(graph, model)
    position = {node_id: i for i, node_id in enumerate(node_ids)}
    return Decoded(
        values=tuple(model[node_id] for node_id in node_ids),
        deployed=tuple(position[node_id] for node_id in order),
        links=link_plan(graph, order, choices),
    )


def emit_config_trace(tracer, timings, partition=None) -> None:
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


class ConfigurationEngine:
    """Expands partial installation specifications to full ones.

    A call is a :class:`~repro.config.session.ConfigurationSession` call
    with an empty memo that is dropped afterwards: the machine groups of
    one shape share GraphGen, encode, solve and decode within the call,
    and nothing survives it.  With ``partition=True`` the pipeline
    configures machine groups, or the hypergraph's connected components,
    one by one; the specification is bit-identical to the monolithic
    one.  ``tracer`` receives the phase spans.
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
        from repro.config import session

        return session.configure_call(
            self._registry, self._partition, session.Memo(),
            partial, self._tracer,
        )


def accumulate_solver_stats(total: SolverStats, part: SolverStats) -> None:
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
