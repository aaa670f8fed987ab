"""Configuration by shape, and incremental configuration sessions.

The paper's §6.2 evaluation -- and any deployment manager serving
repeated traffic -- runs *families* of near-identical configuration
queries against one fixed resource library: re-planning a deployment,
sweeping a configuration space, answering the same request for many
tenants, growing a live fleet by a few replicas.  A fleet is also
symmetric inside one query: hundreds of components that are copies of
a few stacks.  :func:`configure_call` is the one configure pipeline,
and it exploits both through a :class:`Memo`:
:class:`~repro.config.engine.ConfigurationEngine` calls it with an
empty memo that is dropped afterwards, and a
:class:`ConfigurationSession` keeps one memo across calls.

A memo keys every component by its **shape** (:func:`shape_key`,
:func:`~repro.config.groups.group_shape_key`): what GraphGen, encode,
solve and decode read, with every id replaced by a position and the
explicit configuration left out (they only copy it).  Per shape it
holds

* on the partitioned path, per **machine group** shape, one
  :class:`~repro.config.groups.GroupShape`: GraphGen over the first
  such group alone.  GraphGen answers a dependency on the dependent's
  own machine unless a peer finds nothing pinned there, so the global
  graph is the groups' graphs renamed, with generated ids numbered as
  one global run numbers them (:mod:`repro.config.groups`);
* per component shape, one :class:`~repro.config.engine.ComponentEntry`:
  the **CNF encoding** (variables numbered by position, pinned
  instances as unit clauses), one **persistent**
  :class:`~repro.sat.solver.CdclSolver`, and once solved the canonical
  model, the deployed nodes and the link plan, all by position.

Each component renames its shape's answer onto its own ids and
propagates its own values, because hostnames and explicit
configuration differ; so does every order taken over id strings
(``python_runtime_10`` sorts before ``python_runtime_2``).  A spec whose
groups cannot all be answered on their own machines -- a peer shared
across machines, a tie between generated candidates, an error -- runs
GraphGen and the partition pass over the whole spec, and its components
still share their shapes' entries.

A session adds two levels, least recently used first out:

* per **fingerprint** of the partial specification
  (:mod:`repro.config.fingerprint`, order-sensitive in instances
  because GraphGen is), what the call resolved -- the shapes and names
  of its components, the whole-spec graph only on the global path -- so
  a repeated spec skips GraphGen, the partition pass and the shape keys;
* per component **content** (the shape, the ids and the explicit
  configuration), the propagated instances: a later spec with that
  component reuses them without propagating, wrapped in a fresh
  :class:`~repro.core.instances.InstallSpec` container so callers that
  mutate their spec (provisioning, upgrades) cannot corrupt the cache.

Shapes and answers are owned by the spec-level entries that list them
(both tables are weak), so :data:`MAX_ENTRIES` bounds every level, and
a spec-level entry holds no copy of what its shapes hold.  Registry
**well-formedness** is verified once and memoized on the registry;
registering a type flushes the session.

Results are bit-identical to per-component configuration of the whole
graph: the same full specifications, deployed ids and constraint
sizes, with cache/timing metadata attached.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.core.collector import collector_paused
from repro.core.instances import PartialInstallSpec
from repro.core.registry import ResourceTypeRegistry
from repro.core.wellformed import assert_well_formed
from repro.config.constraints import ConstraintStats
from repro.config.engine import (
    Answer,
    ComponentEntry,
    ComponentRun,
    ConfigurationResult,
    PhaseTimings,
    SessionCacheInfo,
    Slot,
    accumulate_solver_stats,
    configure_component,
    emit_config_trace,
    raise_unsatisfiable,
)
from repro.config.fingerprint import (
    canonical_form,
    canonical_value,
    fingerprint_form,
)
from repro.config.groups import (
    GroupShape,
    MachineSplit,
    assemble,
    assembled,
    group_nodes,
    group_shape_key,
    split_by_machine,
)
from repro.config.hypergraph import ResourceGraph, generate_graph
from repro.config.partition import (
    GraphComponent,
    PartitionInfo,
    merge_component_specs,
    partition_graph,
    whole_graph_component,
)
from repro.sat.solver import SolverStats

#: How many partial-spec structures a session keeps.
MAX_ENTRIES = 1024


@dataclass
class SessionStats:
    """Cumulative cache-hit/miss counters for one session."""

    configure_calls: int = 0
    graph_hits: int = 0
    graph_misses: int = 0
    cnf_hits: int = 0
    cnf_misses: int = 0
    solver_builds: int = 0
    solver_reuses: int = 0
    #: Calls that propagated some component / calls that reused every
    #: component's propagated instances (``SessionCacheInfo.spec_reused``).
    #: The names predate that flag: the frozen end-to-end benchmark reads
    #: these two counters by name for its ``typecheck_skip_rate`` metric,
    #: and they are renamed together with it.
    typecheck_runs: int = 0
    typecheck_skips: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Components resolved by content on spec-level misses / those
    #: answered by an entry an earlier spec had already built.
    components_total: int = 0
    components_reused: int = 0
    #: Machine groups whose shape had to be generated / groups answered
    #: by a shape already held.
    groups_generated: int = 0
    groups_reused: int = 0
    #: GraphGen runs, encodings and solver runs, summed over the calls.
    graph_runs: int = 0
    encodes: int = 0
    solves: int = 0
    #: After the last call: the machine-group shapes (GraphGen graphs)
    #: and the component encodings the session holds.
    group_shapes: int = 0
    encodings: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.graph_hits + self.graph_misses
        return self.graph_hits / total if total else 0.0


def shape_key(component: GraphComponent) -> tuple:
    """Everything encode, solve and decode read from one component, as
    a hashable value: each node's key (by its exact version parts --
    ``6.0 == 6.0.0`` as versions, yet they print differently), pinned
    flag and container, and each edge's source, kind and targets, with
    every id replaced by its node's position.

    Node and edge *order* is part of the key: variable numbering, the
    canonical model and the per-source edge indexes the decoded choices
    are keyed by all depend on it.  So is each node's ``from_partial``
    flag: the encoding states pinned nodes as unit clauses, and
    components that differ only in what is pinned must never share one.
    An edge's alternatives are not: they are its source's dependency,
    which the source's key and the edge's rank among its edges fix.
    """
    graph = component.graph
    nodes = graph.nodes()
    position = {node.instance_id: i for i, node in enumerate(nodes)}
    return (
        tuple(
            (
                node.key.name, node.key.version.parts, node.from_partial,
                position.get(node.inside_id),
            )
            for node in nodes
        ),
        tuple(
            (
                position[edge.source_id], edge.kind,
                tuple(position[target] for target in edge.targets),
            )
            for edge in graph.edges()
        ),
    )


class _Entry(NamedTuple):
    """Everything a memo keeps for one fingerprint.

    On the global path: the graph, its components and their slots.  On
    the grouped path: per machine group, its shape, its generated ids
    and its answer; the group's own ids and configuration come from
    the calling spec, and the graph is assembled only if asked for.
    """

    slots: tuple[Slot, ...] = ()
    graph: Optional[ResourceGraph] = None
    components: tuple[GraphComponent, ...] = ()
    groups: tuple[GroupShape, ...] = ()
    names: tuple[tuple[str, ...], ...] = ()
    generated: tuple[tuple[int, int], ...] = ()
    answers: tuple[Answer, ...] = ()


class Memo:
    """What configure calls share: shapes, and -- when ``stats`` is
    given, for a session -- the spec-level entries and the answers per
    content.  The tables of a session's memo are weak (the spec-level
    entries own what they list); a one-call memo keeps them plainly."""

    def __init__(self, stats: Optional[SessionStats] = None) -> None:
        self.stats = stats
        self.keep = stats is not None
        table = weakref.WeakValueDictionary if self.keep else dict
        #: Fingerprint -> the spec's entry, least recently used first.
        self.entries: dict[str, _Entry] = {}
        #: :func:`~repro.config.groups.group_shape_key` -> GraphGen run.
        self.groups = table()
        #: :func:`shape_key` -> the entry of a component from the
        #: global path.
        self.shapes = table()
        #: A component's content -> its propagated instances.
        self.answers = table()

    def clear(self) -> None:
        self.entries.clear()
        self.groups.clear()
        self.shapes.clear()
        self.answers.clear()

    def lookup(self, key: str) -> Optional[_Entry]:
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.entries[key] = entry  # re-insert: LRU refresh
        return entry

    def store(self, key: str, entry: _Entry) -> None:
        self.entries[key] = entry
        if len(self.entries) > MAX_ENTRIES:
            del self.entries[next(iter(self.entries))]
            self.stats.evictions += 1

    def answer(self, content: tuple, cache: SessionCacheInfo) -> Answer:
        """The answer kept for ``content``, or a new holder (kept if the
        memo keeps answers)."""
        if not self.keep:
            return Answer()
        kept = self.answers.get(content)
        if kept is None:
            kept = self.answers[content] = Answer()
        else:
            cache.components_reused += 1
        return kept

    def encodings(self) -> int:
        entries = [shape.entry for shape in self.groups.values()]
        entries += self.shapes.values()
        return sum(
            entry is not None and entry.formula is not None
            for entry in entries
        )


class _Layout:
    """Where one call's components come from: an entry of the global
    path holds its graph and components; a grouped one takes the calling
    spec's machine groups, and assembles the graph only if asked."""

    def __init__(
        self, partial: PartialInstallSpec, machines: Optional[MachineSplit],
        entry: _Entry,
    ) -> None:
        self.entry = entry
        self.grouped = entry.graph is None
        if self.grouped:
            self.machines = machines or split_by_machine(partial)
        self._assembled = None

    def slots(self) -> tuple[Slot, ...]:
        entry = self.entry
        if not self.grouped:
            return entry.slots
        instances = self.machines.instances
        return tuple(
            Slot(
                index, shape.entry,
                tuple(instances[i].id for i in members) + names, answer,
            )
            for index, (members, shape, names, answer) in enumerate(zip(
                self.machines.members, entry.groups, entry.names,
                entry.answers,
            ))
        )

    def nodes(self, index: int):
        """Component ``index``'s node keys and explicit configuration."""
        if self.grouped:
            return group_nodes(self.machines, self.entry.groups, index)
        nodes = self.entry.components[index].graph.nodes()
        return (
            [node.key for node in nodes],
            [node.explicit_config for node in nodes],
        )

    def whole(self) -> tuple[ResourceGraph, tuple[GraphComponent, ...]]:
        entry = self.entry
        if not self.grouped:
            return entry.graph, entry.components
        if self._assembled is None:
            self._assembled = assembled(
                self.machines, entry.groups, entry.names, entry.generated
            )
        return self._assembled

    def graph(self) -> ResourceGraph:
        return self.whole()[0]


def _grouped(
    registry: ResourceTypeRegistry, memo: Memo, machines: MachineSplit,
    form: Optional[tuple], timings: PhaseTimings, cache: SessionCacheInfo,
) -> Optional[_Entry]:
    """GraphGen per machine group shape, each generated only if the
    memo holds no group of its shape (:mod:`repro.config.groups`); None
    when some group cannot be answered on its own machine."""
    started = time.perf_counter()
    shapes: list[GroupShape] = []
    for members in machines.members:
        instances = [machines.instances[i] for i in members]
        key = group_shape_key(instances)
        shape = memo.groups.get(key)
        if shape is None:
            shape = memo.groups[key] = GroupShape(registry, instances)
            cache.groups_generated += 1
            cache.graph_runs += 1
        if shape.escaped:
            del memo.groups[key]  # the global run replaces it
            return None
        shapes.append(shape)
    cache.groups_reused = len(shapes) - cache.groups_generated
    names, generated = assemble(machines, shapes)
    timings.graph_ms = (time.perf_counter() - started) * 1000.0
    answers = [
        memo.answer(
            (tuple(form[i] for i in members), group_names)
            if form is not None else (),
            cache,
        )
        for members, group_names in zip(machines.members, names)
    ]
    return _Entry(
        groups=tuple(shapes), names=tuple(names),
        generated=tuple(generated), answers=tuple(answers),
    )


def _whole(
    registry: ResourceTypeRegistry, partition: bool, memo: Memo,
    partial: PartialInstallSpec, timings: PhaseTimings,
    cache: SessionCacheInfo,
) -> _Entry:
    """GraphGen over the whole spec, then its components (the whole
    graph as the one component unless partitioning), each resolved to
    its shape's entry."""
    started = time.perf_counter()
    graph = generate_graph(registry, partial)
    cache.graph_runs += 1
    ticked = time.perf_counter()
    timings.graph_ms = (ticked - started) * 1000.0
    if partition:
        components = partition_graph(graph).components
        timings.partition_ms = (time.perf_counter() - ticked) * 1000.0
    else:
        components = [whole_graph_component(graph)]
    # A lone component of a one-call memo has nothing to share a shape
    # with, so it skips the key.
    share = memo.keep or len(components) > 1
    slots: list[Slot] = []
    for component in components:
        key = None
        if share:
            key = shape_key(component)
            entry = memo.shapes.get(key)
            if entry is None:
                entry = memo.shapes[key] = ComponentEntry(component)
        else:
            entry = ComponentEntry(component)
        answer = memo.answer(
            (key, component.node_ids, tuple(
                canonical_value(node.explicit_config)
                for node in component.graph.nodes()
            )) if memo.keep else (),
            cache,
        )
        slots.append(Slot(component.index, entry, component.node_ids, answer))
    return _Entry(
        slots=tuple(slots), graph=graph, components=tuple(components)
    )


def configure_call(
    registry: ResourceTypeRegistry,
    partition: bool,
    memo: Memo,
    partial: PartialInstallSpec,
    tracer=None,
) -> ConfigurationResult:
    """Expand ``partial`` through ``memo``: resolve its components to
    shapes, answer each one (:func:`configure_component`; the first
    unsatisfiable one raises for the whole spec, with the diagnosis),
    merge, aggregate the stats into one result and emit the trace.

    A session call records its outcome on the result's ``cache`` and in
    ``memo.stats``; a one-call memo records nothing.
    """
    stats = memo.stats
    timings = PhaseTimings()
    cache = SessionCacheInfo()
    runs: list[ComponentRun] = []
    ran = False
    try:
        entry = form = machines = None
        if memo.keep:
            form = canonical_form(partial)
            cache.fingerprint = fingerprint_form(form)
            entry = memo.lookup(cache.fingerprint)
            cache.graph_hit = entry is not None
        if entry is None:
            # A new spec runs GraphGen only for the machine group shapes
            # the memo lacks; a spec whose groups cannot be answered
            # machine by machine (a shared peer, a tie between generated
            # ids, an error) runs it over the whole spec.
            if partition:
                machines = split_by_machine(partial)
                # One group is the whole spec: its GraphGen run is the
                # global one.
                if machines is not None and len(machines.members) > 1:
                    entry = _grouped(
                        registry, memo, machines, form, timings, cache
                    )
            if entry is None:
                machines = None
                entry = _whole(
                    registry, partition, memo, partial, timings, cache
                )
            cache.components_total = len(entry.slots or entry.groups)
            if memo.keep:
                memo.store(cache.fingerprint, entry)
        if stats is not None:
            stats.graph_hits += cache.graph_hit
            stats.graph_misses += not cache.graph_hit
            stats.components_total += cache.components_total
            stats.components_reused += cache.components_reused
            stats.groups_generated += cache.groups_generated
            stats.groups_reused += cache.groups_reused
        layout = _Layout(partial, machines, entry)
        slots = layout.slots()
        ran = True
        cache.cnf_hit = True
        built: set[int] = set()  # the entries whose solver this call built
        for slot in slots:
            run = configure_component(registry, slot, layout.nodes)
            cache.cnf_hit &= not run.encoded
            cache.encodes += run.encoded
            cache.solves += run.solved
            if not run.solver_reused:
                built.add(id(slot.entry))
                cache.solvers_built += 1
            elif id(slot.entry) not in built:
                cache.solvers_reused += 1
            if run.instances is None:
                _refuse(layout, slots)
            runs.append(run)
    finally:
        if stats is not None:
            stats.graph_runs += cache.graph_runs
            if ran:
                # Also on UNSAT: the encodings and solvers built for it
                # are kept and answer the next call.
                stats.cnf_hits += cache.cnf_hit
                stats.cnf_misses += not cache.cnf_hit
                stats.solver_builds += cache.solvers_built
                stats.solver_reuses += cache.solvers_reused
                stats.encodes += cache.encodes
                stats.solves += cache.solves
            stats.group_shapes = len(memo.groups)
            stats.encodings = memo.encodings()
    cache.solver_reused = cache.solvers_reused > 0
    cache.spec_reused = bool(runs) and all(run.spec_reused for run in runs)
    cache.shapes = len({id(slot.entry) for slot in slots})
    if stats is not None:
        stats.typecheck_skips += cache.spec_reused
        stats.typecheck_runs += not cache.spec_reused

    tick = time.perf_counter()
    spec = merge_component_specs([run.instances for run in runs])
    timings.propagate_ms = (time.perf_counter() - tick) * 1000.0
    # The encoding is edge-local, so the per-component sizes sum to
    # the whole-graph formula's exactly.
    constraint_stats = ConstraintStats(0, 0, 0, 0)
    solver_stats = SolverStats(components=len(slots))
    info = PartitionInfo(partition_ms=timings.partition_ms)
    model: dict[str, bool] = {}
    deployed: set[str] = set()
    for slot, run in zip(slots, runs):
        model.update(run.model)
        deployed |= run.deployed
        info.components.append(run.stats)
        timings.encode_ms += run.stats.encode_ms
        timings.solve_ms += run.stats.solve_ms
        timings.propagate_ms += run.stats.propagate_ms
        sizes = slot.entry.constraint_stats
        constraint_stats.variables += sizes.variables
        constraint_stats.clauses += sizes.clauses
        constraint_stats.facts += sizes.facts
        constraint_stats.hyperedges += sizes.hyperedges
        accumulate_solver_stats(solver_stats, slot.entry.solver.stats)
    partition_info = info if partition else None
    emit_config_trace(tracer, timings, partition_info)
    graph = entry.graph
    return ConfigurationResult(
        spec=spec,
        # Only a grouped graph is built late; the result keeps no more
        # than that needs (not the shapes a one-call memo lets go).
        build_graph=layout.graph if layout.grouped else lambda: graph,
        model=model,
        constraint_stats=constraint_stats,
        solver_stats=solver_stats,
        deployed_ids=deployed,
        timings=timings,
        cache=cache if memo.keep else None,
        partition=partition_info,
    )


def _refuse(layout: _Layout, slots: tuple[Slot, ...]) -> None:
    """Raise the call's :class:`UnsatisfiableError`: the diagnosis runs
    over the spec's own components, reusing a shape's encoding where
    the component is the one it was encoded for."""
    graph, components = layout.whole()
    entries = []
    for slot, component in zip(slots, components):
        entry = ComponentEntry(component)
        if slot.ids == slot.entry.component.node_ids:
            entry.formula = slot.entry.formula
        entries.append(entry)
    raise_unsatisfiable(graph, entries)


class ConfigurationSession:
    """A long-lived, cache-backed front end to the configuration engine.

    Takes :class:`~repro.config.engine.ConfigurationEngine`'s
    ``partition`` and produces bit-identical results; see the module
    docstring for what is kept across calls.  :data:`MAX_ENTRIES` bounds
    the cache (least recently used entries are evicted, keeping memory
    flat under unbounded distinct-query traffic).
    """

    def __init__(
        self, registry: ResourceTypeRegistry, *, partition: bool = False
    ) -> None:
        assert_well_formed(registry)
        self._registry = registry
        self._partition = partition
        self.stats = SessionStats()
        self._memo = Memo(self.stats)
        self._registry_version = registry.version

    @property
    def registry(self) -> ResourceTypeRegistry:
        return self._registry

    def __len__(self) -> int:
        """Number of cached partial-spec structures."""
        return len(self._memo.entries)

    def flush(self) -> None:
        """Drop every cached shape, graph, formula, solver and answer."""
        self._memo.clear()

    def _revalidate(self) -> None:
        """Flush if the registry changed since the caches were built."""
        if self._registry.version == self._registry_version:
            return
        self.flush()
        self.stats.invalidations += 1
        assert_well_formed(self._registry)
        self._registry_version = self._registry.version

    @collector_paused
    def configure(self, partial: PartialInstallSpec) -> ConfigurationResult:
        """Expand ``partial``, reusing every cache the session holds.

        Semantics match
        :meth:`~repro.config.engine.ConfigurationEngine.configure`,
        including :class:`~repro.core.errors.UnsatisfiableError` on
        Theorem 1 failures.
        """
        self._revalidate()
        self.stats.configure_calls += 1
        return configure_call(
            self._registry, self._partition, self._memo, partial
        )
