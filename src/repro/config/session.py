"""Configuration by group shape, and incremental configuration sessions.

Configure traffic comes in families of near-identical queries (the
paper's §6.2 sweep, re-planning, a fleet growing by a few replicas),
and a fleet is symmetric inside one query: hundreds of copies of a few
stacks.  :func:`configure_call` is the one configure pipeline, and it
exploits both through a :class:`Memo`:
:class:`~repro.config.engine.ConfigurationEngine` calls it with an
empty memo that is dropped afterwards, and a
:class:`ConfigurationSession` keeps one memo across calls.

A call is a list of **groups** (:mod:`repro.config.groups`): the
machine groups of a partitioned spec, or the one degenerate group of
every instance when the spec is not partitioned, is one machine, has a
dangling or cyclic inside chain, or has a group that cannot be answered
on its own machine (a shared peer, a tie between generated candidates,
an error).  Each group resolves to its
:class:`~repro.config.groups.GroupShape` by
:func:`~repro.config.groups.group_shape_key`, so GraphGen runs once per
shape; the degenerate group's key adds its ids (a run over several
machines may rank generated ids), and a one-call memo computes none.
A shape holds its components'
:class:`~repro.config.engine.ComponentEntry` -- encoding, persistent
solver and decoded answer, by position: one for a machine group, one
per :func:`~repro.config.partition.partition_graph` component (or the
whole graph) for the degenerate group.  Each component renames its
shape's answer onto its own ids and propagates its own values.

A session keys what it keeps on groups, least recently used first out:

* per group **content** -- the shape's key, the member ids, each
  member's :func:`canonical_value` configuration and the generated ids
  -- the propagated instances, which a later spec with that group
  reuses without propagating (in a fresh container, so callers that
  mutate their spec cannot corrupt the cache);
* per **spec** -- the split's owner sequence and its groups' contents,
  which name the spec exactly (a version by its parts: ``6.00`` is
  ``6.0``) -- what it resolved to, so a repeated spec resolves nothing,
  and the machine-group shapes it met before one escaped, so a repeated
  hub structure declines without GraphGen.

Shapes and answers are owned by the spec-level entries that list them
(both tables are weak), so :data:`MAX_ENTRIES` bounds every level.
Registering a type flushes the session.  Results are bit-identical to
per-component configuration of the whole graph.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from repro.core.collector import collector_paused
from repro.core.errors import UnsatisfiableError
from repro.core.instances import PartialInstallSpec, PartialInstance
from repro.core.registry import ResourceTypeRegistry
from repro.core.wellformed import assert_well_formed
from repro.config import explain
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
)
from repro.config.groups import (
    GroupShape,
    MachineSplit,
    assemble,
    assembled,
    group_nodes,
    group_shape,
    group_shape_key,
    split_by_machine,
)
from repro.config.hypergraph import generate_graph
from repro.config.partition import (
    PartitionInfo,
    merge_component_specs,
    partition_graph,
    whole_graph_component,
)
from repro.sat.solver import SolverStats

#: How many partial specs a session keeps.
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
    #: component's answer (``SessionCacheInfo.spec_reused``); the frozen
    #: benchmark reads the older names for ``typecheck_skip_rate``.
    typecheck_runs: int = 0
    typecheck_skips: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: The per-call counts of :class:`SessionCacheInfo`, summed.
    components_total: int = 0
    components_reused: int = 0
    groups_generated: int = 0
    groups_reused: int = 0
    graph_runs: int = 0
    encodes: int = 0
    solves: int = 0
    #: After the last call: the group shapes (GraphGen graphs) and the
    #: component encodings the session holds.
    group_shapes: int = 0
    encodings: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.graph_hits + self.graph_misses
        return self.graph_hits / total if total else 0.0


#: The value types that stand for themselves in a canonical value.
_PLAIN = {str: "str", int: "int", bool: "bool", type(None): "None"}


def canonical_value(value: Any) -> object:
    """A hashable form of a port value: ``1``, ``1.0``, ``True`` and
    ``"1"`` stay apart by their type, and a dict's key order (which
    changes neither the expanded specification nor the saved state) is
    left out."""
    kind = type(value)
    if kind is dict:
        return ("dict", tuple(sorted(
            [(str(k), canonical_value(v)) for k, v in value.items()]
        )))
    if kind is list or kind is tuple:
        return (kind.__name__, tuple([canonical_value(v) for v in value]))
    name = _PLAIN.get(kind)  # any other value (a float: NaN != NaN) by repr
    return (kind.__name__, repr(value)) if name is None else (name, value)


class Resolved(NamedTuple):
    """What a spec resolved to: per group of the call, its shape and
    its generated ids in the shape's node order; per component, in call
    order, its answer; and the machine-group shapes met before one
    escaped."""

    groups: tuple[GroupShape, ...]
    names: tuple[tuple[str, ...], ...]
    answers: tuple[Answer, ...]
    declined: tuple[GroupShape, ...] = ()


class Memo:
    """What configure calls share: group shapes, and for a session (when
    ``stats`` is given) the spec-level entries and the answers.  A
    session's tables are weak (the spec-level entries own what they
    list); a one-call memo keeps them plainly."""

    def __init__(self, stats: Optional[SessionStats] = None) -> None:
        self.stats = stats
        self.keep = stats is not None
        table = weakref.WeakValueDictionary if self.keep else dict
        #: A spec's key -> what it resolved to, least recently used first.
        self.entries: dict[tuple, Resolved] = {}
        #: A group's key -> its shape.
        self.groups = table()
        #: A group's content, generated ids and component index -> that
        #: component's propagated instances.
        self.answers = table()

    def lookup(self, key: tuple) -> Optional[Resolved]:
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.entries[key] = entry  # re-insert: LRU refresh
        return entry

    def store(self, key: tuple, entry: Resolved) -> None:
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
            kept = self.answers[content] = Answer(content)
        else:
            cache.components_reused += 1
        return kept


def _one_group(instances: list[PartialInstance]) -> MachineSplit:
    """The degenerate group: every instance, in specification order."""
    return MachineSplit(
        instances, [0] * len(instances), [list(range(len(instances)))]
    )


def _contents(split: MachineSplit, values: list) -> list[tuple]:
    """Each group's shape key, member ids and configuration values."""
    contents = []
    for members in split.members:
        group = [split.instances[i] for i in members]
        contents.append((
            group_shape_key(group),
            tuple(instance.id for instance in group),
            tuple(values[i] for i in members),
        ))
    return contents


class _Call:
    """One call's groups -- ``split`` (the degenerate group is a split of
    one) and what they resolved to -- and their components as slots."""

    def __init__(self, split: MachineSplit, resolved: Resolved) -> None:
        self.split = split
        self.resolved = resolved
        self.slots: list[Slot] = []
        #: Per slot: its group and its nodes' positions in the group.
        self.places: list[tuple[int, tuple[int, ...]]] = []
        answers = iter(resolved.answers)
        for group, (members, shape, names) in enumerate(zip(
            split.members, resolved.groups, resolved.names
        )):
            ids = tuple(split.instances[i].id for i in members) + names
            for entry, positions in zip(shape.entries, shape.positions):
                self.slots.append(Slot(
                    len(self.slots), entry,
                    tuple(ids[p] for p in positions)
                    if len(shape.entries) > 1 else ids,
                    next(answers),
                ))
                self.places.append((group, positions))

    def nodes(self, index: int):
        """Component ``index``'s node keys and explicit configuration."""
        group, positions = self.places[index]
        keys, configs = group_nodes(self.split, self.resolved.groups, group)
        if len(positions) < len(keys):
            keys = [keys[p] for p in positions]
            configs = [configs[p] for p in positions]
        return keys, configs

    def whole(self, diagnosis: bool = False):
        """The call's graph and components; for a ``diagnosis``, which
        reads no configuration, a degenerate shape's own."""
        groups = self.resolved.groups
        if diagnosis and len(groups) == 1:
            return groups[0].graph, [e.component for e in groups[0].entries]
        return assembled(self.split, groups)


def _resolve(
    registry: ResourceTypeRegistry, partition: bool, memo: Memo,
    partial: PartialInstallSpec, timings: PhaseTimings,
    cache: SessionCacheInfo,
) -> _Call:
    """Resolve ``partial`` to its groups' shapes and answers: a session
    looks the spec up first, and a miss runs GraphGen only for the
    shapes the memo lacks."""
    instances = list(partial)
    machines = split_by_machine(partial) if partition else None
    if machines is not None and len(machines.members) < 2:
        machines = None  # one machine group is the whole spec
    contents = spec_key = None
    if memo.keep:
        values = [canonical_value(instance.config) for instance in instances]
        contents = _contents(machines or _one_group(instances), values)
        spec_key = (tuple(machines.owner) if machines else (), tuple(contents))
        resolved = memo.lookup(spec_key)
        if resolved is not None:
            cache.graph_hit = True
            one = len(resolved.groups) == 1
            return _Call(_one_group(instances) if one else machines, resolved)
    started = time.perf_counter()
    shapes: list[GroupShape] = []
    for index, members in enumerate(machines.members if machines else ()):
        group = [instances[i] for i in members]
        key = contents[index][0] if contents else group_shape_key(group)
        shape = memo.groups.get(key)
        if shape is None:
            shape = memo.groups[key] = group_shape(registry, group)
            cache.groups_generated += 1
            cache.graph_runs += 1
        shapes.append(shape)
        if shape.escaped:
            break
    declined: tuple[GroupShape, ...] = ()
    if shapes and not shapes[-1].escaped:
        cache.groups_reused = len(shapes) - cache.groups_generated
        names = assemble(machines, shapes)[0]
    else:
        declined, machines, key = tuple(shapes), None, None
        if memo.keep:
            # The ids join the key: a run over several machines may
            # rank generated ids, which a renaming could reorder.
            [(group, ids, group_values)] = (
                _contents(_one_group(instances), values) if declined
                else contents
            )
            key = group + (ids,)
            contents = [(key, ids, group_values)]
        shape = _degenerate(registry, partition, memo, partial, key,
                            timings, cache)
        shapes = [shape]
        names = [tuple(
            node.instance_id for node in shape.graph.nodes()[len(instances):]
        )]
    answers = [
        memo.answer((content, group_names, index), cache)
        for content, shape, group_names in zip(
            contents or [None] * len(shapes), shapes, names
        )
        for index in range(len(shape.entries))
    ]
    timings.graph_ms = (
        (time.perf_counter() - started) * 1000.0 - timings.partition_ms
    )
    cache.components_total = len(answers)
    resolved = Resolved(tuple(shapes), tuple(names), tuple(answers), declined)
    if memo.keep:
        if len(shapes) > 1:
            # The key shares its groups' contents with their answers
            # (one per machine group) rather than hold copies.
            contents = tuple(answer.content[0] for answer in answers)
            spec_key = (spec_key[0], contents)
        memo.store(spec_key, resolved)
    return _Call(machines or _one_group(instances), resolved)


def _degenerate(
    registry: ResourceTypeRegistry, partition: bool, memo: Memo,
    partial: PartialInstallSpec, key: Optional[tuple],
    timings: PhaseTimings, cache: SessionCacheInfo,
) -> GroupShape:
    """The degenerate group's shape, generated over the whole spec
    unless the memo holds it; its GraphGen error is the call's."""
    shape = memo.groups.get(key) if key is not None else None
    if shape is not None:
        cache.groups_reused += 1
        return shape
    graph = generate_graph(registry, partial)
    cache.groups_generated += 1
    cache.graph_runs += 1
    if partition:
        started = time.perf_counter()
        components = partition_graph(graph).components
        timings.partition_ms = (time.perf_counter() - started) * 1000.0
    else:
        components = [whole_graph_component(graph)]
    shape = GroupShape(graph, components)
    if key is not None:
        memo.groups[key] = shape
    return shape


def configure_call(
    registry: ResourceTypeRegistry,
    partition: bool,
    memo: Memo,
    partial: PartialInstallSpec,
    tracer=None,
) -> ConfigurationResult:
    """Expand ``partial`` through ``memo``: resolve its groups to
    shapes, answer each component (:func:`configure_component`; the
    first unsatisfiable one raises for the whole spec, with the
    diagnosis), merge, aggregate the stats into one result and emit the
    trace.

    A session call records its outcome on the result's ``cache`` and in
    ``memo.stats``; a one-call memo records nothing.
    """
    stats = memo.stats
    timings = PhaseTimings()
    cache = SessionCacheInfo()
    runs: list[ComponentRun] = []
    ran = False
    try:
        call = _resolve(registry, partition, memo, partial, timings, cache)
        if stats is not None:
            stats.graph_hits += cache.graph_hit
            stats.graph_misses += not cache.graph_hit
            stats.components_total += cache.components_total
            stats.components_reused += cache.components_reused
            stats.groups_generated += cache.groups_generated
            stats.groups_reused += cache.groups_reused
        slots = call.slots
        ran = True
        cache.cnf_hit = True
        built: set[int] = set()  # the entries whose solver this call built
        for slot in slots:
            run = configure_component(registry, slot, call.nodes)
            cache.cnf_hit &= not run.encoded
            cache.encodes += run.encoded
            cache.solves += run.solved
            if not run.solver_reused:
                built.add(id(slot.entry))
                cache.solvers_built += 1
            elif id(slot.entry) not in built:
                cache.solvers_reused += 1
            if run.spec is None:
                _refuse(call)
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
            stats.encodings = sum(
                entry.formula is not None
                for shape in memo.groups.values() for entry in shape.entries
            )
    cache.solver_reused = cache.solvers_reused > 0
    cache.spec_reused = bool(runs) and all(run.spec_reused for run in runs)
    cache.shapes = len({id(slot.entry) for slot in slots})
    if stats is not None:
        stats.typecheck_skips += cache.spec_reused
        stats.typecheck_runs += not cache.spec_reused

    tick = time.perf_counter()
    spec = merge_component_specs([run.spec for run in runs])
    timings.propagate_ms = (time.perf_counter() - tick) * 1000.0
    # The encoding is edge-local: component sizes sum to the whole's.
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
    build_graph = lambda: call.whole()[0]
    if not memo.keep and len(call.resolved.groups) == 1:
        # A one-call memo's degenerate shape is this call's own graph:
        # the result keeps that, not the shapes the memo lets go.
        graph = call.resolved.groups[0].graph
        build_graph = lambda: graph
    return ConfigurationResult(
        spec=spec,
        build_graph=build_graph,
        model=model,
        constraint_stats=constraint_stats,
        solver_stats=solver_stats,
        deployed_ids=deployed,
        timings=timings,
        cache=cache if memo.keep else None,
        partition=partition_info,
    )


def _refuse(call: _Call) -> None:
    """Raise the Theorem 1 :class:`UnsatisfiableError` with the
    minimal-conflict diagnosis :mod:`repro.config.explain` computes over
    the spec's own components, reusing a shape's encoding where the
    component is the one it was encoded for."""
    graph, components = call.whole(diagnosis=True)
    entries = []
    for slot, component in zip(call.slots, components):
        entry = ComponentEntry(component)
        if slot.ids == slot.entry.component.node_ids:
            entry.formula = slot.entry.formula
        entries.append(entry)
    message = (
        "no full installation specification extends the partial "
        f"specification (over {len(graph)} candidate instances)"
    )
    explanation = explain.explain_unsat(graph, entries)
    if explanation is not None:
        message += "\n" + explanation.message(graph)
    raise UnsatisfiableError(message)


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
        """Number of cached partial specs."""
        return len(self._memo.entries)

    def flush(self) -> None:
        """Drop every cached shape, graph, formula, solver and answer."""
        self._memo = Memo(self.stats)

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
