"""Incremental configuration sessions (the warm-query fast path).

The paper's §6.2 evaluation -- and any deployment manager serving
repeated traffic -- runs *families* of near-identical configuration
queries against one fixed resource library: re-planning a deployment,
sweeping a configuration space, answering the same request for many
tenants, growing a live fleet by a few replicas.
:class:`ConfigurationEngine` treats every call as cold; a session runs
the *same pipeline* (:meth:`ConfigurationEngine.run` over
:func:`~repro.config.engine.configure_component`) and differs only in
where each component's working state comes from.  It keeps three
levels, least recently used first out:

* per **fingerprint** of the partial specification
  (:mod:`repro.config.fingerprint`, order-sensitive in instances
  because GraphGen is), the **hypergraph** and its component list, so a
  repeated spec skips GraphGen and the partition pass;
* on the partitioned path, per **machine group** content (the group's
  slice of the canonical form), one
  :class:`~repro.config.groups.GroupGraph`: GraphGen over that group
  alone, and the component it was last assembled into;
* per component **content** (:func:`content_key`: the nodes and the
  edges, in order), one
  :class:`~repro.config.engine.ComponentEntry`: the **CNF encoding**,
  pinned instances included as unit clauses exactly as the engine states
  them (the content says which nodes are pinned, so an entry's facts
  never change), one **persistent** :class:`~repro.sat.solver.CdclSolver`
  whose learned clauses, VSIDS activities and saved phases survive
  across calls, and the **answer** once the component has been solved
  and propagated -- the formula is fixed, so a later call reuses the
  model and the frozen :class:`~repro.core.instances.ResourceInstance`
  values without solving or propagating, wrapped in a fresh
  :class:`~repro.core.instances.InstallSpec` container so callers that
  mutate their spec (provisioning, upgrades) cannot corrupt the cache.

The lower two levels are what make a day-2 step cost what changed.
GraphGen answers a dependency on the dependent's own machine unless a
peer finds nothing pinned there, so a spec the session has not seen
runs GraphGen only on the machine groups whose content is new and
assembles the global graph and its components from the groups exactly
as one global run names and orders them (:mod:`repro.config.groups`).
A spec whose groups cannot all be answered on their own machines -- a
peer shared across machines, a tie between generated candidates, an
error -- runs GraphGen and the partition pass over the whole spec, as
the engine does.  The constraints are edge-local (§4, Theorem 1), so
nothing crosses a connected component: a component with the same nodes
and edges is the same problem with the same canonical answer, and only
the components whose content is new are encoded, solved and propagated;
the rest are answered by the entries an earlier spec left.
Group and component entries are owned by the spec-level entries that
list them (both content tables are weak), so ``max_entries`` bounds
every level.

Registry **well-formedness** is verified once and memoized on the
registry; registering a type flushes the session.

Results are bit-identical to per-call
:meth:`ConfigurationEngine.configure` output: the same full
specifications, deployed ids and constraint sizes, with cache/timing
metadata attached.
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
from repro.config.engine import (
    ComponentEntry,
    ConfigurationEngine,
    ConfigurationResult,
    PhaseTimings,
    SessionCacheInfo,
)
from repro.config.fingerprint import (
    canonical_form,
    canonical_value,
    fingerprint_form,
)
from repro.config.groups import GroupGraph, assemble, split_by_machine
from repro.config.hypergraph import ResourceGraph
from repro.config.partition import GraphComponent


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
    #: Machine groups whose GraphGen ran / groups of a grouped assembly
    #: that an earlier spec had already generated.
    groups_generated: int = 0
    groups_reused: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.graph_hits + self.graph_misses
        return self.graph_hits / total if total else 0.0


class _Entry(NamedTuple):
    """Everything cached for one fingerprint.

    ``entries[i]`` is the kept state of ``components[i]``; an entry may
    be listed by several specs, each with its own (equal) component.
    ``groups`` are the machine groups the graph was assembled from (none
    on the global path); they, too, may be listed by several specs.
    """

    graph: ResourceGraph
    components: list[GraphComponent]
    entries: list[ComponentEntry]
    groups: tuple[GroupGraph, ...] = ()


def content_key(component: GraphComponent) -> tuple:
    """Everything encode, solve and propagate read from one
    component, as a hashable value.

    Node and edge *order* is part of the key: variable numbering, the
    canonical model and the per-source edge indexes the decoded choices
    are keyed by all depend on it.  So is each node's ``from_partial``
    flag: the entry's encoding states pinned nodes as unit clauses, and
    components that differ only in what is pinned must never share one.
    Pinned keys are taken by their exact version parts (``6.0 == 6.0.0``
    as versions, yet they print differently in the full specification).
    """
    graph = component.graph
    return (
        tuple(
            (
                node.instance_id, node.key.name, node.key.version.parts,
                node.from_partial, node.inside_id,
                canonical_value(node.explicit_config),
            )
            for node in graph.nodes()
        ),
        tuple(
            (edge.source_id, edge.kind, edge.targets, edge.alternatives)
            for edge in graph.edges()
        ),
    )


class ConfigurationSession:
    """A long-lived, cache-backed front end to the configuration engine.

    Accepts the same options as :class:`ConfigurationEngine` and
    produces bit-identical results; see the module docstring for what
    is amortized across calls.  ``max_entries``, its one option of its
    own, bounds the cache (least recently used entries are evicted,
    keeping memory flat under unbounded distinct-query traffic).
    """

    def __init__(
        self,
        registry: ResourceTypeRegistry,
        *,
        partition: bool = False,
        max_entries: int = 1024,
        tracer=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._engine = ConfigurationEngine(
            registry, partition=partition, tracer=tracer
        )
        self._registry = registry
        self._partition = partition
        self._max_entries = max_entries
        #: Fingerprint -> the spec's entry, least recently used first.
        self._entries: dict[str, _Entry] = {}
        #: :func:`content_key` -> the component entry some cached spec
        #: lists.  Weak: the spec-level entries own them, so evicting
        #: the last spec that lists one drops it and ``max_entries``
        #: stays the only bound.
        self._kept: weakref.WeakValueDictionary[tuple, ComponentEntry] = (
            weakref.WeakValueDictionary()
        )
        #: A machine group's slice of the canonical form -> its GraphGen
        #: run; weak for the same reason.
        self._groups: weakref.WeakValueDictionary[tuple, GroupGraph] = (
            weakref.WeakValueDictionary()
        )
        self.stats = SessionStats()
        self._registry_version = registry.version

    @property
    def registry(self) -> ResourceTypeRegistry:
        return self._registry

    def __len__(self) -> int:
        """Number of cached partial-spec structures."""
        return len(self._entries)

    def flush(self) -> None:
        """Drop every cached graph, formula, and solver."""
        self._entries.clear()
        self._kept.clear()
        self._groups.clear()

    # -- Cache plumbing -------------------------------------------------

    def _revalidate(self) -> None:
        """Flush if the registry changed since the caches were built."""
        if self._registry.version == self._registry_version:
            return
        self.flush()
        self.stats.invalidations += 1
        assert_well_formed(self._registry)
        self._registry_version = self._registry.version

    def _lookup(self, key: str) -> Optional[_Entry]:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._entries[key] = entry  # re-insert: LRU refresh
        return entry

    def _store(self, key: str, entry: _Entry) -> None:
        self._entries[key] = entry
        if len(self._entries) > self._max_entries:
            del self._entries[next(iter(self._entries))]
            self.stats.evictions += 1

    def _resolve(
        self, component: GraphComponent, cache: SessionCacheInfo
    ) -> ComponentEntry:
        """The kept entry for ``component``'s content, built where no
        cached spec has one."""
        key = content_key(component)
        kept = self._kept.get(key)
        if kept is None:
            kept = self._kept[key] = ComponentEntry(component)
        else:
            cache.components_reused += 1
        return kept

    def _global(
        self, partial: PartialInstallSpec, timings: PhaseTimings,
        cache: SessionCacheInfo,
    ) -> _Entry:
        """GraphGen over the whole spec, as the engine runs it."""
        graph, components = self._engine.components(partial, timings)
        entries = [
            self._resolve(component, cache) for component in components
        ]
        return _Entry(graph, components, entries)

    def _grouped(
        self, partial: PartialInstallSpec, form: tuple,
        timings: PhaseTimings, cache: SessionCacheInfo,
    ) -> Optional[_Entry]:
        """GraphGen per machine group, each group generated only if no
        cached spec holds its content (:mod:`repro.config.groups`);
        None when some group cannot be answered on its own machine."""
        started = time.perf_counter()
        machines = split_by_machine(partial)
        if machines is None:
            return None
        groups: list[GroupGraph] = []
        for members in machines.members:
            content = tuple(form[i] for i in members)
            group = self._groups.get(content)
            if group is None:
                group = GroupGraph(
                    self._registry,
                    [machines.instances[i] for i in members],
                )
                self._groups[content] = group
                cache.groups_generated += 1
            if group.escaped:
                return None
            groups.append(group)
        cache.groups_reused = len(groups) - cache.groups_generated
        graph, components, changed = assemble(machines, groups)
        timings.graph_ms = (time.perf_counter() - started) * 1000.0
        entries: list[ComponentEntry] = []
        for group, component, fresh in zip(groups, components, changed):
            if fresh:
                group.entry = self._resolve(component, cache)
            else:
                cache.components_reused += 1
            entries.append(group.entry)
        return _Entry(graph, components, entries, tuple(groups))

    # -- The pipeline ---------------------------------------------------

    @collector_paused
    def configure(self, partial: PartialInstallSpec) -> ConfigurationResult:
        """Expand ``partial``, reusing every cache the session holds.

        Semantics match :meth:`ConfigurationEngine.configure`, including
        :class:`~repro.core.errors.UnsatisfiableError` on Theorem 1
        failures.
        """
        self._revalidate()
        stats = self.stats
        stats.configure_calls += 1
        timings = PhaseTimings()
        form = canonical_form(partial)
        cache = SessionCacheInfo(fingerprint=fingerprint_form(form))
        entry = self._lookup(cache.fingerprint)
        cache.graph_hit = entry is not None
        if entry is None:
            # A new spec runs GraphGen only for the machine groups no
            # cached spec holds; a spec whose groups cannot be answered
            # machine by machine (a shared peer, a tie between generated
            # ids, an error) runs it over the whole spec.
            if self._partition:
                entry = self._grouped(partial, form, timings, cache)
            if entry is None:
                entry = self._global(partial, timings, cache)
            cache.components_total = len(entry.components)
            self._store(cache.fingerprint, entry)
        stats.graph_hits += cache.graph_hit
        stats.graph_misses += not cache.graph_hit
        stats.components_total += cache.components_total
        stats.components_reused += cache.components_reused
        stats.groups_generated += cache.groups_generated
        stats.groups_reused += cache.groups_reused
        for kept, component in zip(entry.entries, entry.components):
            # An entry shared with another spec may be looking at that
            # spec's (equal) component; this call reports its own.
            kept.component = component
        try:
            result = self._engine.run(
                entry.graph, entry.entries, timings, cache
            )
        finally:
            # Also on UNSAT: the encodings and solvers built for it are
            # kept and answer the next call.
            stats.cnf_hits += cache.cnf_hit
            stats.cnf_misses += not cache.cnf_hit
            stats.solver_builds += cache.solvers_built
            stats.solver_reuses += cache.solvers_reused
        stats.typecheck_skips += cache.spec_reused
        stats.typecheck_runs += not cache.spec_reused
        return result
