"""Incremental configuration sessions (the warm-query fast path).

The paper's §6.2 evaluation -- and any deployment manager serving
repeated traffic -- runs *families* of near-identical configuration
queries against one fixed resource library: re-planning a deployment,
sweeping a configuration space, answering the same request for many
tenants, growing a live fleet by a few replicas.
:class:`ConfigurationEngine` treats every call as cold; a session runs
the *same pipeline* (:meth:`ConfigurationEngine.run` over
:func:`~repro.config.engine.configure_component`) and differs only in
where each component's working state comes from.  It keeps two levels,
least recently used first out:

* per ``(partition, fingerprint)`` of the partial specification
  (:mod:`repro.config.fingerprint`, order-sensitive in instances
  because GraphGen is), the **hypergraph** and its component list, so a
  repeated spec skips GraphGen and the partition pass;
* per component **content** (:func:`content_key`: the mode, the nodes
  and the edges, in order), one
  :class:`~repro.config.engine.ComponentEntry`: the **CNF encoding**
  with the family-1 facts expressed as *assumption literals* rather
  than unit clauses (the clause database encodes only graph structure),
  one **persistent incremental** :class:`~repro.sat.solver.CdclSolver`
  whose learned clauses, VSIDS activities and saved phases survive
  across calls, the **canonical model** once it has been computed, and
  the **propagated specification** memoized by decoded outcome -- a
  call that reproduces an already-verified (deployed, choices) pair
  reuses the frozen :class:`~repro.core.instances.ResourceInstance`
  values instead of re-running value propagation and the static
  re-check, wrapped in a fresh
  :class:`~repro.core.instances.InstallSpec` container so callers that
  mutate their spec (provisioning, upgrades) cannot corrupt the cache.

The second level is what makes a day-2 step cost what changed.  The
constraints are edge-local (§4, Theorem 1), so nothing crosses a
connected component: a component with the same nodes and edges is the
same problem with the same canonical answer.  A spec the session has
not seen still runs GraphGen and the partition pass -- generated ids
are numbered per graph and unpinned peers are matched across machines,
so what each machine group holds is only known once the global worklist
has run -- but below that only the components whose content is new are
encoded, solved, propagated and typechecked; the rest are answered by
the entries an earlier spec left.  Component entries are owned by the
spec-level entries that list them (the content table is weak), so
``max_entries`` bounds both levels.

Registry **well-formedness** is verified once and memoized on the
registry; registering a type flushes the session.

Results are bit-identical to per-call
:meth:`ConfigurationEngine.configure` output: the same full
specifications and deployed ids, with cache/timing metadata attached.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from repro.core.collector import collector_paused
from repro.core.errors import ConfigurationError
from repro.core.instances import InstallSpec, PartialInstallSpec
from repro.core.registry import ResourceTypeRegistry
from repro.core.wellformed import assert_well_formed
from repro.config.engine import (
    ComponentEntry,
    ConfigurationEngine,
    ConfigurationResult,
    PhaseTimings,
    SessionCacheInfo,
)
from repro.config.fingerprint import canonical_value, fingerprint_partial
from repro.config.hypergraph import ResourceGraph
from repro.config.partition import GraphComponent, merge_component_specs
from repro.sat.encodings import ExactlyOneEncoding


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
    #: Calls that propagated and typechecked / calls that reused every
    #: component's verified instances.  A call that had to propagate
    #: with ``check_types=False`` counts as neither.
    typecheck_runs: int = 0
    typecheck_skips: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Components resolved by content on spec-level misses / those
    #: answered by an entry an earlier spec had already built.
    components_total: int = 0
    components_reused: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.graph_hits + self.graph_misses
        return self.graph_hits / total if total else 0.0


class _Entry(NamedTuple):
    """Everything cached for one (partition, fingerprint) key.

    ``entries[i]`` is the kept state of ``components[i]``; an entry may
    be listed by several specs, each with its own (equal) component.
    """

    graph: ResourceGraph
    components: list[GraphComponent]
    entries: list[ComponentEntry]


def content_key(partition: bool, component: GraphComponent) -> tuple:
    """Everything encode, solve, propagate and typecheck read from one
    component, as a hashable value.

    Node and edge *order* is part of the key: variable numbering, the
    canonical model and the per-source edge indexes the decoded choices
    are keyed by all depend on it.  The mode is part of it too -- a
    one-component graph is the same component partitioned or not, but
    the two modes never share an entry.  Pinned keys are taken by their
    exact version parts (``6.0 == 6.0.0`` as versions, yet they print
    differently in the full specification).
    """
    graph = component.graph
    return (
        partition,
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
    is amortized across calls.  ``max_entries`` bounds the cache (least
    recently used entries are evicted, keeping memory flat under
    unbounded distinct-query traffic).
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
        max_entries: int = 1024,
        tracer=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._engine = ConfigurationEngine(
            registry, encoding=encoding, check_types=check_types,
            verify_registry=verify_registry, explain_unsat=explain_unsat,
            peer_policy=peer_policy, partition=partition, tracer=tracer,
        )
        self._registry = registry
        self._check_types = check_types
        self._verify_registry = verify_registry
        self._partition = partition
        self._max_entries = max_entries
        #: Keyed by (partition, fingerprint): the two modes cache
        #: different component lists (the whole graph, or its connected
        #: components), so a mode flip must never serve the other
        #: mode's entry.
        self._entries: dict[tuple, _Entry] = {}
        #: :func:`content_key` -> the component entry some cached spec
        #: lists.  Weak: the spec-level entries own them, so evicting
        #: the last spec that lists one drops it and ``max_entries``
        #: stays the only bound.
        self._kept: weakref.WeakValueDictionary[tuple, ComponentEntry] = (
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

    # -- Cache plumbing -------------------------------------------------

    def _revalidate(self) -> None:
        """Flush if the registry changed since the caches were built."""
        if self._registry.version == self._registry_version:
            return
        self.flush()
        self.stats.invalidations += 1
        if self._verify_registry:
            assert_well_formed(self._registry)
        self._registry_version = self._registry.version

    def _lookup(self, key: tuple) -> Optional[_Entry]:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._entries[key] = entry  # re-insert: LRU refresh
        return entry

    def _store(self, key: tuple, entry: _Entry) -> None:
        self._entries[key] = entry
        if len(self._entries) > self._max_entries:
            del self._entries[next(iter(self._entries))]
            self.stats.evictions += 1

    def _resolve(
        self, partition: bool, components: list[GraphComponent],
        cache: SessionCacheInfo,
    ) -> list[ComponentEntry]:
        """The kept entry for each component's content, built where no
        cached spec has one."""
        entries: list[ComponentEntry] = []
        for component in components:
            key = content_key(partition, component)
            kept = self._kept.get(key)
            if kept is None:
                kept = self._kept[key] = ComponentEntry(component, keep=True)
            else:
                cache.components_reused += 1
            entries.append(kept)
        cache.components_total = len(components)
        return entries

    # -- The pipeline ---------------------------------------------------

    @collector_paused
    def configure(
        self,
        partial: PartialInstallSpec,
        *,
        partition: Optional[bool] = None,
    ) -> ConfigurationResult:
        """Expand ``partial``, reusing every cache the session holds.

        Semantics match :meth:`ConfigurationEngine.configure`, including
        :class:`~repro.core.errors.UnsatisfiableError` on Theorem 1
        failures.  ``partition`` overrides the session's configured
        mode for this call; the modes never share cache entries.
        """
        use_partition = self._partition if partition is None else partition
        self._revalidate()
        stats = self.stats
        stats.configure_calls += 1
        timings = PhaseTimings()
        cache = SessionCacheInfo(fingerprint=fingerprint_partial(partial))
        key = (use_partition, cache.fingerprint)
        entry = self._lookup(key)
        cache.graph_hit = entry is not None
        if entry is None:
            # GraphGen runs for every new spec: generated ids are
            # numbered per graph and unpinned peers matched across
            # machines, so what each component holds is only known once
            # the global worklist has run.  Reuse starts below it.
            graph, components = self._engine.components(
                partial, use_partition, timings
            )
            entry = _Entry(
                graph, components,
                self._resolve(use_partition, components, cache),
            )
            self._store(key, entry)
        stats.graph_hits += cache.graph_hit
        stats.graph_misses += not cache.graph_hit
        stats.components_total += cache.components_total
        stats.components_reused += cache.components_reused
        for kept, component in zip(entry.entries, entry.components):
            # An entry shared with another spec may be looking at that
            # spec's (equal) component; this call reports its own.
            kept.component = component
        try:
            result = self._engine.run(
                partial, entry.graph, entry.entries, use_partition,
                timings, cache,
            )
        finally:
            # Also on UNSAT: the encodings and solvers built for it are
            # kept and answer the next call.
            stats.cnf_hits += cache.cnf_hit
            stats.cnf_misses += not cache.cnf_hit
            stats.solver_builds += cache.solvers_built
            stats.solver_reuses += cache.solvers_reused
        stats.typecheck_skips += cache.typecheck_skipped
        stats.typecheck_runs += (
            self._check_types and not cache.typecheck_skipped
        )
        return result

    def reconfigure_components(
        self,
        partial: PartialInstallSpec,
        instance_ids: Iterable[str],
    ) -> InstallSpec:
        """Re-solve only the components containing ``instance_ids``;
        returns their merged full specification.

        This is the reconcile loop's goal-revalidation path: after a
        machine loss the controller re-derives just the affected slice
        of the goal and checks it still matches what it is about to
        redeploy.  The *cached full-graph partition* is what makes the
        result bit-identical to the matching slice of the full
        specification: generated node ids are numbered globally per
        graph, so configuring a smaller partial from scratch would
        renumber them.  Cold calls (no cached entry for ``partial``) run
        a full partitioned :meth:`configure` first.
        """
        wanted = set(instance_ids)
        if not wanted:
            raise ConfigurationError(
                "reconfigure_components needs at least one instance id"
            )
        self._revalidate()
        key = (True, fingerprint_partial(partial))
        entry = self._lookup(key)
        if entry is None:
            self.configure(partial, partition=True)
            entry = self._lookup(key)
            assert entry is not None  # configure() just stored it
        affected: list[ComponentEntry] = []
        covered: set[str] = set()
        for comp in entry.entries:
            hit = {iid for iid in wanted if iid in comp.component.graph}
            if hit:
                affected.append(comp)
                covered |= hit
        missing = wanted - covered
        if missing:
            raise ConfigurationError(
                "reconfigure_components: instances not in the configured "
                f"graph: {sorted(missing)}"
            )
        for comp in affected:
            # The guard must not be answered from the memo: its
            # instances are shared with every spec a warm call handed
            # out, so a caller who edited one in place (port dicts are
            # mutable) would be compared with its own edit.
            comp.verified.clear()
        cache = SessionCacheInfo()
        try:
            runs = self._engine.solve_components(
                partial, entry.graph, affected, cache, partition=True
            )
        finally:
            self.stats.solver_builds += cache.solvers_built
            self.stats.solver_reuses += cache.solvers_reused
        return merge_component_specs([run.instances for run in runs])

    def revalidate_instances(
        self,
        partial: PartialInstallSpec,
        spec: InstallSpec,
        instance_ids: Iterable[str],
    ) -> int:
        """Re-derive ``instance_ids`` through the warm per-component
        solvers and insist they still match ``spec``; returns how many
        instances were re-validated.

        The shared goal-drift guard: both the reconcile loop (before
        repairing toward a goal) and the delta planner (before
        deploying a new goal) call this so that no instance is driven
        toward a definition the solver never approved -- a mismatch
        means the spec was mutated since configuration, and acting on
        it would deploy an unverified system, so fail loudly instead.
        """
        wanted = list(instance_ids)
        if not wanted:
            return 0
        fresh = self.reconfigure_components(partial, wanted)
        for instance in fresh:
            if instance.id in spec and instance != spec[instance.id]:
                raise ConfigurationError(
                    f"goal drift: instance {instance.id!r} no longer "
                    "matches its configured definition; refusing to act "
                    "on an unverified goal"
                )
        return len(fresh)
