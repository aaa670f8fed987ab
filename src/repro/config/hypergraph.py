"""Hypergraph generation: the ``GraphGen(R, I)`` worklist algorithm (S4).

Nodes are resource instances; hyperedges represent dependencies.  The
algorithm seeds the graph with the partial installation specification's
instances, then iteratively processes instances: abstract dependency
targets are lowered to their concrete frontier, each disjunct is matched
against an existing compatible node (subtype, and same machine for
environment dependencies) or materialised as a new node, and a hyperedge
with one target per disjunct is recorded (Lemma 1).

The paper's conservative placement rules are followed: new instances from
environment *and* peer dependencies live on the dependent's machine
("unless explicitly specified, a peer dependency is deployed at the same
machine as the machine of its dependent").
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Container, Iterable, Optional

from repro.core.errors import (
    ConfigurationError,
    MissingInsideError,
    SpecError,
)
from repro.core.instances import PartialInstallSpec
from repro.core.keys import ResourceKey
from repro.core.registry import ResourceTypeRegistry
from repro.core.resource_type import (
    Dependency,
    DependencyAlternative,
    DependencyKind,
)


@dataclass
class GraphNode:
    """A (concrete) resource instance under construction."""

    instance_id: str
    key: ResourceKey
    from_partial: bool = False
    inside_id: Optional[str] = None
    explicit_config: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        marker = " *" if self.from_partial else ""
        return f"{self.instance_id}: {self.key}{marker}"


@dataclass
class HyperEdge:
    """A dependency hyperedge: one source, one target per disjunct.

    ``alternatives[i]`` is the (lowered) dependency alternative satisfied
    by ``targets[i]`` -- it carries the port mappings used during value
    propagation if that disjunct is selected.
    """

    source_id: str
    kind: DependencyKind
    targets: tuple[str, ...]
    alternatives: tuple[DependencyAlternative, ...]

    def __post_init__(self) -> None:
        if len(self.targets) != len(self.alternatives):
            raise ConfigurationError(
                "hyperedge targets and alternatives must align"
            )

    def __str__(self) -> str:
        targets = ", ".join(self.targets)
        return f"{self.source_id} --{self.kind.value}--> {{{targets}}}"


class ResourceGraph:
    """The directed hypergraph produced by :func:`generate_graph`."""

    def __init__(self) -> None:
        self._nodes: dict[str, GraphNode] = {}
        self._edges: list[HyperEdge] = []
        #: source id -> its edges in insertion order; the decoded choices
        #: are keyed by an edge's index in this list.
        self._edges_by_source: dict[str, list[HyperEdge]] = {}
        self._ids_by_slug: dict[str, int] = {}
        #: Insertion-ordered node buckets per exact key, so a candidate
        #: lookup visits the buckets of the wanted key's subtypes only.
        self._nodes_by_key: dict[ResourceKey, list[GraphNode]] = {}
        #: instance id -> machine id.  Inside links are fixed at node
        #: creation, so the walk result never changes.
        self._machine_cache: dict[str, str] = {}
        #: (machine id, exact key) -> nodes, filled lazily from
        #: :attr:`_unbucketed` so machine chains can complete before the
        #: first placement query forces the walk.
        self._machine_buckets: dict[tuple[str, ResourceKey], list[GraphNode]] = {}
        self._unbucketed: deque[GraphNode] = deque()
        #: Bookkeeping for :mod:`repro.config.groups`, which runs GraphGen
        #: per machine group and needs to know whether a group's answers
        #: are the global run's.  ``escaped`` is set when a query's
        #: answer may depend on other machines or on generated ids (see
        #: :func:`_find_existing`); ``materialised_by`` maps each
        #: generated node to the node whose processing created it, and
        #: ``processing`` is that node while it is processed.
        self.escaped = False
        self.materialised_by: dict[str, str] = {}
        self.processing: Optional[str] = None

    # -- Nodes ---------------------------------------------------------------

    def add_node(self, node: GraphNode) -> None:
        if node.instance_id in self._nodes:
            raise ConfigurationError(f"duplicate node id: {node.instance_id}")
        self._nodes[node.instance_id] = node
        self._nodes_by_key.setdefault(node.key, []).append(node)
        self._unbucketed.append(node)

    def node(self, instance_id: str) -> GraphNode:
        try:
            return self._nodes[instance_id]
        except KeyError:
            raise ConfigurationError(f"no node {instance_id!r}") from None

    def nodes(self) -> list[GraphNode]:
        return list(self._nodes.values())

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def fresh_id(self, key: ResourceKey) -> str:
        """A deterministic, human-readable id for a generated instance."""
        return fresh_id(self._ids_by_slug, self._nodes, key)

    # -- Edges ---------------------------------------------------------------

    def add_edge(self, edge: HyperEdge) -> None:
        self._edges.append(edge)
        self._edges_by_source.setdefault(edge.source_id, []).append(edge)

    def edges(self) -> list[HyperEdge]:
        return list(self._edges)

    def edges_from(self, instance_id: str) -> list[HyperEdge]:
        return list(self._edges_by_source.get(instance_id, ()))

    def nodes_matching(
        self, registry: ResourceTypeRegistry, key: ResourceKey
    ) -> Iterable[GraphNode]:
        """All nodes whose key subtypes ``key``, via the per-key index.

        Buckets come in the subtype set's order, which is not insertion
        order: callers rank candidates by a total order of their own.
        """
        nodes_by_key = self._nodes_by_key
        for node_key in registry.subtypes(key):
            bucket = nodes_by_key.get(node_key)
            if bucket:
                yield from bucket

    def nodes_matching_on(
        self,
        registry: ResourceTypeRegistry,
        key: ResourceKey,
        machine_id: str,
    ) -> Iterable[GraphNode]:
        """Like :meth:`nodes_matching`, restricted to one machine.

        Served from per-(machine, key) buckets, so a placement query
        pays for the candidates on *its* machine rather than for every
        same-key node in a fleet-sized graph.
        """
        while self._unbucketed:
            node = self._unbucketed.popleft()
            machine = self.machine_of(node.instance_id)
            self._machine_buckets.setdefault(
                (machine, node.key), []
            ).append(node)
        for node_key in registry.subtypes(key):
            bucket = self._machine_buckets.get((machine_id, node_key))
            if bucket:
                yield from bucket

    # -- Machine context ------------------------------------------------------

    def machine_of(self, instance_id: str) -> str:
        """Follow inside links to the physical machine (S3.1)."""
        cache = self._machine_cache
        chain: list[str] = []
        seen: set[str] = set()
        current = self.node(instance_id)
        while True:
            hit = cache.get(current.instance_id)
            if hit is not None:
                machine = hit
                break
            if current.inside_id is None:
                machine = current.instance_id
                break
            if current.instance_id in seen:
                raise ConfigurationError(
                    f"inside cycle at node {current.instance_id}"
                )
            seen.add(current.instance_id)
            chain.append(current.instance_id)
            current = self.node(current.inside_id)
        for walked in chain:
            cache[walked] = machine
        return machine

    def nodes_on_machine(self, machine_id: str) -> list[GraphNode]:
        return [
            node
            for node in self.nodes()
            if self.machine_of(node.instance_id) == machine_id
        ]


def fresh_id(
    counts: dict[str, int], taken: Container[str], key: ResourceKey
) -> str:
    """The next generated id for ``key``: its slug numbered by a counter
    per slug (``python_runtime``, ``python_runtime_2``, ...), skipping
    every id in ``taken``.  ``counts`` is updated in place."""
    slug = re.sub(r"[^a-z0-9]+", "_", key.name.lower()).strip("_")
    count = counts.get(slug, 0)
    counts[slug] = count + 1
    candidate = slug if count == 0 else f"{slug}_{count + 1}"
    while candidate in taken:
        count += 1
        counts[slug] = count + 1
        candidate = f"{slug}_{count + 1}"
    return candidate


def lower_alternatives(
    registry: ResourceTypeRegistry, dependency: Dependency
) -> tuple[DependencyAlternative, ...]:
    """Lower a dependency's alternatives to concrete keys.

    Abstract keys are replaced by their concrete frontier (S4); each
    frontier member inherits the abstract alternative's port mappings
    (sound because frontier members subtype the abstract target, hence
    declare at least its output ports).

    Lowered once per dependency and registry version: GraphGen asks for
    every edge of every node, which at fleet scale is the library's few
    dozen dependencies thousands of times over.  The memo is keyed by
    the dependency's identity -- hashing one by value walks every
    alternative's port mappings on every call -- and holds the
    dependency, so its id cannot be reused while the entry lives.
    """
    memo = registry.derived("lowered-alternatives", lambda _registry: {})
    hit = memo.get(id(dependency))
    if hit is not None and hit[0] is dependency:
        return hit[1]
    lowered: list[DependencyAlternative] = []
    seen: set[ResourceKey] = set()
    for alt in dependency.alternatives:
        resource_type = registry.effective(alt.key)
        if resource_type.abstract:
            frontier = registry.concrete_frontier(alt.key)
        else:
            frontier = [alt.key]
        for key in frontier:
            if key not in seen:
                seen.add(key)
                lowered.append(
                    DependencyAlternative(
                        key, alt.port_mapping, alt.reverse_mapping
                    )
                )
    result = tuple(lowered)
    memo[id(dependency)] = (dependency, result)
    return result


def generate_graph(
    registry: ResourceTypeRegistry,
    partial: PartialInstallSpec,
) -> ResourceGraph:
    """The ``GraphGen(R, I)`` worklist algorithm.

    An unmatched peer dependency is materialised on the dependent's
    machine (the paper's conservative co-location rule).
    """
    graph = ResourceGraph()
    worklist: deque[str] = deque()

    # Step 1: a node per partial instance.
    for instance in partial:
        resource_type = registry.effective(instance.key)
        if resource_type.abstract:
            raise SpecError(
                f"partial spec instantiates abstract type {instance.key} "
                f"(instance {instance.id!r})"
            )
        graph.add_node(
            GraphNode(
                instance_id=instance.id,
                key=instance.key,
                from_partial=True,
                inside_id=instance.inside_id,
                explicit_config=dict(instance.config),
            )
        )
        worklist.append(instance.id)

    # Validate partial inside references before processing.
    for instance in partial:
        if instance.inside_id is not None and instance.inside_id not in graph:
            raise SpecError(
                f"instance {instance.id!r} is inside unknown instance "
                f"{instance.inside_id!r}"
            )

    # Step 2: process until the worklist is empty.
    while worklist:
        instance_id = worklist.popleft()
        _process_node(registry, graph, instance_id, worklist)

    return graph


def _process_node(
    registry: ResourceTypeRegistry,
    graph: ResourceGraph,
    instance_id: str,
    worklist: deque[str],
) -> None:
    graph.processing = instance_id
    node = graph.node(instance_id)
    resource_type = registry.effective(node.key)

    # Inside dependency: must already be resolved (the system does not
    # generate new machines automatically -- S4).
    if resource_type.inside is not None:
        if node.inside_id is None:
            raise MissingInsideError(
                f"instance {instance_id!r} of {node.key} does not resolve "
                "its inside dependency"
            )
        container = graph.node(node.inside_id)
        lowered = lower_alternatives(registry, resource_type.inside)
        match = _matching_alternative(registry, container.key, lowered)
        if match is None:
            raise ConfigurationError(
                f"instance {instance_id!r}: container {container.key} does "
                f"not satisfy inside dependency "
                f"{[str(a.key) for a in lowered]}"
            )
        graph.add_edge(
            HyperEdge(
                source_id=instance_id,
                kind=DependencyKind.INSIDE,
                targets=(container.instance_id,),
                alternatives=(match,),
            )
        )
    elif node.inside_id is not None:
        raise SpecError(
            f"instance {instance_id!r} of machine type {node.key} must not "
            "have a container"
        )

    machine_id = graph.machine_of(instance_id)

    for dependency in resource_type.environment:
        _process_hyperedge(
            registry, graph, node, dependency, machine_id, worklist,
            same_machine=True,
        )
    for dependency in resource_type.peers:
        _process_hyperedge(
            registry, graph, node, dependency, machine_id, worklist,
            same_machine=False,
        )


def _matching_alternative(
    registry: ResourceTypeRegistry,
    key: ResourceKey,
    alternatives: Iterable[DependencyAlternative],
) -> Optional[DependencyAlternative]:
    """The first alternative whose key ``key`` subtypes, if any."""
    for alt in alternatives:
        if registry.is_subtype(key, alt.key):
            return alt
    return None


def _process_hyperedge(
    registry: ResourceTypeRegistry,
    graph: ResourceGraph,
    node: GraphNode,
    dependency: Dependency,
    machine_id: str,
    worklist: deque[str],
    *,
    same_machine: bool,
) -> None:
    lowered = lower_alternatives(registry, dependency)
    targets: list[str] = []
    alternatives: list[DependencyAlternative] = []
    for alt in lowered:
        target_id = _find_existing(
            registry, graph, alt.key,
            machine_id if same_machine else None,
            exclude_id=node.instance_id,
            prefer_machine_id=None if same_machine else machine_id,
        )
        if target_id is None:
            target_id = _materialise(
                registry, graph, alt.key, machine_id, worklist
            )
        targets.append(target_id)
        alternatives.append(alt)
    graph.add_edge(
        HyperEdge(
            source_id=node.instance_id,
            kind=dependency.kind,
            targets=tuple(targets),
            alternatives=tuple(alternatives),
        )
    )


def _find_existing(
    registry: ResourceTypeRegistry,
    graph: ResourceGraph,
    key: ResourceKey,
    machine_id: Optional[str],
    *,
    exclude_id: str,
    prefer_machine_id: Optional[str] = None,
) -> Optional[str]:
    """An existing node whose key subtypes ``key`` (and lives on
    ``machine_id`` when given), preferring partial-spec nodes.  Among
    equally-pinned candidates, ``prefer_machine_id`` (the dependent's
    machine, for peer dependencies) breaks ties towards co-located
    instances -- the paper's conservative placement rule, and what keeps
    per-replica pinned services attached to their own machine group in
    fleet topologies.  The depending node itself is excluded -- a
    resource cannot satisfy its own dependency.

    Every rank ends in the instance id, which is unique, so the ranks
    are a strict total order and the pick does not depend on the order
    in which the candidates arrive (and Lemma 1's ids are the same
    whatever order the subtype set iterates in).

    Two answers are marked ``graph.escaped``, because a run over one
    machine group could not give the global run's answer: a pick among
    several generated candidates (their ids decide, and generated ids
    are numbered per graph) and a peer dependency with no pinned
    candidate on the dependent's machine (the search then spans every
    machine)."""
    best: Optional[GraphNode] = None
    if machine_id is not None:
        # Same-machine requirement: only this machine's bucket can match,
        # and the preference term is constant across it.
        short_rank: Optional[tuple[bool, str]] = None
        candidates = 0
        for node in graph.nodes_matching_on(registry, key, machine_id):
            if node.instance_id == exclude_id:
                continue
            candidates += 1
            rank = (not node.from_partial, node.instance_id)
            if short_rank is None or rank < short_rank:
                best, short_rank = node, rank
        if best is None:
            return None
        if candidates > 1 and not best.from_partial:
            # A pinned candidate would have won, so all were generated.
            graph.escaped = True
        return best.instance_id
    if prefer_machine_id is not None:
        # A pinned candidate on the dependent's machine has the best
        # possible rank class; the lowest id among those wins outright,
        # without scanning the other machines' same-key nodes.
        for node in graph.nodes_matching_on(
            registry, key, prefer_machine_id
        ):
            if node.instance_id == exclude_id or not node.from_partial:
                continue
            if best is None or node.instance_id < best.instance_id:
                best = node
        if best is not None:
            return best.instance_id
        graph.escaped = True
    best_rank: Optional[tuple[bool, bool, str]] = None
    for node in graph.nodes_matching(registry, key):
        if node.instance_id == exclude_id:
            continue
        rank = (
            not node.from_partial,
            prefer_machine_id is not None
            and graph.machine_of(node.instance_id) != prefer_machine_id,
            node.instance_id,
        )
        if best_rank is None or rank < best_rank:
            best, best_rank = node, rank
    return best.instance_id if best is not None else None


def _materialise(
    registry: ResourceTypeRegistry,
    graph: ResourceGraph,
    key: ResourceKey,
    machine_id: str,
    worklist: deque[str],
) -> str:
    """Create a new instance of ``key`` on ``machine_id`` (S4: new
    instances conservatively reside on the dependent's machine)."""
    resource_type = registry.effective(key)
    inside_id: Optional[str] = None
    if resource_type.inside is not None:
        lowered = lower_alternatives(registry, resource_type.inside)
        machine_node = graph.node(machine_id)
        if _matching_alternative(registry, machine_node.key, lowered) is not None:
            inside_id = machine_id
        else:
            # The container is not the machine itself: look for a
            # compatible container already on the machine.
            for candidate in graph.nodes_on_machine(machine_id):
                if _matching_alternative(registry, candidate.key, lowered):
                    inside_id = candidate.instance_id
                    break
            if inside_id is None:
                raise ConfigurationError(
                    f"cannot place new instance of {key}: no compatible "
                    f"container on machine {machine_id!r} (needs one of "
                    f"{[str(a.key) for a in lowered]})"
                )
    instance_id = graph.fresh_id(key)
    graph.add_node(
        GraphNode(instance_id=instance_id, key=key, inside_id=inside_id)
    )
    graph.materialised_by[instance_id] = graph.processing
    worklist.append(instance_id)
    return instance_id
