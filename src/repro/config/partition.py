"""Component-partitioned configuration (fleet-scale solving).

The GraphGen hypergraph of a fleet-sized partial specification is a
union of independent *connected components*: a hyperedge couples its
source with **every** alternative target (unchosen alternatives still
share the exactly-one constraint), inside links tie all co-located
instances to their machine, and peer edges merge the machine groups
that share a service.  The CNF encoding is edge-local (§4), so the
monolithic formula is the conjunction of the per-component formulas,
and the pipeline encodes, solves, decodes and propagates each component
independently and merges the results:

* the merged model/deployed-set/choices equal the monolithic ones
  (canonical decoding -- see :func:`repro.config.engine.canonical_model`
  -- makes the per-component models solver-order independent);
* :func:`merge_component_specs` reproduces the monolithic install order
  *exactly*: the global topological sort breaks ties by smallest
  instance id among all ready instances, and since readiness is
  component-local, that order is precisely the k-way merge of the
  per-component orders by smallest next head (see
  docs/INTERNALS.md, "Partitioned configuration").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.instances import InstallSpec, ResourceInstance
from repro.config.hypergraph import HyperEdge, ResourceGraph


@dataclass
class ComponentStats:
    """Per-component sizes and phase timings, for benchmarks/tracing."""

    index: int
    nodes: int
    edges: int
    pinned: int
    encode_ms: float = 0.0
    solve_ms: float = 0.0
    propagate_ms: float = 0.0
    decisions: int = 0
    conflicts: int = 0


@dataclass
class PartitionInfo:
    """What the partitioned pipeline did, attached to results."""

    components: list[ComponentStats] = field(default_factory=list)
    partition_ms: float = 0.0

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def largest(self) -> int:
        return max((c.nodes for c in self.components), default=0)


@dataclass
class GraphComponent:
    """One connected component of the hypergraph, as its own graph.

    ``graph`` shares the parent graph's :class:`GraphNode` objects and
    :class:`HyperEdge` objects, with both node and edge sequences in the
    parent's insertion order -- so per-source edge *indexes* (the keys of
    the decoded choices) are identical to the monolithic ones.
    """

    index: int
    graph: ResourceGraph
    node_ids: tuple[str, ...]
    pinned: tuple[str, ...]

    @property
    def nodes(self) -> int:
        return len(self.node_ids)


@dataclass
class Partition:
    """A deterministic split of a :class:`ResourceGraph` into components."""

    graph: ResourceGraph
    components: list[GraphComponent]
    component_of: dict[str, int]

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


def partition_graph(graph: ResourceGraph) -> Partition:
    """Split ``graph`` into connected components.

    Connectivity is taken over hyperedges (source to *every* target --
    environment, peer, and inside alike).  Components are numbered by
    first appearance in node insertion order; nodes and edges inside a
    component keep their global relative order.
    """
    parent: dict[str, str] = {
        node.instance_id: node.instance_id for node in graph.nodes()
    }

    def find(item: str) -> str:
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:  # path compression
            parent[item], item = root, parent[item]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for edge in graph.edges():
        for target in edge.targets:
            union(edge.source_id, target)

    component_of: dict[str, int] = {}
    members: list[list[str]] = []
    root_index: dict[str, int] = {}
    for node in graph.nodes():
        root = find(node.instance_id)
        index = root_index.get(root)
        if index is None:
            index = len(members)
            root_index[root] = index
            members.append([])
        component_of[node.instance_id] = index
        members[index].append(node.instance_id)

    edges_by_component: list[list[HyperEdge]] = [[] for _ in members]
    for edge in graph.edges():
        edges_by_component[component_of[edge.source_id]].append(edge)

    components: list[GraphComponent] = []
    for index, node_ids in enumerate(members):
        subgraph = ResourceGraph()
        pinned: list[str] = []
        for node_id in node_ids:
            node = graph.node(node_id)
            subgraph.add_node(node)
            if node.from_partial:
                pinned.append(node_id)
        for edge in edges_by_component[index]:
            subgraph.add_edge(edge)
        components.append(
            GraphComponent(
                index=index,
                graph=subgraph,
                node_ids=tuple(node_ids),
                pinned=tuple(pinned),
            )
        )
    return Partition(graph, components, component_of)


def whole_graph_component(graph: ResourceGraph) -> GraphComponent:
    """``graph`` itself as the only component: what the pipeline runs on
    when it is not partitioning, with no connectivity pass at all."""
    nodes = graph.nodes()
    return GraphComponent(
        index=0,
        graph=graph,
        node_ids=tuple(node.instance_id for node in nodes),
        pinned=tuple(
            node.instance_id for node in nodes if node.from_partial
        ),
    )


def merge_component_specs(specs: Sequence[InstallSpec]) -> InstallSpec:
    """Merge per-component full specifications into the monolithic
    specification, in the monolithic order.

    :meth:`InstallSpec.topological_order` is Kahn's algorithm emitting
    the smallest ready instance id at every step.  Dependencies never
    cross components, so the global ready set is the disjoint union of
    the per-component ready sets and the global choice is always the
    smallest *next head* among the components -- a k-way merge of the
    components' own orders.  The merged spec keeps that order and
    unions the components' indexes (:meth:`InstallSpec.assembled`): a
    component a session answered before brings the order and indexes it
    derived then, so no per-instance walk runs for it again.  A
    duplicate id is a :class:`~repro.core.errors.SpecError`.
    """
    orders = [spec.topological_order() for spec in specs]
    heap = [
        (order[0].id, index) for index, order in enumerate(orders) if order
    ]
    heapq.heapify(heap)
    positions = [0] * len(orders)
    merged: list[ResourceInstance] = []
    while heap:
        _instance_id, index = heap[0]
        order = orders[index]
        position = positions[index]
        merged.append(order[position])
        position += 1
        positions[index] = position
        if position < len(order):
            heapq.heapreplace(heap, (order[position].id, index))
        else:
            heapq.heappop(heap)
    return InstallSpec.assembled(specs, merged)
