"""Component-partitioned configuration (fleet-scale solving).

The GraphGen hypergraph of a fleet-sized partial specification is
naturally a union of independent *connected components* -- one per
application stack or machine group.  A hyperedge couples its source with
**every** alternative target (unchosen alternatives still share the
exactly-one constraint, so they must be solved together); inside-link
edges tie all co-located instances to their machine node, so a component
never splits a machine; peer edges merge the machine groups that share a
service.

Because the CNF encoding is purely edge-local (§4), the monolithic
formula is exactly the conjunction of the per-component formulas, and a
partial specification is satisfiable iff every component is.  The
partitioned pipeline therefore encodes, solves, decodes, propagates and
typechecks each component independently and merges the results:

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
from typing import Iterable, Sequence

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


class Partition:
    """A deterministic split of a :class:`ResourceGraph` into components."""

    def __init__(
        self,
        graph: ResourceGraph,
        components: list[GraphComponent],
        component_of: dict[str, int],
    ) -> None:
        self.graph = graph
        self.components = components
        self.component_of = component_of

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


def merge_component_specs(
    specs: Sequence[Iterable[ResourceInstance]],
) -> InstallSpec:
    """Merge per-component full specifications (or their instance
    sequences, each in install order) into the monolithic order.

    :meth:`InstallSpec.topological_order` is Kahn's algorithm emitting
    the smallest ready instance id at every step.  Dependencies never
    cross components, so the global ready set is the disjoint union of
    the per-component ready sets and the global choice is always the
    smallest *next head* among the components -- a k-way merge.
    """
    if len(specs) == 1:
        # The whole graph as one component is already in order; a
        # specification is handed on as it is, so the order its static
        # check computed is not computed again by the deployment.
        only = specs[0]
        return only if isinstance(only, InstallSpec) else InstallSpec(only)
    iterators = [iter(tuple(spec)) for spec in specs]
    heap: list[tuple[str, int]] = []
    heads = []
    for index, iterator in enumerate(iterators):
        head = next(iterator, None)
        heads.append(head)
        if head is not None:
            heap.append((head.id, index))
    heapq.heapify(heap)
    merged = []
    while heap:
        _instance_id, index = heapq.heappop(heap)
        merged.append(heads[index])
        head = next(iterators[index], None)
        heads[index] = head
        if head is not None:
            heapq.heappush(heap, (head.id, index))
    return InstallSpec(merged)
