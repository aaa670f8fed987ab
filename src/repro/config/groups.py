"""GraphGen per machine group, assembled into the global graph.

A **machine group** is one machine of the partial specification (an
instance with no container) plus every partial instance whose inside
chain ends on it, in specification order.  :class:`GroupGraph` runs the
unchanged :func:`~repro.config.hypergraph.generate_graph` on one group's
instances alone, and :func:`assemble` puts the groups back together as
the graph, and the connected components, that one global run followed
by :func:`~repro.config.partition.partition_graph` would have built.
:class:`~repro.config.session.ConfigurationSession` memoises the groups
by content, so a day-2 step that touches k machines runs GraphGen on k
groups.

The assembly is exact when no group **escaped** (see
:attr:`~repro.config.hypergraph.ResourceGraph.escaped`), because of
three facts:

* without an escape, every query a node's processing makes reads only
  the dependent's machine: its bucket for an environment dependency, its
  pinned nodes for a peer dependency, its nodes for a container;
* ``_materialise`` puts a new node on the dependent's machine, so only
  group *m*'s nodes create nodes in group *m*;
* the global FIFO worklist, restricted to one group, is that group's
  local FIFO: the partial instances come first in specification order,
  and a node's materialisations follow it in both.

So each group's nodes, edges and answers are the global run's, except
for the generated ids: ``fresh_id`` numbers per slug across the whole
graph.  :func:`assemble` replays it over the global materialisation
order -- the partial order, then first-in first-out over each node's
materialisations -- against every id already taken.  A spec with a
dangling or cyclic inside chain is not split at all
(:func:`split_by_machine` returns None), and a group that escaped or
raised sends the whole spec to the global run, which raises the error a
cold run raises.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional

from repro.core.errors import EngageError
from repro.core.instances import PartialInstallSpec, PartialInstance
from repro.core.registry import ResourceTypeRegistry
from repro.config.hypergraph import (
    GraphNode,
    HyperEdge,
    ResourceGraph,
    fresh_id,
    generate_graph,
)
from repro.config.partition import GraphComponent


class MachineSplit(NamedTuple):
    """A partial specification cut into machine groups."""

    instances: list[PartialInstance]
    #: The group index of each instance; groups are numbered by first
    #: appearance, which is the component numbering of a cold run.
    owner: list[int]
    #: Each group's instance positions, in specification order.
    members: list[list[int]]


def split_by_machine(partial: PartialInstallSpec) -> Optional[MachineSplit]:
    """The machine groups of ``partial``, or None when some inside chain
    leaves the specification or runs in a cycle."""
    instances = list(partial)
    position = {instance.id: i for i, instance in enumerate(instances)}
    machine: list[Optional[int]] = [None] * len(instances)
    for start in range(len(instances)):
        chain: list[int] = []
        current = start
        while machine[current] is None:
            inside = instances[current].inside_id
            if inside is None:
                machine[current] = current
                break
            chain.append(current)
            current = position.get(inside)
            if current is None or current in chain:
                return None
        for walked in chain:
            machine[walked] = machine[current]
    group_of: dict[int, int] = {}
    owner: list[int] = []
    members: list[list[int]] = []
    for i, root in enumerate(machine):
        index = group_of.get(root)
        if index is None:
            index = group_of[root] = len(members)
            members.append([])
        members[index].append(i)
        owner.append(index)
    return MachineSplit(instances, owner, members)


class GroupGraph:
    """GraphGen over one machine group's instances, and the component it
    was last assembled into.

    ``generated`` lists the group's generated (local) ids in creation
    order and ``children`` maps a node to the ones its processing
    created.  ``ids``, ``component`` and ``entry`` belong to the last
    assembly: the global ids of ``generated``, the renamed component,
    and whatever the caller keeps for it (the session's
    :class:`~repro.config.engine.ComponentEntry`).
    """

    __slots__ = (
        "graph", "escaped", "generated", "children", "ids", "component",
        "entry", "__weakref__",
    )

    def __init__(
        self,
        registry: ResourceTypeRegistry,
        instances: list[PartialInstance],
    ) -> None:
        self.ids: Optional[tuple[str, ...]] = None
        self.component: Optional[GraphComponent] = None
        self.entry = None
        try:
            graph = generate_graph(registry, PartialInstallSpec(instances))
        except EngageError:
            # The global run raises the error a cold run raises.
            self.graph, self.escaped = None, True
            self.generated, self.children = (), {}
            return
        self.graph = graph
        self.escaped = graph.escaped
        self.generated = tuple(graph.materialised_by)
        children: dict[str, list[str]] = {}
        for child, parent in graph.materialised_by.items():
            children.setdefault(parent, []).append(child)
        self.children = children


def assemble(
    machines: MachineSplit, groups: list[GroupGraph]
) -> tuple[ResourceGraph, list[GraphComponent], list[bool]]:
    """The global graph, its components and, per group, whether its
    generated ids changed since the group was last assembled (its
    component is then new; otherwise it is the one handed back last
    time, re-indexed if it moved).

    Nodes come in partial order, then generated nodes in global
    materialisation order; edges by source, in node order.  Each group
    is one component, its nodes and edges in the group's local order.
    """
    ids = [instance.id for instance in machines.instances]
    # The global worklist: partial nodes, then each node's
    # materialisations in turn (the list grows as it is walked).
    order = list(zip(machines.owner, ids))
    for index, node_id in order:
        kids = groups[index].children.get(node_id)
        if kids:
            order.extend((index, kid) for kid in kids)
    generated = order[len(ids):]
    taken = set(ids)
    counts: dict[str, int] = {}
    names: list[list[str]] = [[] for _ in groups]
    global_ids: list[str] = []
    for index, local_id in generated:
        key = groups[index].graph.node(local_id).key
        new_id = fresh_id(counts, taken, key)
        taken.add(new_id)
        names[index].append(new_id)
        global_ids.append(new_id)

    components: list[GraphComponent] = []
    changed: list[bool] = []
    for index, group in enumerate(groups):
        group_ids = tuple(names[index])
        fresh = group.component is None or group.ids != group_ids
        if fresh:
            group.ids = group_ids
            group.component = _renamed(index, group, group_ids)
            group.entry = None
        elif group.component.index != index:
            group.component = dataclasses.replace(
                group.component, index=index
            )
        components.append(group.component)
        changed.append(fresh)

    graph = ResourceGraph()
    sources = [
        (components[index].graph, node_id)
        for index, node_id in zip(machines.owner, ids)
    ]
    sources += [
        (components[index].graph, new_id)
        for (index, _local), new_id in zip(generated, global_ids)
    ]
    for component_graph, node_id in sources:
        graph.add_node(component_graph.node(node_id))
    for component_graph, node_id in sources:
        for edge in component_graph.edges_from(node_id):
            graph.add_edge(edge)
    return graph, components, changed


def _renamed(
    index: int, group: GroupGraph, group_ids: tuple[str, ...]
) -> GraphComponent:
    """``group``'s local graph as component ``index``, its generated
    nodes renamed to ``group_ids``; the local graph itself when no id
    changes."""
    local = group.graph
    names = {
        old: new for old, new in zip(group.generated, group_ids) if old != new
    }
    if not names:
        graph = local
    else:
        graph = ResourceGraph()
        for node in local.nodes():
            if not node.from_partial:
                node = GraphNode(
                    instance_id=names.get(node.instance_id, node.instance_id),
                    key=node.key,
                    inside_id=names.get(node.inside_id, node.inside_id),
                )
            graph.add_node(node)
        for edge in local.edges():
            source = names.get(edge.source_id, edge.source_id)
            targets = tuple(names.get(t, t) for t in edge.targets)
            if source != edge.source_id or targets != edge.targets:
                edge = HyperEdge(source, edge.kind, targets, edge.alternatives)
            graph.add_edge(edge)
    nodes = graph.nodes()
    return GraphComponent(
        index=index,
        graph=graph,
        node_ids=tuple(node.instance_id for node in nodes),
        pinned=tuple(node.instance_id for node in nodes if node.from_partial),
    )
