"""GraphGen per group, assembled into the global graph.

A configure call is a list of groups.  A **machine group** is one
machine of the partial specification (an instance with no container)
plus every partial instance whose inside chain ends on it, in
specification order; the **degenerate group** is the whole spec.  A
:class:`GroupShape` is the unchanged
:func:`~repro.config.hypergraph.generate_graph` run over one group's
instances alone, which every group of the same :func:`group_shape_key`
reuses under its own names.  :func:`assembled` puts the groups back
together as the graph, and the connected components, that one global
run followed by :func:`~repro.config.partition.partition_graph` would
have built.

The assembly is exact when no group **escaped** (see
:attr:`~repro.config.hypergraph.ResourceGraph.escaped`, and
docs/INTERNALS.md for the argument): without an escape every query a
node's processing makes reads only the dependent's machine, a new node
lands on the dependent's machine, and the global FIFO worklist
restricted to one group is that group's own.  So each group's nodes,
edges and answers are the global run's but for the ids: ``fresh_id``
numbers per slug across the whole graph, and :func:`assemble` replays
it over the global materialisation order against every id already
taken.  A spec with a dangling or cyclic inside chain is not split at
all (:func:`split_by_machine` returns None), and a group that escaped
or raised sends the whole spec to the degenerate group, whose run
raises the error a cold run raises.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.core.errors import EngageError
from repro.core.instances import PartialInstallSpec, PartialInstance
from repro.core.keys import ResourceKey
from repro.core.registry import ResourceTypeRegistry
from repro.config.engine import ComponentEntry
from repro.config.hypergraph import (
    GraphNode,
    HyperEdge,
    ResourceGraph,
    fresh_id,
    generate_graph,
)
from repro.config.partition import GraphComponent, whole_graph_component


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


def group_shape_key(instances: list[PartialInstance]) -> tuple:
    """What GraphGen reads from one group, as a hashable value: each
    instance's key (by its exact version parts: ``6.00`` is ``6.0``,
    ``6.0.0`` is not) and its container's position in the group (one
    outside it by its id), then the order of the group's ids.  Without
    an escape GraphGen reads ids only to rank pinned candidates, so
    groups with equal keys generate the same graph up to names.
    Explicit configuration is not part of it: GraphGen only copies it.
    """
    position = {instance.id: i for i, instance in enumerate(instances)}
    return (
        tuple(
            (
                instance.key.name, instance.key.version.parts,
                position.get(instance.inside_id, instance.inside_id),
            )
            for instance in instances
        ),
        tuple(sorted(range(len(instances)), key=lambda i: instances[i].id)),
    )


class GroupShape:
    """GraphGen over one group, shared by every group of its key.

    The graph is the first such group's.  A node is known by its
    position: the group's instances first, in specification order, then
    the generated nodes in creation order.  ``keys`` are the nodes'
    keys, ``children`` maps a node to the generated ones its processing
    created, ``entries`` are the
    :class:`~repro.config.engine.ComponentEntry` of the graph's
    components and ``positions`` their nodes'.  A machine group is one
    component (:func:`group_shape`), and one whose GraphGen raised has
    no graph and counts as escaped.
    """

    __slots__ = ("graph", "escaped", "keys", "children", "entries",
                 "positions", "__weakref__")

    def __init__(
        self,
        graph: Optional[ResourceGraph],
        components: Sequence[GraphComponent] = (),
    ) -> None:
        self.graph = graph
        self.escaped = graph is None or graph.escaped
        self.entries = tuple(ComponentEntry(part) for part in components)
        self.keys: tuple[ResourceKey, ...] = ()
        self.children: dict[int, list[int]] = {}
        self.positions: tuple[tuple[int, ...], ...] = ()
        if graph is None:
            return
        nodes = graph.nodes()
        position = {node.instance_id: i for i, node in enumerate(nodes)}
        self.keys = tuple(node.key for node in nodes)
        for child, parent in graph.materialised_by.items():
            self.children.setdefault(position[parent], []).append(
                position[child]
            )
        self.positions = tuple(
            tuple(position[node_id] for node_id in part.node_ids)
            for part in components
        )


def group_shape(
    registry: ResourceTypeRegistry, instances: list[PartialInstance]
) -> GroupShape:
    """GraphGen over one machine group alone.  An error declines the
    group: the degenerate group raises the error a cold run raises."""
    try:
        graph = generate_graph(registry, PartialInstallSpec(instances))
    except EngageError:
        return GroupShape(None)
    return GroupShape(graph, [whole_graph_component(graph)])


def assemble(
    machines: MachineSplit, shapes: list[GroupShape]
) -> tuple[list[tuple[str, ...]], list[tuple[int, int]]]:
    """The generated nodes' global ids, per group in the group's local
    order, and the global materialisation order -- the partial nodes,
    then each node's materialisations in turn -- as (group, position)
    pairs: ``fresh_id`` replayed as one global run numbers the ids."""
    local = [0] * len(machines.instances)
    for members in machines.members:
        for position, i in enumerate(members):
            local[i] = position
    order = list(zip(machines.owner, local))
    for index, position in order:  # the list grows as it is walked
        kids = shapes[index].children.get(position)
        if kids:
            order.extend((index, kid) for kid in kids)
    generated = order[len(local):]
    taken = {instance.id for instance in machines.instances}
    counts: dict[str, int] = {}
    names: list[list[str]] = [[] for _ in shapes]
    for index, position in generated:
        new_id = fresh_id(counts, taken, shapes[index].keys[position])
        taken.add(new_id)
        names[index].append(new_id)
    return [tuple(group) for group in names], generated


def group_nodes(
    machines: MachineSplit, shapes: list[GroupShape], index: int
) -> tuple[list[ResourceKey], list[dict]]:
    """Group ``index``'s node keys and explicit configuration, by
    position: its instances' own, then the generated nodes' (which
    have none)."""
    instances = [machines.instances[i] for i in machines.members[index]]
    keys = [instance.key for instance in instances]
    keys += shapes[index].keys[len(instances):]
    configs = [instance.config for instance in instances]
    configs += [{}] * (len(keys) - len(instances))
    return keys, configs


def assembled(
    machines: MachineSplit, shapes: list[GroupShape]
) -> tuple[ResourceGraph, list[GraphComponent]]:
    """The global graph and its components, as one global run followed
    by :func:`~repro.config.partition.partition_graph` builds them.

    Nodes come in partial order, then generated nodes in global
    materialisation order; edges by source, in node order.  Each group
    is one component, its nodes and edges in the group's local order.
    """
    names, generated = assemble(machines, shapes)
    components = [
        _renamed(machines, shapes, names, index)
        for index in range(len(shapes))
    ]
    graph = ResourceGraph()
    sources = [
        (components[index].graph, instance.id)
        for index, instance in zip(machines.owner, machines.instances)
    ]
    sources += [
        (components[index].graph, components[index].node_ids[position])
        for index, position in generated
    ]
    for component_graph, node_id in sources:
        graph.add_node(component_graph.node(node_id))
    for component_graph, node_id in sources:
        for edge in component_graph.edges_from(node_id):
            graph.add_edge(edge)
    return graph, components


def _renamed(
    machines: MachineSplit,
    shapes: list[GroupShape],
    names: list[tuple[str, ...]],
    index: int,
) -> GraphComponent:
    """Group ``index``'s shape graph as component ``index``, under the
    group's own ids, keys and explicit configuration."""
    local = shapes[index].graph
    members = machines.members[index]
    ids = tuple(machines.instances[i].id for i in members) + names[index]
    keys, configs = group_nodes(machines, shapes, index)
    nodes = local.nodes()
    rename = {node.instance_id: new for node, new in zip(nodes, ids)}
    graph = ResourceGraph()
    for node, node_id, key, config in zip(nodes, ids, keys, configs):
        graph.add_node(GraphNode(
            node_id, key, node.from_partial, rename.get(node.inside_id),
            dict(config),
        ))
    for edge in local.edges():
        graph.add_edge(HyperEdge(
            rename[edge.source_id], edge.kind,
            tuple(rename[target] for target in edge.targets),
            edge.alternatives,
        ))
    return GraphComponent(
        index=index, graph=graph, node_ids=ids, pinned=ids[:len(members)]
    )
