"""Resource instances and installation specifications (S3.3).

A *resource instance* is created from a resource type "by assigning
concrete values to its configuration ports and by replacing dependency
constraints with directional links to other resource instances"; each
instance carries a globally unique identifier.

A *full installation specification* lists every instance required to
deploy an application, with every dependency linked and every port
valued.  A *partial installation specification* (S4) lists only the main
components -- resource instances "for which only a subset of dependencies
are instantiated" -- plus optional explicit config-port values; the
configuration engine expands it to a full specification.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Optional

from repro.core.errors import CycleError, SpecError
from repro.core.keys import ResourceKey


@dataclass(frozen=True)
class InstanceRef:
    """A directional link to another resource instance."""

    id: str
    key: ResourceKey

    def __str__(self) -> str:
        return f"{self.id} ({self.key})"


@dataclass(frozen=True)
class DependencyLink:
    """A resolved dependency: which instance satisfies it, and the port
    mapping in force (output port of the target -> input port of the
    owner)."""

    kind: str  # "inside" | "environment" | "peer"
    target: InstanceRef
    port_mapping: tuple[tuple[str, str], ...] = ()
    reverse_mapping: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ResourceInstance:
    """A fully resolved resource instance.

    ``config``/``inputs``/``outputs`` hold the concrete port values.
    ``inside`` is the container link (None only for machines).
    """

    id: str
    key: ResourceKey
    config: dict[str, Any] = field(default_factory=dict)
    inputs: dict[str, Any] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)
    inside: Optional[DependencyLink] = None
    environment: tuple[DependencyLink, ...] = ()
    peers: tuple[DependencyLink, ...] = ()

    def ref(self) -> InstanceRef:
        return InstanceRef(self.id, self.key)

    def links(self) -> tuple[DependencyLink, ...]:
        """All outgoing dependency links (inside, environment, peer)."""
        links: tuple[DependencyLink, ...] = ()
        if self.inside is not None:
            links += (self.inside,)
        return links + self.environment + self.peers

    def upstream_ids(self) -> list[str]:
        """Ids of instances this one directly depends on."""
        return [link.target.id for link in self.links()]

    def is_machine(self) -> bool:
        return self.inside is None

    def machine_id(self, spec: "InstallSpec") -> str:
        """The physical machine ``spec`` places this instance on (S3.1):
        :meth:`InstallSpec.machine_of` for its id."""
        return spec.machine_of(self.id)


@dataclass(frozen=True)
class PartialInstance:
    """One entry of a partial installation specification (Figure 2).

    ``inside_id`` names the container instance (the paper assumes partial
    specs resolve inside dependencies -- machines are not auto-created
    unless provisioning fills them in).  ``config`` holds explicit values
    for individual configuration ports; unassigned ones take the defaults
    defined in the resource type.
    """

    id: str
    key: ResourceKey
    inside_id: Optional[str] = None
    config: dict[str, Any] = field(default_factory=dict)


class PartialInstallSpec:
    """An ordered collection of :class:`PartialInstance` entries."""

    def __init__(self, instances: Iterable[PartialInstance] = ()) -> None:
        self._instances: dict[str, PartialInstance] = {}
        for instance in instances:
            self.add(instance)

    def add(self, instance: PartialInstance) -> None:
        if instance.id in self._instances:
            raise SpecError(f"duplicate instance id in partial spec: {instance.id}")
        self._instances[instance.id] = instance

    def __iter__(self) -> Iterator[PartialInstance]:
        return iter(self._instances.values())

    def __len__(self) -> int:
        return len(self._instances)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._instances

    def __getitem__(self, instance_id: str) -> PartialInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise SpecError(f"no instance {instance_id!r} in partial spec") from None

    def ids(self) -> list[str]:
        return list(self._instances)


def kahn_order(upstream: dict[str, list[str]]) -> list[str]:
    """Ids ordered so that each follows everything in its ``upstream``
    list, taking the smallest ready id first (Kahn's algorithm).

    The install order of S5.2, and the order propagation walks.  A link
    listed twice counts twice.  Raises :class:`SpecError` at the first
    link (in ``upstream``'s order) to an id it does not list, and
    :class:`CycleError` naming the ids on or between cycles, not the
    ones merely downstream of one.
    """
    in_degree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {iid: [] for iid in upstream}
    for iid, ups in upstream.items():
        for up in ups:
            if up not in dependents:
                raise SpecError(
                    f"instance {iid} links to missing instance {up}"
                )
            dependents[up].append(iid)
        in_degree[iid] = len(ups)

    ready = [iid for iid, degree in in_degree.items() if degree == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        current = heapq.heappop(ready)
        order.append(current)
        for dependent in dependents[current]:
            in_degree[dependent] -= 1
            if in_degree[dependent] == 0:
                heapq.heappush(ready, dependent)
    if len(order) != len(upstream):
        # Peel unordered ids that no unordered id depends on: what
        # cannot be peeled lies on a cycle or between two.
        unordered = set(upstream).difference(order)
        waiting = {
            iid: sum(d in unordered for d in dependents[iid])
            for iid in unordered
        }
        peel = [iid for iid, count in waiting.items() if not count]
        for iid in peel:
            del waiting[iid]
            for up in upstream[iid]:
                if up in waiting:
                    waiting[up] -= 1
                    if not waiting[up]:
                        peel.append(up)
        raise CycleError(
            f"dependency cycle among instances: {', '.join(sorted(waiting))}"
        )
    return order


class InstallSpec:
    """A full installation specification: every instance, fully linked.

    Provides identity lookup, machine grouping, and the dependency order
    used by the deployment engine.
    """

    def __init__(self, instances: Iterable[ResourceInstance] = ()) -> None:
        self._instances: dict[str, ResourceInstance] = {}
        # Lazy derived views: the dependency index both ways and the
        # topological order.  Guard checking asks for both neighbour
        # lists once per transition, so without the indexes a
        # fleet-sized drive is O(N^2) in full-spec scans.
        self._upstream: Optional[dict[str, tuple[str, ...]]] = None
        self._downstream: Optional[dict[str, list[str]]] = None
        self._topo_order: Optional[list[ResourceInstance]] = None
        # Which machine each instance sits on, memoised per walked chain,
        # and the machine -> instances index built from it.
        self._machine: dict[str, str] = {}
        self._on_machine: Optional[dict[str, list[ResourceInstance]]] = None
        for instance in instances:
            self.add(instance)

    def _invalidate(self) -> None:
        self._upstream = None
        self._downstream = None
        self._topo_order = None
        self._machine = {}
        self._on_machine = None

    def add(self, instance: ResourceInstance) -> None:
        if instance.id in self._instances:
            raise SpecError(f"duplicate instance id: {instance.id}")
        self._instances[instance.id] = instance
        self._invalidate()

    def replace_instance(self, instance: ResourceInstance) -> None:
        if instance.id not in self._instances:
            raise SpecError(f"no instance {instance.id!r} to replace")
        self._instances[instance.id] = instance
        self._invalidate()

    def __iter__(self) -> Iterator[ResourceInstance]:
        return iter(self._instances.values())

    def __len__(self) -> int:
        return len(self._instances)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._instances

    def __getitem__(self, instance_id: str) -> ResourceInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise SpecError(f"no instance {instance_id!r} in install spec") from None

    def ids(self) -> list[str]:
        return list(self._instances)

    def machines(self) -> list[ResourceInstance]:
        """All machine instances (no inside link)."""
        return [inst for inst in self if inst.is_machine()]

    def machine_of(self, instance_id: str) -> str:
        """The machine ``instance_id`` sits on: follow inside links to
        an instance with none (S3.1).  Every instance walked past is
        memoised with the answer until the spec changes.  An inside
        cycle is a :class:`CycleError` naming the first instance seen
        twice; a link to a missing instance is a :class:`SpecError`."""
        memo = self._machine
        machine = memo.get(instance_id)
        if machine is not None:
            return machine
        chain: dict[str, None] = {}
        instance = self[instance_id]
        while instance.inside is not None:
            machine = memo.get(instance.id)
            if machine is not None:
                break
            if instance.id in chain:
                raise CycleError(f"inside cycle at instance {instance.id}")
            chain[instance.id] = None
            instance = self[instance.inside.target.id]
        else:
            machine = instance.id
            memo[machine] = machine
        for walked in chain:
            memo[walked] = machine
        return machine

    def instances_on_machine(self, machine_id: str) -> list[ResourceInstance]:
        """Every instance whose physical context is ``machine_id``."""
        if self._on_machine is None:
            index: dict[str, list[ResourceInstance]] = {}
            for inst in self:
                index.setdefault(self.machine_of(inst.id), []).append(inst)
            self._on_machine = index
        return list(self._on_machine.get(machine_id, ()))

    def _upstream_index(self) -> dict[str, tuple[str, ...]]:
        if self._upstream is None:
            self._upstream = {
                iid: tuple(inst.upstream_ids())
                for iid, inst in self._instances.items()
            }
        return self._upstream

    def upstream_ids(self, instance_id: str) -> tuple[str, ...]:
        """Ids of the instances ``instance_id`` directly depends on, one
        per link: :meth:`ResourceInstance.upstream_ids`, indexed once."""
        try:
            return self._upstream_index()[instance_id]
        except KeyError:
            raise SpecError(
                f"no instance {instance_id!r} in install spec"
            ) from None

    def downstream_ids(self, instance_id: str) -> list[str]:
        """Ids of instances that directly depend on ``instance_id``."""
        if self._downstream is None:
            index: dict[str, list[str]] = {}
            for iid, upstream_ids in self._upstream_index().items():
                for upstream in upstream_ids:
                    index.setdefault(upstream, []).append(iid)
            self._downstream = index
        return list(self._downstream.get(instance_id, ()))

    def downstream_closure(self, instance_ids: Iterable[str]) -> set[str]:
        """``instance_ids`` plus everything that transitively depends on
        them -- what must leave ``active`` before they can (guards)."""
        closure = set(instance_ids)
        frontier = list(closure)
        for current in frontier:
            for dependent in self.downstream_ids(current):
                if dependent not in closure:
                    closure.add(dependent)
                    frontier.append(dependent)
        return closure

    def topological_order(self) -> list[ResourceInstance]:
        """Instances ordered so dependencies precede dependents.

        This is the install order of S5.2; raises :class:`CycleError` if
        the links are cyclic (a full spec must be a DAG).  The order is
        computed once and cached until the spec is mutated; callers get
        a fresh list, so reordering/slicing it cannot corrupt the cache.
        """
        if self._topo_order is not None:
            return list(self._topo_order)
        instances = self._instances
        order = [instances[iid] for iid in kahn_order(self._upstream_index())]
        self._topo_order = order
        return list(order)
