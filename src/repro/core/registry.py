"""The resource-type registry.

Holds the "fixed, well-formed set of resource types R in the system"
(S4).  The registry:

* indexes types by key and by name (all versions of a package);
* maintains the subclass tree declared by ``extends``;
* *flattens* inheritance -- "fields from a super-resource type are
  implicitly replicated in the sub-resource type, or overridden" (S3.2) --
  producing the effective type used everywhere downstream;
* verifies every declared ``extends`` edge against the structural
  Figure 4 rules;
* computes the *concrete frontier* of an abstract type, used by the
  hypergraph generator to lower abstract dependencies to disjunctions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.core.errors import (
    AbstractFrontierError,
    DuplicateKeyError,
    SubtypingError,
    UnknownKeyError,
)
from repro.core.keys import ResourceKey, Version, VersionRange
from repro.core.resource_type import Dependency, ResourceType
from repro.core import subtyping


class ResourceTypeRegistry:
    """A mutable collection of resource types with derived indexes."""

    def __init__(self, types: Iterable[ResourceType] = ()) -> None:
        self._raw: dict[ResourceKey, ResourceType] = {}
        self._effective: dict[ResourceKey, ResourceType] = {}
        self._children: dict[ResourceKey, list[ResourceKey]] = {}
        #: Monotonic mutation counter; bumped on every registration so
        #: downstream caches (well-formedness verdicts, configuration
        #: sessions) can detect staleness cheaply.
        self._version = 0
        #: The :attr:`version` at which well-formedness was last verified,
        #: or None if never verified (or mutated since).
        self._wellformed_version: Optional[int] = None
        #: Named derived indexes memoized against :attr:`version`.
        self._derived: dict[str, tuple[int, object]] = {}
        for resource_type in types:
            self.register(resource_type)

    # -- Registration ---------------------------------------------------

    def register(self, resource_type: ResourceType) -> None:
        key = resource_type.key
        if key in self._raw:
            raise DuplicateKeyError(f"resource type already registered: {key}")
        if resource_type.extends is not None:
            if resource_type.extends not in self._raw:
                raise UnknownKeyError(
                    f"{key} extends unknown type {resource_type.extends}"
                )
        self._version += 1
        self._raw[key] = resource_type
        self._effective.pop(key, None)
        if resource_type.extends is not None:
            self._children.setdefault(resource_type.extends, []).append(key)
            self._check_extends(key)

    def register_all(self, types: Iterable[ResourceType]) -> None:
        for resource_type in types:
            self.register(resource_type)

    def _check_extends(self, key: ResourceKey) -> None:
        """Verify the flattened sub against the flattened super (Figure 4)."""
        raw = self._raw[key]
        assert raw.extends is not None
        sub = self.effective(key)
        sup = self.effective(raw.extends)
        if not subtyping.structural_subtype(self, sub, sup):
            raise SubtypingError(
                f"{key} does not structurally subtype {raw.extends} "
                "(Figure 4 rules)"
            )

    # -- Mutation tracking ----------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter: increases whenever a type is registered."""
        return self._version

    @property
    def verified_well_formed(self) -> bool:
        """True when well-formedness was verified and nothing changed since."""
        return self._wellformed_version == self._version

    def mark_well_formed(self) -> None:
        """Record that the current contents passed well-formedness checks.

        Called by :func:`repro.core.wellformed.assert_well_formed`; any
        subsequent :meth:`register` invalidates the verdict.
        """
        self._wellformed_version = self._version

    def derived(self, name: str, builder) -> object:
        """Memoize ``builder(self)`` under ``name`` until the next mutation.

        Used for derived indexes that are expensive to recompute on every
        query (e.g. the reverse-mapping target set consulted by value
        propagation); the cached value is dropped automatically when the
        registry version changes.
        """
        hit = self._derived.get(name)
        if hit is not None and hit[0] == self._version:
            return hit[1]
        value = builder(self)
        self._derived[name] = (self._version, value)
        return value

    # -- Lookup ---------------------------------------------------------

    def has(self, key: ResourceKey) -> bool:
        return key in self._raw

    def raw(self, key: ResourceKey) -> ResourceType:
        """The type exactly as registered (un-flattened)."""
        try:
            return self._raw[key]
        except KeyError:
            raise UnknownKeyError(f"unknown resource type: {key}") from None

    def effective(self, key: ResourceKey) -> ResourceType:
        """The type with inherited fields flattened in."""
        cached = self._effective.get(key)
        if cached is not None:
            return cached
        raw = self.raw(key)
        if raw.extends is None:
            flattened = raw
        else:
            flattened = _merge(self.effective(raw.extends), raw)
        self._effective[key] = flattened
        return flattened

    def keys(self) -> list[ResourceKey]:
        return sorted(self._raw)

    def __iter__(self) -> Iterator[ResourceType]:
        for key in self.keys():
            yield self._raw[key]

    def __len__(self) -> int:
        return len(self._raw)

    def versions_of(self, name: str) -> list[Version]:
        """All registered versions of a package name."""
        return sorted(k.version for k in self._raw if k.name == name)

    def keys_in_range(self, name: str, version_range: VersionRange) -> list[ResourceKey]:
        """Concrete keys of ``name`` whose version lies in the range."""
        return [
            ResourceKey(name, v)
            for v in self.versions_of(name)
            if version_range.contains(v)
        ]

    # -- Subtype tree ---------------------------------------------------

    def children(self, key: ResourceKey) -> list[ResourceKey]:
        """Direct declared subtypes of ``key``."""
        return list(self._children.get(key, ()))

    def subtypes(self, key: ResourceKey) -> frozenset[ResourceKey]:
        """``key`` and every registered type that extends it, transitively.

        One table per registry version answers every subtype question:
        :meth:`is_subtype`, GraphGen's candidate lookup (which walks a
        key's few subtypes instead of testing every key in the graph)
        and the static check's per-dependency match sets.  An
        unregistered key is its only subtype.
        """
        hit = self.derived("subtype-closure", _subtype_closure).get(key)
        return hit if hit is not None else frozenset((key,))

    def is_subtype(self, sub: ResourceKey, sup: ResourceKey) -> bool:
        """Reflexive-transitive ``extends`` relation."""
        return sub in self.subtypes(sup)

    def concrete_frontier(self, key: ResourceKey) -> list[ResourceKey]:
        """The frontier F of concrete subtypes of ``key`` (S4).

        Walk the subclass tree from ``key``, stopping at the first concrete
        type on each path.  Raises :class:`AbstractFrontierError` when some
        path ends in an abstract leaf (the paper: "we stop with an error").
        """
        resource_type = self.effective(key)
        if not resource_type.abstract:
            return [key]
        frontier: list[ResourceKey] = []
        for child in self.children(key):
            if self.effective(child).abstract:
                frontier.extend(self.concrete_frontier(child))
            else:
                frontier.append(child)
        if not frontier:
            raise AbstractFrontierError(
                f"abstract resource {key} has no concrete subtypes"
            )
        return sorted(frontier)

    def machines(self) -> list[ResourceKey]:
        """All concrete machine types (no inside dependency)."""
        return [
            key
            for key in self.keys()
            if self.effective(key).is_machine() and not self.effective(key).abstract
        ]


def _subtype_closure(
    registry: ResourceTypeRegistry,
) -> dict[ResourceKey, frozenset[ResourceKey]]:
    """Every registered key -> its reflexive-transitive subtypes."""
    raw = registry._raw
    below: dict[ResourceKey, set[ResourceKey]] = {key: {key} for key in raw}
    for key in raw:
        # Registration requires the parent first, so each chain is finite
        # and ends at a registered root.
        current: Optional[ResourceKey] = raw[key].extends
        while current is not None:
            below[current].add(key)
            current = raw[current].extends
    return {key: frozenset(keys) for key, keys in below.items()}


def _merge(sup: ResourceType, sub: ResourceType) -> ResourceType:
    """Flatten ``sub`` over its flattened super ``sup`` (S3.2 semantics).

    Ports with the same name override; others are appended.  The inside
    dependency is overridden if the sub declares one.  Environment and
    peer dependencies override a super dependency when their mapped
    input-port sets intersect (a refinement), and are appended otherwise.
    """
    inputs = {p.name: p for p in sup.input_ports}
    inputs.update({p.name: p for p in sub.input_ports})
    configs = {p.name: p for p in sup.config_ports}
    configs.update({p.name: p for p in sub.config_ports})
    outputs = {p.name: p for p in sup.output_ports}
    outputs.update({p.name: p for p in sub.output_ports})

    inside = sub.inside if sub.inside is not None else sup.inside

    environment = _merge_dependencies(sup.environment, sub.environment)
    peers = _merge_dependencies(sup.peers, sub.peers)

    driver = sub.driver_name if sub.driver_name != "null" else sup.driver_name

    return ResourceType(
        key=sub.key,
        abstract=sub.abstract,
        extends=sub.extends,
        input_ports=tuple(inputs.values()),
        config_ports=tuple(configs.values()),
        output_ports=tuple(outputs.values()),
        inside=inside,
        environment=environment,
        peers=peers,
        driver_name=driver,
    )


def _merge_dependencies(
    sup_deps: tuple[Dependency, ...], sub_deps: tuple[Dependency, ...]
) -> tuple[Dependency, ...]:
    merged: list[Dependency] = []
    overridden: set[int] = set()
    for sup_dep in sup_deps:
        sup_inputs = sup_dep.mapped_inputs()
        replacement: Optional[Dependency] = None
        for index, sub_dep in enumerate(sub_deps):
            if sup_inputs and sub_dep.mapped_inputs() & sup_inputs:
                replacement = sub_dep
                overridden.add(index)
                break
        merged.append(replacement if replacement is not None else sup_dep)
    for index, sub_dep in enumerate(sub_deps):
        if index not in overridden:
            merged.append(sub_dep)
    return tuple(merged)
