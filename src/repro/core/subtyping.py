"""The Figure 4 subtyping rules.

Figure 4 of the paper defines ``<=in`` / ``<=conf`` / ``<=out`` on ports,
their lifting to port *sets* and port mappings, and ``<=RT`` on resource
types.  Input ports are contravariant in the base-type relation and
config/output ports covariant -- "related to the usual co-variance and
contra-variance of method arguments".

Two entry points are exported:

* :func:`nominal_subtype` -- the ``extends``-chain relation (sound
  because the registry verifies every declared ``extends`` edge
  structurally at registration).  Matching elsewhere asks the same
  relation of the registry's per-version subtype closure
  (:meth:`ResourceTypeRegistry.subtypes`).
* :func:`structural_subtype` -- the full Figure 4 check on two flattened
  resource types.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.keys import ResourceKey
from repro.core.ports import Port
from repro.core.resource_type import (
    ConfigPort,
    Dependency,
    OutputPort,
    PortMapping,
    ResourceType,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry import ResourceTypeRegistry


def input_port_subtype(sub: Port, sup: Port) -> bool:
    """``sub <=in sup``: same name, contravariant type."""
    return sub.name == sup.name and sup.type.is_subtype_of(sub.type)


def config_port_subtype(sub: ConfigPort, sup: ConfigPort) -> bool:
    """``sub <=conf sup``: same name, covariant type."""
    return sub.name == sup.name and sub.port.type.is_subtype_of(sup.port.type)


def output_port_subtype(sub: OutputPort, sup: OutputPort) -> bool:
    """``sub <=out sup``: same name, covariant type."""
    return sub.name == sup.name and sub.port.type.is_subtype_of(sup.port.type)


def _port_set_subtype(sub_ports, sup_ports, port_rel: Callable) -> bool:
    """Lift a port relation to sets: every super port must be matched by a
    sub port of the same name in the relation (width subtyping: the sub
    may declare more ports)."""
    by_name = {p.name: p for p in sub_ports}
    for sup_port in sup_ports:
        sub_port = by_name.get(sup_port.name)
        if sub_port is None or not port_rel(sub_port, sup_port):
            return False
    return True


def port_mapping_subtype(sub: PortMapping, sup: PortMapping) -> bool:
    """``sub <=pm sup``: every entry of the super mapping is present in the
    sub mapping (the sub may map additional ports)."""
    return set(sup.entries) <= set(sub.entries)


def _dependency_subtype(
    sub: Dependency, sup: Dependency, key_rel: Callable[[ResourceKey, ResourceKey], bool]
) -> bool:
    """Each alternative of the sub dependency must target a subtype of some
    alternative of the super dependency, with a compatible port mapping."""
    for sub_alt in sub.alternatives:
        if not any(
            key_rel(sub_alt.key, sup_alt.key)
            and port_mapping_subtype(sub_alt.port_mapping, sup_alt.port_mapping)
            for sup_alt in sup.alternatives
        ):
            return False
    return True


def nominal_subtype(
    registry: "ResourceTypeRegistry", sub: ResourceKey, sup: ResourceKey
) -> bool:
    """``sub <=RT sup`` via the declared ``extends`` chain (refl/trans)."""
    current: ResourceKey | None = sub
    seen: set[ResourceKey] = set()
    while current is not None:
        if current == sup:
            return True
        if current in seen:  # defensive; registry rejects extends cycles
            return False
        seen.add(current)
        current = registry.raw(current).extends if registry.has(current) else None
    return False


def structural_subtype(
    registry: "ResourceTypeRegistry", sub: ResourceType, sup: ResourceType
) -> bool:
    """The full Figure 4 ``<=RT`` check on two *flattened* resource types.

    Dependency keys are compared with :func:`nominal_subtype`; this matches
    the paper's use of the rules on a declared subclass tree and keeps the
    check terminating without a coinductive hypothesis.
    """
    key_rel = lambda a, b: nominal_subtype(registry, a, b)

    if not _port_set_subtype(sub.input_ports, sup.input_ports, input_port_subtype):
        return False
    if not _port_set_subtype(sub.config_ports, sup.config_ports, config_port_subtype):
        return False
    if not _port_set_subtype(sub.output_ports, sup.output_ports, output_port_subtype):
        return False

    # Inside: both null, or sub's inside refines sup's.
    if sup.inside is not None:
        if sub.inside is None:
            return False
        if not _dependency_subtype(sub.inside, sup.inside, key_rel):
            return False

    # Environment and peer: every super dependency must be matched by some
    # sub dependency.
    for sup_dep in sup.environment:
        if not any(
            _dependency_subtype(sub_dep, sup_dep, key_rel)
            for sub_dep in sub.environment
        ):
            return False
    for sup_dep in sup.peers:
        if not any(
            _dependency_subtype(sub_dep, sup_dep, key_rel) for sub_dep in sub.peers
        ):
            return False
    return True
