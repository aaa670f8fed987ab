"""Resource types: the paper's core abstraction (S3).

Formally a resource type is ``R = (key, InP, ConfP, OutP, Inside, Env,
Peer)``: a globally unique key, three disjoint sets of ports, an optional
inside dependency, and sets of environment and peer dependencies.  Each
dependency is a pair ``(key', pmap)`` where ``pmap`` partially maps the
provider's output ports to this resource's input ports.

The S3.4 sugar is represented directly: dependencies hold a *disjunction*
of alternatives (lowered from abstract supertypes or version ranges), and
each alternative can additionally carry a *reverse mapping* from this
resource's static output ports to the provider's input ports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Optional

from repro.core.errors import PortError, ResourceModelError
from repro.core.keys import ResourceKey
from repro.core.ports import Binding, Port, PortType
from repro.core.values import Expr, Lit, Space, is_constant


class DependencyKind(Enum):
    """The three dependency flavours of S3.1."""

    INSIDE = "inside"
    ENVIRONMENT = "environment"
    PEER = "peer"


@dataclass(frozen=True)
class PortMapping:
    """A partial map from provider output-port names to dependent
    input-port names: ``entries`` is a tuple of ``(output, input)``."""

    entries: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def of(**mapping: str) -> "PortMapping":
        """``PortMapping.of(java="java")`` maps output ``java`` to input
        ``java`` (keyword = provider output port, value = my input port)."""
        return PortMapping(tuple(sorted(mapping.items())))

    def output_ports(self) -> tuple[str, ...]:
        return tuple(output for output, _ in self.entries)

    def input_ports(self) -> tuple[str, ...]:
        return tuple(input_ for _, input_ in self.entries)

    def is_empty(self) -> bool:
        return not self.entries

    def __post_init__(self) -> None:
        inputs = [i for _, i in self.entries]
        if len(inputs) != len(set(inputs)):
            raise PortError(
                f"port mapping maps the same input port twice: {self.entries}"
            )

    def __str__(self) -> str:
        return ", ".join(f"{o} -> {i}" for o, i in self.entries)


@dataclass(frozen=True)
class DependencyAlternative:
    """One disjunct of a dependency: a target key plus its port mappings.

    ``port_mapping`` flows provider outputs into this resource's inputs.
    ``reverse_mapping`` (S3.4 extension) flows this resource's *static*
    output ports into the provider's inputs -- used e.g. to pass a server
    configuration file from OpenMRS back to Tomcat.
    """

    key: ResourceKey
    port_mapping: PortMapping = PortMapping()
    reverse_mapping: PortMapping = PortMapping()

    def __str__(self) -> str:
        text = str(self.key)
        if not self.port_mapping.is_empty():
            text += f" {{{self.port_mapping}}}"
        return text


@dataclass(frozen=True)
class Dependency:
    """A dependency of one kind, as a disjunction of alternatives.

    A singleton tuple of alternatives is the paper's plain ``(key, pmap)``
    dependency; longer tuples come from the disjunction / version-range /
    abstract-frontier sugar.  To keep the well-formedness check simple the
    paper requires disjunctively combined port mappings to have identical
    ranges; we enforce that here.
    """

    kind: DependencyKind
    alternatives: tuple[DependencyAlternative, ...]

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise ResourceModelError("dependency with no alternatives")
        ranges = {
            frozenset(alt.port_mapping.input_ports()) for alt in self.alternatives
        }
        if len(ranges) > 1:
            raise ResourceModelError(
                "disjunctive dependency alternatives must map identical "
                f"input-port ranges, got {sorted(map(sorted, ranges))}"
            )

    def keys(self) -> tuple[ResourceKey, ...]:
        return tuple(alt.key for alt in self.alternatives)

    def mapped_inputs(self) -> frozenset[str]:
        """The input ports this dependency fills (identical across
        alternatives by construction)."""
        return frozenset(self.alternatives[0].port_mapping.input_ports())

    def __str__(self) -> str:
        alts = " | ".join(str(alt) for alt in self.alternatives)
        return f"{self.kind.value} ({alts})"


@dataclass(frozen=True)
class ConfigPort:
    """A config port with its default expression.

    Per S3.1 the default is "either a default constant or defined as a
    function of the ports in InP".  Static config ports (S3.4) must be
    constants.
    """

    port: Port
    default: Expr = field(default_factory=lambda: Lit(None))

    def __post_init__(self) -> None:
        for space, _ in self.default.references():
            if space != Space.INPUT:
                raise PortError(
                    f"config port {self.port.name!r} default may only read "
                    f"input ports, found {space.value} reference"
                )
        if self.port.binding == Binding.STATIC and not is_constant(self.default):
            raise PortError(
                f"static config port {self.port.name!r} must be a constant"
            )

    @property
    def name(self) -> str:
        return self.port.name


@dataclass(frozen=True)
class OutputPort:
    """An output port with its defining expression.

    Per S3.1 the value is "either a default constant or defined as a
    function of the ports in InP + ConfP".  Static output ports must be
    constants or functions of static config ports; that refinement is
    checked by the registry, which knows the bindings of config ports.
    """

    port: Port
    value: Expr = field(default_factory=lambda: Lit(None))

    @property
    def name(self) -> str:
        return self.port.name


@dataclass(frozen=True)
class ResourceType:
    """A resource type (class-like): metadata, ports, and dependencies.

    ``extends`` names an optional super-resource type; the registry
    flattens inheritance and checks the Figure 4 subtyping rules.
    ``driver_name`` names the driver implementation used at deployment
    time (the paper's resources pair a type with a driver).
    """

    key: ResourceKey
    abstract: bool = False
    extends: Optional[ResourceKey] = None
    input_ports: tuple[Port, ...] = ()
    config_ports: tuple[ConfigPort, ...] = ()
    output_ports: tuple[OutputPort, ...] = ()
    inside: Optional[Dependency] = None
    environment: tuple[Dependency, ...] = ()
    peers: tuple[Dependency, ...] = ()
    driver_name: str = "null"

    def __post_init__(self) -> None:
        names: list[str] = (
            [p.name for p in self.input_ports]
            + [p.name for p in self.config_ports]
            + [p.name for p in self.output_ports]
        )
        if len(names) != len(set(names)):
            raise PortError(
                f"{self.key}: input/config/output port names must be "
                f"disjoint, got {sorted(names)}"
            )
        for port in self.input_ports:
            if port.binding == Binding.STATIC:
                raise PortError(
                    f"{self.key}: input port {port.name!r} cannot be static"
                )
        if self.inside is not None and self.inside.kind != DependencyKind.INSIDE:
            raise ResourceModelError(f"{self.key}: inside slot holds {self.inside.kind}")
        for dep in self.environment:
            if dep.kind != DependencyKind.ENVIRONMENT:
                raise ResourceModelError(
                    f"{self.key}: environment slot holds {dep.kind}"
                )
        for dep in self.peers:
            if dep.kind != DependencyKind.PEER:
                raise ResourceModelError(f"{self.key}: peer slot holds {dep.kind}")

    # -- Lookup helpers -------------------------------------------------

    def input_port(self, name: str) -> Port:
        for port in self.input_ports:
            if port.name == name:
                return port
        raise PortError(f"{self.key} has no input port {name!r}")

    def config_port(self, name: str) -> ConfigPort:
        for port in self.config_ports:
            if port.name == name:
                return port
        raise PortError(f"{self.key} has no config port {name!r}")

    def output_port(self, name: str) -> OutputPort:
        for port in self.output_ports:
            if port.name == name:
                return port
        raise PortError(f"{self.key} has no output port {name!r}")

    def has_input_port(self, name: str) -> bool:
        return any(p.name == name for p in self.input_ports)

    def dependencies(self) -> tuple[Dependency, ...]:
        """All dependencies: inside (if any) then environment then peer."""
        deps: tuple[Dependency, ...] = ()
        if self.inside is not None:
            deps += (self.inside,)
        return deps + self.environment + self.peers

    def is_machine(self) -> bool:
        """A machine is a resource whose inside dependency is null."""
        return self.inside is None

    def __str__(self) -> str:
        return str(self.key)
