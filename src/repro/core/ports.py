"""Ports and port types.

Configuration data for a component is described in *ports* (S3.1).  A port
has a name and a type over an "(unspecified) set of base types"; we make
that set concrete with a small lattice of scalar types plus record types
(the paper's "structure with named fields" sugar, S3.4).

The subtyping relation ``<=`` on port types feeds the Figure 4 rules:
input ports are contravariant and config/output ports covariant in the
base-type relation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.core.errors import PortError


class ScalarKind(Enum):
    """The scalar base types over which ports are defined."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    PATH = "path"
    HOSTNAME = "hostname"
    TCP_PORT = "tcp_port"
    PASSWORD = "password"


# Direct subtype edges of the scalar lattice: child -> parent.
_SCALAR_PARENT: dict[ScalarKind, ScalarKind] = {
    ScalarKind.PATH: ScalarKind.STRING,
    ScalarKind.HOSTNAME: ScalarKind.STRING,
    ScalarKind.PASSWORD: ScalarKind.STRING,
    ScalarKind.TCP_PORT: ScalarKind.INT,
    ScalarKind.INT: ScalarKind.FLOAT,
}


class PortType:
    """Abstract base of port types.  Use :class:`ScalarType`,
    :class:`RecordType`, or :class:`ListType`."""

    def is_subtype_of(self, other: "PortType") -> bool:
        raise NotImplementedError

    def accepts(self, value: Any) -> bool:
        """Whether a concrete Python value inhabits this type."""
        raise NotImplementedError


def _accepts_bool(value: Any) -> bool:
    return isinstance(value, bool)


def _accepts_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _accepts_tcp_port(value: Any) -> bool:
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and 0 <= value <= 65535
    )


def _accepts_float(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _accepts_str(value: Any) -> bool:
    return isinstance(value, str)


# Every kind not listed is string-like and accepts ``str``.
_SCALAR_CHECKERS = {
    ScalarKind.BOOL: _accepts_bool,
    ScalarKind.INT: _accepts_int,
    ScalarKind.TCP_PORT: _accepts_tcp_port,
    ScalarKind.FLOAT: _accepts_float,
}


@dataclass(frozen=True)
class ScalarType(PortType):
    kind: ScalarKind

    def __post_init__(self) -> None:
        # The kind's checker is the instance's ``accepts``, so a port
        # check is one plain function call with no dispatch on the kind.
        object.__setattr__(
            self, "accepts", _SCALAR_CHECKERS.get(self.kind, _accepts_str)
        )

    def is_subtype_of(self, other: PortType) -> bool:
        if not isinstance(other, ScalarType):
            return False
        kind: ScalarKind | None = self.kind
        while kind is not None:
            if kind == other.kind:
                return True
            kind = _SCALAR_PARENT.get(kind)
        return False

    def __str__(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class RecordType(PortType):
    """A structure with named, typed fields (S3.4 sugar)."""

    fields: tuple[tuple[str, PortType], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.fields]
        if len(names) != len(set(names)):
            raise PortError(f"duplicate field names in record type: {names}")
        object.__setattr__(self, "_names", frozenset(names))

    @staticmethod
    def of(**fields: PortType) -> "RecordType":
        return RecordType(tuple(sorted(fields.items())))

    def field_map(self) -> dict[str, PortType]:
        return dict(self.fields)

    def is_subtype_of(self, other: PortType) -> bool:
        # Width and depth subtyping: a record is a subtype if it has at
        # least the fields of the supertype, each at a subtype.
        if not isinstance(other, RecordType):
            return False
        mine = self.field_map()
        for name, their_type in other.fields:
            my_type = mine.get(name)
            if my_type is None or not my_type.is_subtype_of(their_type):
                return False
        return True

    def accepts(self, value: Any) -> bool:
        # A plain dict answers without the Mapping ABC's subclass hook.
        if value.__class__ is dict:
            if value.keys() != self._names:
                return False
        elif not isinstance(value, Mapping) or set(value.keys()) != self._names:
            return False
        for name, field_type in self.fields:
            if not field_type.accepts(value[name]):
                return False
        return True

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {t}" for name, t in self.fields)
        return "{" + inner + "}"


@dataclass(frozen=True)
class ListType(PortType):
    """A homogeneous list of elements (used e.g. for pip package lists)."""

    element: PortType

    def is_subtype_of(self, other: PortType) -> bool:
        return isinstance(other, ListType) and self.element.is_subtype_of(
            other.element
        )

    def accepts(self, value: Any) -> bool:
        if not isinstance(value, (list, tuple)):
            return False
        element_accepts = self.element.accepts
        for item in value:
            if not element_accepts(item):
                return False
        return True

    def __str__(self) -> str:
        return f"list[{self.element}]"


# Convenient singletons for the scalar types.
STRING = ScalarType(ScalarKind.STRING)
INT = ScalarType(ScalarKind.INT)
FLOAT = ScalarType(ScalarKind.FLOAT)
BOOL = ScalarType(ScalarKind.BOOL)
PATH = ScalarType(ScalarKind.PATH)
HOSTNAME = ScalarType(ScalarKind.HOSTNAME)
TCP_PORT = ScalarType(ScalarKind.TCP_PORT)
PASSWORD = ScalarType(ScalarKind.PASSWORD)

_SCALARS_BY_NAME = {
    "string": STRING,
    "int": INT,
    "float": FLOAT,
    "bool": BOOL,
    "path": PATH,
    "hostname": HOSTNAME,
    "tcp_port": TCP_PORT,
    "password": PASSWORD,
}


def scalar_by_name(name: str) -> ScalarType:
    """Look up a scalar type by its DSL name (e.g. ``"tcp_port"``)."""
    try:
        return _SCALARS_BY_NAME[name]
    except KeyError:
        raise PortError(f"unknown scalar type: {name!r}") from None


class Binding(Enum):
    """Static vs. dynamic port binding (S3.4 extension).

    A *static* port is assigned a value at instantiation time; a *dynamic*
    port at installation time.  Only config and output ports may be static.
    """

    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class Port:
    """A named, typed port.  ``binding`` defaults to dynamic."""

    name: str
    type: PortType
    binding: Binding = Binding.DYNAMIC

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise PortError(f"invalid port name: {self.name!r}")


def neutral_value(port_type: PortType) -> Any:
    """A type-appropriate "absent" value.

    Used for reverse-mapped input ports (S3.4) when no downstream
    dependent pushes a value: string-likes get ``""``, numbers ``0``,
    bools ``False``, lists ``[]``, records a neutral value per field.
    """
    if isinstance(port_type, ScalarType):
        if port_type.kind == ScalarKind.BOOL:
            return False
        if port_type.kind in (ScalarKind.INT, ScalarKind.TCP_PORT):
            return 0
        if port_type.kind == ScalarKind.FLOAT:
            return 0.0
        return ""
    if isinstance(port_type, ListType):
        return []
    if isinstance(port_type, RecordType):
        return {name: neutral_value(t) for name, t in port_type.fields}
    raise PortError(f"no neutral value for type {port_type}")
