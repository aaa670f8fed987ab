"""JSON installation specifications (Figure 2).

Partial specs use exactly the shape of the paper's Figure 2::

    [
      { "id": "server", "key": "Mac-OSX 10.6",
        "config_port": { "hostname": "localhost" } },
      { "id": "tomcat", "key": "Tomcat 6.0.18",
        "inside": { "id": "server" } },
      { "id": "openmrs", "key": "OpenMRS 1.8",
        "inside": { "id": "tomcat" } }
    ]

Full specifications serialise every instance with all port values and
dependency links.  The line counts of these two documents are what the
compaction experiments (E1, E4, E8) measure, matching the paper's
"partial spec was 22 lines, full spec 204 lines" methodology.
"""

from __future__ import annotations

from typing import Any

from repro.core.collector import collector_paused
from repro.core.errors import SpecError
from repro.core.instances import (
    DependencyLink,
    InstallSpec,
    InstanceRef,
    PartialInstallSpec,
    PartialInstance,
    ResourceInstance,
)
from repro.core.jsontext import (
    ANY,
    STRING,
    Leaf,
    Rows,
    document_text,
    optional,
    parse,
    read,
)
from repro.core.keys import ResourceKey


# -- Partial specifications -----------------------------------------------------

#: A resource key's display form: :meth:`ResourceKey.parse` refuses a
#: blank one.
KEY = Leaf(
    "a resource key", lambda value: type(value) is str and bool(value.strip())
)

#: The document :func:`partial_to_json` writes, as :func:`partial_from_json`
#: reads it.
PARTIAL_SPEC = [{
    "id": STRING, "key": KEY, "inside": optional({"id": STRING}),
    "config_port": optional({str: ANY}),
}]


def partial_to_json(spec: PartialInstallSpec) -> str:
    """Serialise a partial spec in the Figure 2 shape."""
    entries: list[dict[str, Any]] = []
    for instance in spec:
        entry: dict[str, Any] = {
            "id": instance.id,
            "key": instance.key.display(),
        }
        if instance.inside_id is not None:
            entry["inside"] = {"id": instance.inside_id}
        if instance.config:
            entry["config_port"] = dict(sorted(instance.config.items()))
        entries.append(entry)
    return document_text(entries, 2)


def partial_from_json(text: str) -> PartialInstallSpec:
    """Parse a Figure 2 style document."""
    spec = PartialInstallSpec()
    for entry in parse(
        text, PARTIAL_SPEC, of="partial spec", error=SpecError
    ):
        spec.add(
            PartialInstance(
                id=entry["id"],
                key=ResourceKey.parse(entry["key"]),
                inside_id=entry["inside"]["id"] if "inside" in entry else None,
                config=dict(entry.get("config_port", {})),
            )
        )
    return spec


# -- Full specifications -----------------------------------------------------


def _link_to_json(link: DependencyLink) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "id": link.target.id,
        "key": link.target.key.display(),
    }
    if link.port_mapping:
        entry["port_mapping"] = {src: dst for src, dst in link.port_mapping}
    if link.reverse_mapping:
        entry["reverse_mapping"] = {
            src: dst for src, dst in link.reverse_mapping
        }
    return entry


def _link_from_json(kind: str, entry: dict[str, Any]) -> DependencyLink:
    return DependencyLink(
        kind=kind,
        target=InstanceRef(entry["id"], ResourceKey.parse(entry["key"])),
        port_mapping=tuple(
            sorted((k, v) for k, v in entry.get("port_mapping", {}).items())
        ),
        reverse_mapping=tuple(
            sorted((k, v) for k, v in entry.get("reverse_mapping", {}).items())
        ),
    )


def _instance_to_json(instance: ResourceInstance) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "id": instance.id,
        "key": instance.key.display(),
        "config_port": dict(sorted(instance.config.items())),
        "input_ports": dict(sorted(instance.inputs.items())),
        "output_ports": dict(sorted(instance.outputs.items())),
    }
    if instance.inside is not None:
        entry["inside"] = _link_to_json(instance.inside)
    if instance.environment:
        entry["environment"] = [_link_to_json(l) for l in instance.environment]
    if instance.peers:
        entry["peers"] = [_link_to_json(l) for l in instance.peers]
    return entry


_LINK = {
    "id": STRING, "key": KEY, "port_mapping": optional({str: STRING}),
    "reverse_mapping": optional({str: STRING}),
}
#: The rows :func:`full_to_rows` writes, as :func:`full_from_payload`
#: reads them.
FULL_SPEC = [{
    "id": STRING, "key": KEY, "config_port": {str: ANY},
    "input_ports": {str: ANY}, "output_ports": {str: ANY},
    "inside": optional(_LINK), "environment": optional([_LINK]),
    "peers": optional([_LINK]),
}]


def full_to_rows(spec: InstallSpec) -> Rows:
    """A full installation specification as one row per instance --
    what :func:`full_to_json` writes and the state and journal
    documents nest."""
    return Rows(spec, _instance_to_json)


@collector_paused
def full_to_json(spec: InstallSpec) -> str:
    """Serialise a full installation specification, one instance at a
    time."""
    return document_text(full_to_rows(spec), 2)


def full_from_json(text: str) -> InstallSpec:
    """Parse a serialised full installation specification."""
    return full_from_payload(parse(text, ANY, of="full spec", error=SpecError))


def full_from_payload(data: Any, of: str = "full spec") -> InstallSpec:
    """Rebuild a full specification from parsed :func:`full_to_rows`.

    Rows that are not :data:`FULL_SPEC` are a :class:`SpecError` naming
    ``of``, the document they sit in, and the field.  A link to an
    instance the data does not contain is a :class:`SpecError` naming
    both ids, and an inside/dependency cycle a
    :class:`~repro.core.errors.CycleError`: the install order is taken
    here, once, and kept on the spec for whoever deploys it."""
    read(data, FULL_SPEC, of=of, error=SpecError)
    spec = InstallSpec()
    for entry in data:
        spec.add(
            ResourceInstance(
                id=entry["id"],
                key=ResourceKey.parse(entry["key"]),
                config=dict(entry["config_port"]),
                inputs=dict(entry["input_ports"]),
                outputs=dict(entry["output_ports"]),
                inside=(
                    _link_from_json("inside", entry["inside"])
                    if "inside" in entry else None
                ),
                environment=tuple(
                    _link_from_json("environment", e)
                    for e in entry.get("environment", [])
                ),
                peers=tuple(
                    _link_from_json("peer", e) for e in entry.get("peers", [])
                ),
            )
        )
    spec.topological_order()
    return spec


def line_count(text: str) -> int:
    """Non-empty line count of a serialised document (the paper's
    compaction metric)."""
    return sum(1 for line in text.splitlines() if line.strip())
