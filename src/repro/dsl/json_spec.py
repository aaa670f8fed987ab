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

import json
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
from repro.core.jsontext import indented
from repro.core.keys import ResourceKey


# -- Partial specifications -----------------------------------------------------


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
    return indented(entries, 2) + "\n"


def partial_from_json(text: str) -> PartialInstallSpec:
    """Parse a Figure 2 style document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, list):
        raise SpecError("partial spec must be a JSON array")
    spec = PartialInstallSpec()
    for entry in data:
        if not isinstance(entry, dict) or "id" not in entry or "key" not in entry:
            raise SpecError(f"malformed partial instance: {entry!r}")
        inside = entry.get("inside")
        inside_id = None
        if inside is not None:
            if not isinstance(inside, dict) or "id" not in inside:
                raise SpecError(f"malformed inside reference: {inside!r}")
            inside_id = inside["id"]
        spec.add(
            PartialInstance(
                id=entry["id"],
                key=ResourceKey.parse(entry["key"]),
                inside_id=inside_id,
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


def full_to_payload(spec: InstallSpec) -> list[dict[str, Any]]:
    """A full installation specification as JSON-ready data -- what
    :func:`full_to_json` dumps and what the state and journal documents
    nest."""
    entries: list[dict[str, Any]] = []
    for instance in spec:
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
            entry["environment"] = [
                _link_to_json(l) for l in instance.environment
            ]
        if instance.peers:
            entry["peers"] = [_link_to_json(l) for l in instance.peers]
        entries.append(entry)
    return entries


@collector_paused
def full_to_json(spec: InstallSpec) -> str:
    """Serialise a full installation specification."""
    return indented(full_to_payload(spec), 2) + "\n"


def full_from_json(text: str) -> InstallSpec:
    """Parse a serialised full installation specification."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON: {exc}") from exc
    return full_from_payload(data)


def full_from_payload(data: Any) -> InstallSpec:
    """Rebuild a full specification from :func:`full_to_payload` data."""
    if not isinstance(data, list):
        raise SpecError("full spec must be a JSON array")
    spec = InstallSpec()
    for entry in data:
        if not isinstance(entry, dict):
            raise SpecError(f"malformed full instance: {entry!r}")
        inside = entry.get("inside")
        try:
            instance = ResourceInstance(
                id=entry["id"],
                key=ResourceKey.parse(entry["key"]),
                config=dict(entry.get("config_port", {})),
                inputs=dict(entry.get("input_ports", {})),
                outputs=dict(entry.get("output_ports", {})),
                inside=_link_from_json("inside", inside) if inside else None,
                environment=tuple(
                    _link_from_json("environment", e)
                    for e in entry.get("environment", [])
                ),
                peers=tuple(
                    _link_from_json("peer", e) for e in entry.get("peers", [])
                ),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SpecError(
                f"malformed full instance {entry.get('id')!r}: "
                f"missing or ill-typed field ({exc!r})"
            ) from exc
        spec.add(instance)
    return spec


def line_count(text: str) -> int:
    """Non-empty line count of a serialised document (the paper's
    compaction metric)."""
    return sum(1 for line in text.splitlines() if line.strip())
