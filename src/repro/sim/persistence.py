"""Whole-world persistence for the simulated infrastructure.

The real Engage managed long-lived machines; the CLI simulates them
in-process, so managing a deployment from a *later* invocation needs the
world itself to survive.  :func:`save_world` serialises an entire
:class:`~repro.sim.infrastructure.Infrastructure` -- clock, package
index, download cache, machines with filesystems and processes, package
databases, cloud providers -- and :func:`load_world` reconstructs it,
rebinding the listening ports of still-running processes.

The clock is saved as its ``now`` alone, a process without a restart
count, and a machine with only the processes that still exist: the
world is state, not history (the system's journal is the history).
Older worlds carry the clock's event log as one more section, a
``restarts`` key per process and the records of stopped processes,
which loading ignores (a stopped record is checked like any other
first).

Together with :mod:`repro.runtime.state` this enables the CLI flow::

    engage-sim deploy spec.json --save bundle.json
    engage-sim status bundle.json
    engage-sim stop   bundle.json
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.core.collector import collector_paused
from repro.core.errors import SimulationError, document_section
from repro.core.jsontext import indented
from repro.sim.infrastructure import Infrastructure
from repro.sim.machine import Machine, OsIdentity
from repro.sim.oslpm import InstalledPackage
from repro.sim.package_index import PackageArtifact
from repro.sim.process import ProcessState, SimProcess

WORLD_FORMAT = "engage-world-1"


def world_payload(infrastructure: Infrastructure) -> dict[str, Any]:
    """The whole simulation world as JSON-ready data -- what
    :func:`save_world` dumps and what a bundle nests."""
    return {
        "format": WORLD_FORMAT,
        "clock": infrastructure.clock.now,
        "use_cache": infrastructure.downloads._use_cache,
        "download_counters": {
            "downloads": infrastructure.downloads.downloads,
            "cache_hits": infrastructure.downloads.cache_hits,
        },
        "artifacts": [
            {
                "name": artifact.name,
                "version": artifact.version,
                "size_bytes": artifact.size_bytes,
                "files": [list(pair) for pair in artifact.files],
            }
            for artifact in _artifacts(infrastructure)
        ],
        "cache": sorted(
            list(key) for key in infrastructure.downloads._cache
        ),
        "machines": [
            _machine_payload(infrastructure, machine)
            for machine in infrastructure.network.machines()
        ],
        "providers": [
            {
                "name": provider.name,
                "provision_seconds": provider._provision_seconds,
                "serial": provider._serial,
                "nodes": [node.hostname for node in provider.nodes()],
            }
            for provider in infrastructure.providers()
        ],
    }


@collector_paused
def save_world(infrastructure: Infrastructure) -> str:
    """Serialise the whole simulation world to JSON."""
    return indented(world_payload(infrastructure), 1) + "\n"


def _artifacts(infrastructure: Infrastructure) -> list[PackageArtifact]:
    index = infrastructure.package_index
    return [index._artifacts[key] for key in sorted(index._artifacts)]


def _machine_payload(
    infrastructure: Infrastructure, machine: Machine
) -> dict[str, Any]:
    snapshot = machine.fs.snapshot()
    manager = infrastructure.package_manager(machine)
    return {
        "hostname": machine.hostname,
        "ip_address": machine.ip_address,
        "os": {
            "name": machine.os.name,
            "version": machine.os.version,
            "arch": machine.os.arch,
        },
        "cpu_cores": machine.cpu_cores,
        "memory_mb": machine.memory_mb,
        "os_user_name": machine.os_user_name,
        "fs": {
            "files": snapshot["files"],
            "dirs": sorted(snapshot["dirs"]),
        },
        "next_pid": machine._next_pid,
        "processes": [
            {
                "pid": process.pid,
                "name": process.name,
                "command": process.command,
                "listen_ports": list(process.listen_ports),
                "state": process.state.value,
                "started_at": process.started_at,
                "instance_id": process.instance_id,
            }
            for process in machine.processes()
        ],
        "packages": [
            {
                "name": record.name,
                "version": record.version,
                "install_root": record.install_root,
                "files": list(record.files),
                "owners": sorted(record.owners),
            }
            for record in manager.installed()
        ],
    }


def load_world(text: str) -> Infrastructure:
    """Reconstruct an :class:`Infrastructure` saved by :func:`save_world`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"malformed world file: {exc}") from exc
    return world_from_payload(payload)


def world_from_payload(payload: Any) -> Infrastructure:
    """Reconstruct an :class:`Infrastructure` from :func:`world_payload`
    data; a missing or ill-typed section is a :class:`SimulationError`
    naming it."""
    if not isinstance(payload, dict):
        raise SimulationError("world file must be a JSON object")
    if payload.get("format") != WORLD_FORMAT:
        raise SimulationError(
            f"unsupported world format: {payload.get('format')!r}"
        )
    for name, kind in (
        ("clock", (int, float)), ("artifacts", list), ("machines", list)
    ):
        document_section(
            payload, name, kind, of="world file", error=SimulationError
        )
    try:
        return _restore_world(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SimulationError(
            f"malformed world file: missing or ill-typed field ({exc!r})"
        ) from exc


def _seconds(value: Any, section: str) -> float:
    """``value`` if it is a finite time >= 0; otherwise the error
    naming ``section``, the value's path in the world file."""
    if (
        isinstance(value, bool) or not isinstance(value, (int, float))
        or not 0.0 <= value < math.inf
    ):
        raise SimulationError(
            f"world file section {section!r} is not a finite time >= 0: "
            f"{value!r}"
        )
    return value


def _count(value: Any, section: str, minimum: int = 0) -> int:
    """``value`` if it is an integer >= ``minimum``; otherwise the
    error naming ``section``."""
    if (
        isinstance(value, bool) or not isinstance(value, int)
        or value < minimum
    ):
        raise SimulationError(
            f"world file section {section!r} is not an integer >= "
            f"{minimum}: {value!r}"
        )
    return value


def _restore_world(payload: dict[str, Any]) -> Infrastructure:
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise SimulationError(
            f"world file section 'use_cache' is not a bool: {use_cache!r}"
        )
    infrastructure = Infrastructure(use_cache=use_cache)
    infrastructure.clock.advance_to(_seconds(payload["clock"], "clock"))
    counters = payload.get("download_counters", {})
    for name in ("downloads", "cache_hits"):
        setattr(
            infrastructure.downloads, name,
            _count(counters.get(name, 0), f"download_counters.{name}"),
        )

    for index, entry in enumerate(payload["artifacts"]):
        infrastructure.package_index.publish(
            PackageArtifact(
                name=entry["name"],
                version=entry["version"],
                size_bytes=_count(
                    entry["size_bytes"], f"artifacts[{index}].size_bytes"
                ),
                files=tuple(tuple(pair) for pair in entry["files"]),
            )
        )
    for name, version in payload.get("cache", []):
        infrastructure.downloads.prefetch(name, version)

    for index, machine_entry in enumerate(payload["machines"]):
        _restore_machine(infrastructure, machine_entry, f"machines[{index}]")

    for index, provider_entry in enumerate(payload.get("providers", [])):
        section = f"providers[{index}]"
        provider = infrastructure.add_provider(
            provider_entry["name"],
            provision_seconds=_seconds(
                provider_entry["provision_seconds"],
                f"{section}.provision_seconds",
            ),
        )
        provider._serial = _count(
            provider_entry["serial"], f"{section}.serial"
        )
        for hostname in provider_entry["nodes"]:
            provider._nodes[hostname] = infrastructure.network.machine(
                hostname
            )
    return infrastructure


def _restore_machine(
    infrastructure: Infrastructure, entry: dict[str, Any], section: str
) -> None:
    machine = Machine(
        entry["hostname"],
        OsIdentity(
            entry["os"]["name"], entry["os"]["version"], entry["os"]["arch"]
        ),
        infrastructure.network,
        infrastructure.clock,
        ip_address=entry["ip_address"],
        cpu_cores=_count(entry["cpu_cores"], f"{section}.cpu_cores", 1),
        memory_mb=_count(entry["memory_mb"], f"{section}.memory_mb", 1),
        os_user_name=entry["os_user_name"],
    )
    machine.fs.restore(
        {"files": dict(entry["fs"]["files"]),
         "dirs": set(entry["fs"]["dirs"])}
    )
    pids: set[int] = set()
    for index, process_entry in enumerate(entry["processes"]):
        where = f"{section}.processes[{index}]"
        pid = _count(process_entry["pid"], f"{where}.pid", 1)
        if pid in pids:
            raise SimulationError(
                f"world file section {where + '.pid'!r} repeats pid {pid}"
            )
        pids.add(pid)
        instance_id = process_entry.get("instance_id", "")
        if not isinstance(instance_id, str):
            raise SimulationError(
                f"world file section {where + '.instance_id'!r} is not "
                f"a string: {instance_id!r}"
            )
        process = SimProcess(
            pid=pid,
            name=process_entry["name"],
            command=process_entry["command"],
            listen_ports=tuple(process_entry["listen_ports"]),
            state=ProcessState(process_entry["state"]),
            started_at=_seconds(
                process_entry["started_at"], f"{where}.started_at"
            ),
            instance_id=instance_id,
        )
        if process.state is ProcessState.STOPPED:
            continue  # an older world's history
        machine._processes[pid] = process
        if process.is_running():
            for port in process.listen_ports:
                infrastructure.network.bind(
                    machine.hostname, port, process
                )
    # A next pid at or below a saved one would reuse it on the next
    # spawn, replacing that process in the machine's table.
    machine._next_pid = _count(
        entry["next_pid"], f"{section}.next_pid",
        max(pids, default=0) + 1,
    )

    manager = infrastructure.package_manager(machine)
    manager.restore(
        {
            record["name"]: InstalledPackage(
                record["name"],
                record["version"],
                record["install_root"],
                list(record["files"]),
                set(record.get("owners", [record["name"]])),
            )
            for record in entry["packages"]
        }
    )
