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
A world is read only if it has the shape :data:`WORLD` (see
:func:`repro.core.jsontext.read`), its processes repeat no pid and each
machine's next pid lies above its saved ones.  Older worlds carry the
clock's event log as one more section, a ``restarts`` key per process
and the records of stopped processes, which loading ignores (a stopped
record is checked like any other first).

Together with :mod:`repro.runtime.state` this enables the CLI flow::

    engage-sim deploy spec.json --save bundle.json
    engage-sim status bundle.json
    engage-sim stop   bundle.json
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.core.collector import collector_paused
from repro.core.errors import SimulationError
from repro.core.jsontext import (
    ANY,
    BOOL,
    STRING,
    TIME,
    Rows,
    at_least,
    document_text,
    one_of,
    optional,
    parse,
    read,
)
from repro.sim.infrastructure import Infrastructure
from repro.sim.machine import Machine, OsIdentity
from repro.sim.oslpm import InstalledPackage
from repro.sim.package_index import PackageArtifact
from repro.sim.process import ProcessState, SimProcess

WORLD_FORMAT = "engage-world-1"


def world_document(infrastructure: Infrastructure) -> dict[str, Any]:
    """The whole simulation world as a document, its machines as
    :class:`~repro.core.jsontext.Rows` (:func:`save_world` writes one
    machine at a time, a bundle nests it)."""
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
        "machines": Rows(
            infrastructure.network.machines(),
            partial(_machine_payload, infrastructure),
        ),
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
    """Serialise the whole simulation world to JSON, one machine at a
    time."""
    return document_text(world_document(infrastructure), 1)


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


_PROCESS = {
    "pid": at_least(1), "name": STRING, "command": STRING,
    "listen_ports": [at_least(1)],
    "state": one_of(*(state.value for state in ProcessState)),
    "started_at": TIME, "instance_id": optional(STRING),
}
_PACKAGE = {
    "name": STRING, "version": STRING, "install_root": STRING,
    "files": [STRING], "owners": optional([STRING]),
}
_MACHINE = {
    "hostname": STRING, "ip_address": STRING,
    "os": {"name": STRING, "version": STRING, "arch": STRING},
    "cpu_cores": at_least(1), "memory_mb": at_least(1),
    "os_user_name": STRING, "fs": {"files": {str: STRING}, "dirs": [STRING]},
    "next_pid": at_least(1), "processes": [_PROCESS], "packages": [_PACKAGE],
}
#: What :func:`world_document` writes, as :func:`world_from_payload`
#: reads it; an older world's extra sections and fields are ignored.
WORLD = {
    "format": STRING, "clock": TIME, "use_cache": optional(BOOL),
    "download_counters": optional({
        "downloads": optional(at_least(0)),
        "cache_hits": optional(at_least(0)),
    }),
    "artifacts": [
        {"name": STRING, "version": STRING, "size_bytes": at_least(0),
         "files": [(STRING, STRING)]}
    ],
    "cache": optional([(STRING, STRING)]),
    "machines": [_MACHINE],
    "providers": optional([
        {"name": STRING, "provision_seconds": TIME, "serial": at_least(0),
         "nodes": [STRING]}
    ]),
}


def load_world(text: str) -> Infrastructure:
    """Reconstruct an :class:`Infrastructure` saved by :func:`save_world`."""
    return world_from_payload(
        parse(text, ANY, of="world file", error=SimulationError)
    )


def world_from_payload(payload: Any) -> Infrastructure:
    """Reconstruct an :class:`Infrastructure` from a parsed
    :func:`world_document`; a payload that is not :data:`WORLD` is a
    :class:`SimulationError` naming the field."""
    read(payload, WORLD, of="world file", error=SimulationError)
    if payload["format"] != WORLD_FORMAT:
        raise SimulationError(
            f"unsupported world format: {payload['format']!r}"
        )
    infrastructure = Infrastructure(use_cache=payload.get("use_cache", True))
    infrastructure.clock.advance_to(payload["clock"])
    counters = payload.get("download_counters", {})
    infrastructure.downloads.downloads = counters.get("downloads", 0)
    infrastructure.downloads.cache_hits = counters.get("cache_hits", 0)

    for entry in payload["artifacts"]:
        infrastructure.package_index.publish(
            PackageArtifact(
                name=entry["name"],
                version=entry["version"],
                size_bytes=entry["size_bytes"],
                files=tuple(tuple(pair) for pair in entry["files"]),
            )
        )
    for name, version in payload.get("cache", []):
        infrastructure.downloads.prefetch(name, version)

    for index, machine_entry in enumerate(payload["machines"]):
        _restore_machine(infrastructure, machine_entry, f"machines[{index}]")

    for provider_entry in payload.get("providers", []):
        provider = infrastructure.add_provider(
            provider_entry["name"],
            provision_seconds=provider_entry["provision_seconds"],
        )
        provider._serial = provider_entry["serial"]
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
        cpu_cores=entry["cpu_cores"],
        memory_mb=entry["memory_mb"],
        os_user_name=entry["os_user_name"],
    )
    machine.fs.restore(
        {"files": dict(entry["fs"]["files"]),
         "dirs": set(entry["fs"]["dirs"])}
    )
    pids: set[int] = set()
    for index, process_entry in enumerate(entry["processes"]):
        pid = process_entry["pid"]
        if pid in pids:
            raise SimulationError(
                f"malformed world file: section "
                f"'{section}.processes[{index}].pid' repeats pid {pid}"
            )
        pids.add(pid)
        process = SimProcess(
            pid=pid,
            name=process_entry["name"],
            command=process_entry["command"],
            listen_ports=tuple(process_entry["listen_ports"]),
            state=ProcessState(process_entry["state"]),
            started_at=process_entry["started_at"],
            instance_id=process_entry.get("instance_id", ""),
            machine=machine,
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
    machine._next_pid = entry["next_pid"]
    if machine._next_pid <= max(pids, default=0):
        raise SimulationError(
            f"malformed world file: section '{section}.next_pid' is not "
            f"above the saved pid {max(pids)}: {machine._next_pid}"
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

