"""Simulated machines.

A :class:`Machine` is a physical or virtual server: an OS identity, a
virtual filesystem, a process table, and a set of bound TCP ports on the
shared :class:`~repro.sim.network.Network`.  Engage's runtime tools
"determine properties of servers, such as hostname, IP address,
operating system, CPU architecture" (S5.2) -- :meth:`Machine.facts`
is that interface.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.filesystem import VirtualFilesystem
from repro.sim.network import Network
from repro.sim.process import SimProcess


@dataclass(frozen=True)
class OsIdentity:
    """The operating-system identity of a machine."""

    name: str  # e.g. "mac-osx", "ubuntu-linux"
    version: str  # e.g. "10.6"
    arch: str = "x86_64"

    def __str__(self) -> str:
        return f"{self.name} {self.version} ({self.arch})"


class Machine:
    """One simulated server."""

    def __init__(
        self,
        hostname: str,
        os: OsIdentity,
        network: Network,
        clock: SimClock,
        *,
        ip_address: str = "",
        cpu_cores: int = 2,
        memory_mb: int = 4096,
        os_user_name: str = "root",
    ) -> None:
        self.hostname = hostname
        self.os = os
        # crc32, not hash(): str hashes change with PYTHONHASHSEED, and
        # the address is persisted by save_world.
        self.ip_address = ip_address or (
            f"10.0.0.{zlib.crc32(hostname.encode('utf-8')) % 250 + 1}"
        )
        self.cpu_cores = cpu_cores
        self.memory_mb = memory_mb
        self.os_user_name = os_user_name
        self.fs = VirtualFilesystem()
        self.network = network
        self.clock = clock
        self._processes: dict[int, SimProcess] = {}
        self._next_pid = 100
        for base_dir in ("/etc", "/opt", "/tmp", "/usr/local", "/var/log"):
            self.fs.mkdir(base_dir)
        network.register_machine(self)

    # -- Facts (the provisioning tools of S5.2) ---------------------------

    def facts(self) -> dict[str, object]:
        return {
            "hostname": self.hostname,
            "ip_address": self.ip_address,
            "os_name": self.os.name,
            "os_version": self.os.version,
            "arch": self.os.arch,
            "cpu_cores": self.cpu_cores,
            "memory_mb": self.memory_mb,
            "os_user_name": self.os_user_name,
        }

    # -- Processes ----------------------------------------------------------

    def spawn_process(
        self,
        name: str,
        command: str = "",
        listen_ports: Sequence[int] = (),
        instance_id: str = "",
    ) -> SimProcess:
        """Start a daemon; binds its listen ports on the network."""
        for port in listen_ports:
            if not self.network.is_port_free(self.hostname, port):
                raise SimulationError(
                    f"{self.hostname}: port {port} already in use"
                )
        pid = self._next_pid
        self._next_pid += 1
        process = SimProcess(
            pid=pid,
            name=name,
            command=command or name,
            listen_ports=tuple(listen_ports),
            started_at=self.clock.now,
            instance_id=instance_id,
        )
        self._processes[pid] = process
        for port in listen_ports:
            self.network.bind(self.hostname, port, process)
        return process

    def kill_process(self, pid: int) -> None:
        """Stop a process and drop it from the table: the world keeps
        what runs (or crashed), the journal keeps what stopped."""
        process = self._processes.pop(pid, None)
        if process is None:
            raise SimulationError(f"{self.hostname}: no process {pid}")
        process.stop()
        for port in process.listen_ports:
            self.network.unbind(self.hostname, port)

    def process(self, pid: int) -> SimProcess:
        try:
            return self._processes[pid]
        except KeyError:
            raise SimulationError(f"{self.hostname}: no process {pid}") from None

    def processes(self) -> list[SimProcess]:
        return [self._processes[pid] for pid in sorted(self._processes)]

    def running_processes(self) -> list[SimProcess]:
        return [p for p in self.processes() if p.is_running()]

    def find_process(self, name: str) -> Optional[SimProcess]:
        """The most recent process with the given name, if any."""
        matches = [p for p in self.processes() if p.name == name]
        return matches[-1] if matches else None

    # -- Snapshot / restore (upgrade backups) --------------------------------

    def snapshot(self) -> dict:
        return {"fs": self.fs.snapshot(), "next_pid": self._next_pid}

    def restore(self, snapshot: dict) -> None:
        """Restore filesystem state; all processes are stopped first (a
        restore models re-imaging the service tree, then the deployment
        engine restarts services)."""
        for process in self.running_processes():
            self.kill_process(process.pid)
        self.fs.restore(snapshot["fs"])
        self._processes = {}
        self._next_pid = snapshot["next_pid"]

    def __str__(self) -> str:
        return f"{self.hostname} [{self.os}]"
