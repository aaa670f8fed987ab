"""A simulated TCP network connecting simulated machines.

Services bind ``(hostname, port)`` endpoints; clients ``connect`` to
them.  A connection succeeds only if the listening process is currently
running -- this is precisely how the paper's startup-ordering hazard
("if a component is started without first ensuring that all of its
dependencies have completed their startup, it might intermittently fail
due to connection errors") becomes observable in the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.errors import SimulationError
from repro.sim.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


class ConnectionRefused(SimulationError):
    """No running listener at the requested endpoint."""


@dataclass
class Endpoint:
    hostname: str
    port: int
    process: SimProcess

    def __str__(self) -> str:
        return f"{self.hostname}:{self.port} -> {self.process.name}"


class Network:
    """The global endpoint table plus hostname -> machine registry."""

    def __init__(self) -> None:
        self._machines: dict[str, "Machine"] = {}
        self._endpoints: dict[tuple[str, int], Endpoint] = {}
        #: The ports bound on each host, so a host leaves in the time
        #: of its own endpoints.
        self._ports: dict[str, set[int]] = {}
        self.connections_attempted = 0
        self.connections_refused = 0

    # -- Machines -----------------------------------------------------------

    def register_machine(self, machine: "Machine") -> None:
        if machine.hostname in self._machines:
            raise SimulationError(f"hostname already on network: {machine.hostname}")
        self._machines[machine.hostname] = machine

    def unregister_machine(self, hostname: str) -> None:
        machine = self._machines.pop(hostname, None)
        if machine is None:
            raise SimulationError(f"unknown hostname: {hostname}")
        for port in self._ports.pop(hostname, ()):
            del self._endpoints[(hostname, port)]

    def machine(self, hostname: str) -> "Machine":
        try:
            return self._machines[hostname]
        except KeyError:
            raise SimulationError(f"unknown hostname: {hostname}") from None

    def has_machine(self, hostname: str) -> bool:
        return hostname in self._machines

    def machines(self) -> list["Machine"]:
        return [self._machines[h] for h in sorted(self._machines)]

    # -- Endpoints ---------------------------------------------------------

    def bind(self, hostname: str, port: int, process: SimProcess) -> None:
        key = (hostname, port)
        existing = self._endpoints.get(key)
        if existing is not None and existing.process.is_running():
            raise SimulationError(
                f"port {port} on {hostname} already bound by "
                f"{existing.process.name}"
            )
        self._endpoints[key] = Endpoint(hostname, port, process)
        self._ports.setdefault(hostname, set()).add(port)

    def unbind(self, hostname: str, port: int) -> None:
        if self._endpoints.pop((hostname, port), None) is not None:
            self._ports[hostname].discard(port)

    def is_port_free(self, hostname: str, port: int) -> bool:
        endpoint = self._endpoints.get((hostname, port))
        return endpoint is None or not endpoint.process.is_running()

    def connect(self, hostname: str, port: int) -> SimProcess:
        """Open a connection; raises :class:`ConnectionRefused` unless a
        running process listens at the endpoint."""
        self.connections_attempted += 1
        endpoint = self._endpoints.get((hostname, port))
        if endpoint is None or not endpoint.process.is_running():
            self.connections_refused += 1
            raise ConnectionRefused(
                f"connection refused: {hostname}:{port}"
                + (f" (process {endpoint.process.name} is "
                   f"{endpoint.process.state.value})" if endpoint else "")
            )
        return endpoint.process

    def can_connect(self, hostname: str, port: int) -> bool:
        try:
            self.connect(hostname, port)
            return True
        except ConnectionRefused:
            return False

    def endpoints(self) -> list[Endpoint]:
        return [self._endpoints[k] for k in sorted(self._endpoints)]
