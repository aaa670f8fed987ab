"""Simulated processes (services and daemons).

Long-running components -- Tomcat, MySQL, gunicorn -- become
:class:`SimProcess` objects.  A process can *fail*, which is what the
monitoring experiment injects; reconcile notices and restarts its
service through the driver's ``restart`` transition, which stops the
dead process and spawns a new one.  Either change bumps the generation
of the machine the process runs on, which is how drift detection
learns that the machine needs another look.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.sim.machine import Machine


class ProcessState(Enum):
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass
class SimProcess:
    """A process on a simulated machine."""

    pid: int
    name: str
    command: str
    listen_ports: tuple[int, ...] = ()
    state: ProcessState = ProcessState.RUNNING
    started_at: float = 0.0
    #: The resource instance that spawned this process, when known, so
    #: injected faults can be correlated back to spec instances.
    instance_id: str = ""
    #: The machine whose process table holds this process.
    machine: Optional["Machine"] = field(
        default=None, repr=False, compare=False
    )

    def is_running(self) -> bool:
        return self.state == ProcessState.RUNNING

    def fail(self) -> None:
        """Simulate a crash (used for monitor/restart experiments)."""
        if self.state == ProcessState.RUNNING:
            self.state = ProcessState.FAILED
            self._changed()

    def stop(self) -> None:
        self.state = ProcessState.STOPPED
        self._changed()

    def _changed(self) -> None:
        if self.machine is not None:
            self.machine.generation += 1

    def __str__(self) -> str:
        ports = ",".join(str(p) for p in self.listen_ports)
        return f"[{self.pid}] {self.name} ({self.state.value}) ports={ports}"
