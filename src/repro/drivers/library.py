"""Generic, reusable drivers.

The paper notes that automating the Jasper JDBC connector needed "no
additional Python code ... as we were able to reuse existing generic
driver code for downloading and extracting archives".  These are those
generic drivers; the resource library subclasses them where a component
needs more than the generic behaviour.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from repro.core.errors import DriverError
from repro.drivers.base import DriverContext, ResourceDriver
from repro.drivers.state_machine import (
    StateMachineSpec,
    machine_state_machine,
    package_state_machine,
    service_state_machine,
)
from repro.sim.network import ConnectionRefused
from repro.sim.process import SimProcess


def package_slug(name: str) -> str:
    """Canonical artifact name for a resource-type name."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


class NullDriver(ResourceDriver):
    """All actions are bookkeeping no-ops."""

    action_seconds = {
        "install": 0.0,
        "start": 0.0,
        "stop": 0.0,
        "restart": 0.0,
        "uninstall": 0.0,
    }

    def state_machine(self) -> StateMachineSpec:
        return package_state_machine()


class MachineDriver(ResourceDriver):
    """A machine: provisioning happened before deployment, so lifecycle
    actions only track state."""

    action_seconds = {
        "install": 0.0,
        "start": 0.0,
        "stop": 0.0,
        "uninstall": 0.0,
    }

    def state_machine(self) -> StateMachineSpec:
        return machine_state_machine()


class PackageDriver(ResourceDriver):
    """Installs an OS-level package via the machine's package manager.

    The artifact name defaults to the slug of the resource-type name and
    the version to the key's version; subclasses may override
    :attr:`package_name`.  Passive: no daemon is spawned.
    """

    package_name: Optional[str] = None
    install_root = "/opt"
    #: Artifact names that must be installed first (OSLPM-level deps).
    os_prerequisites: Sequence[str] = ()

    action_seconds = {
        "install": 2.0,  # plus download/unpack time charged by the OSLPM
        "start": 0.0,
        "stop": 0.0,
        "uninstall": 2.0,
    }

    def state_machine(self) -> StateMachineSpec:
        return package_state_machine()

    def artifact(self) -> tuple[str, str]:
        name = self.package_name or package_slug(self.context.instance.key.name)
        version = str(self.context.instance.key.version)
        return name, version

    def do_install(self) -> None:
        name, version = self.artifact()
        self.context.package_manager.install(
            name,
            version,
            prerequisites=self.os_prerequisites,
            install_root=self.install_root,
            owner=self.context.instance.id,
        )

    def do_uninstall(self) -> None:
        name, _ = self.artifact()
        if self.context.package_manager.is_installed(name):
            self.context.package_manager.remove(
                name, owner=self.context.instance.id
            )

    def install_path(self) -> str:
        name, _ = self.artifact()
        return self.context.package_manager.install_path(name)


class ArchiveDriver(PackageDriver):
    """Download-and-extract only (e.g. the MySQL JDBC connector)."""


class ServiceDriver(PackageDriver):
    """A long-running daemon: package install plus process management.

    On ``start`` the driver first *connects to its upstream endpoints* --
    the TCP addresses named in :meth:`upstream_endpoints` -- exactly the
    intermittent failure mode the paper warns about when dependencies
    have not completed startup.  A refused connection raises
    :class:`DriverError`, so a runtime that ignores guards fails loudly.
    """

    action_seconds = {
        "install": 5.0,
        "start": 5.0,
        "stop": 2.0,
        "restart": 7.0,
        "uninstall": 4.0,
    }

    def __init__(self, context: DriverContext) -> None:
        super().__init__(context)
        self._process: Optional[SimProcess] = None

    def state_machine(self) -> StateMachineSpec:
        return service_state_machine()  # Figure 3, including restart

    # -- Overridables ------------------------------------------------------

    def service_name(self) -> str:
        return self.context.instance.id

    def listen_ports(self) -> Sequence[int]:
        """TCP ports the daemon binds.  Default: the ``port`` config."""
        port = self.context.config("port")
        return [port] if isinstance(port, int) else []

    def upstream_endpoints(self) -> Sequence[tuple[str, int]]:
        """(hostname, port) pairs that must accept connections before this
        service can start.  Default: none."""
        return []

    def write_config_files(self) -> None:
        """Hook: materialise configuration files during install."""

    # -- Actions ----------------------------------------------------------

    def do_install(self) -> None:
        super().do_install()
        self.write_config_files()

    def do_start(self) -> None:
        for hostname, port in self.upstream_endpoints():
            try:
                self.context.infrastructure.network.connect(hostname, port)
            except ConnectionRefused as exc:
                raise DriverError(
                    f"{self.context.instance.id}: dependency not reachable "
                    f"during startup: {exc}"
                ) from exc
        self._process = self.context.machine.spawn_process(
            self.service_name(),
            command=f"{self.service_name()} --daemon",
            listen_ports=self.listen_ports(),
            instance_id=self.context.instance.id,
        )

    def do_stop(self) -> None:
        if self._process is not None:
            self.context.machine.kill_process(self._process.pid)
            self._process = None

    def do_restart(self) -> None:
        self.do_stop()
        self.do_start()

    def do_uninstall(self) -> None:
        self.do_stop()
        super().do_uninstall()

    @property
    def process(self) -> Optional[SimProcess]:
        return self._process

    def adopt_process(self, process: SimProcess) -> None:
        """Take ownership of a replacement process (used by the monitor
        after it restarts a failed service)."""
        self._process = process

    def discard_process(self) -> None:
        """Forget the managed process without stopping it.

        Used when the machine hosting it is gone (permanent loss):
        there is nothing left to stop, and a later redeploy must not
        try to kill a pid on a dead host."""
        self._process = None
