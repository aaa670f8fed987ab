"""Monitoring integration (S5.2): the monit plugin.

"The runtime includes a plugin framework for the automatic integration
with monitoring and management tools. ... The runtime system adds an
instance of monit to the installation specification for each target
host. ... After the deployment completes, the resource type is used by
the plugin to generate a monit configuration file registered with monit.
... If the process associated with a service fails, it will be
automatically restarted by monit."

:func:`add_monitoring` is the spec-injection half; :class:`ProcessMonitor`
is the watch half.  The restart itself is a reconcile round
(:class:`~repro.runtime.reconcile.ReconcileController`): a crashed
service is drift, repaired through its driver's guarded ``restart``
transition in dependency order and journalled like every other action.
"""

from __future__ import annotations

from repro.core.errors import DeploymentError
from repro.core.instances import PartialInstallSpec, PartialInstance
from repro.core.keys import ResourceKey
from repro.core.registry import ResourceTypeRegistry
from repro.drivers.library import ServiceDriver
from repro.runtime.deploy import DeployedSystem

#: The resource key the monitoring plugin injects.
MONIT_KEY = ResourceKey.parse("Monit 5.3")


def add_monitoring(
    registry: ResourceTypeRegistry, partial: PartialInstallSpec
) -> PartialInstallSpec:
    """Inject a monit instance for every machine in the partial spec.

    Idempotent: machines that already contain a Monit instance are left
    alone, so augmenting an already-augmented spec changes nothing.  A
    non-Monit instance occupying the ``monit_<machine>`` id is a hard
    error -- silently adding a second instance under a colliding id
    would corrupt the spec.
    """
    augmented = PartialInstallSpec()
    machine_ids: list[str] = []
    taken_ids: set[str] = set()
    monitored_machines: set[str] = set()
    for instance in partial:
        augmented.add(instance)
        taken_ids.add(instance.id)
        if registry.effective(instance.key).is_machine():
            machine_ids.append(instance.id)
        elif instance.key.name == MONIT_KEY.name and instance.inside_id:
            monitored_machines.add(instance.inside_id)
    for machine_id in machine_ids:
        if machine_id in monitored_machines:
            continue
        monit_id = f"monit_{machine_id}"
        if monit_id in taken_ids:
            raise DeploymentError(
                f"cannot inject monitoring for machine {machine_id!r}: "
                f"instance id {monit_id!r} is already taken by a "
                "non-Monit instance"
            )
        augmented.add(
            PartialInstance(
                id=monit_id,
                key=MONIT_KEY,
                inside_id=machine_id,
            )
        )
    return augmented


class ProcessMonitor:
    """The monit substitute: knows which services to watch and which of
    them have died.

    After deployment, call :meth:`generate_config` once (writes the monit
    control file from resource metadata); :func:`detect_drift
    <repro.runtime.reconcile.detect_drift>` reads
    :meth:`crashed_services` every reconcile round.
    """

    def __init__(self, system: DeployedSystem) -> None:
        self._system = system

    def watched_services(self) -> list[str]:
        """Instance ids whose drivers manage a process, in id order
        (:meth:`DeployedSystem.service_ids`)."""
        return self._system.service_ids()

    def generate_config(self) -> dict[str, str]:
        """Write /etc/monitrc on every machine; returns path -> content."""
        sections: dict[str, list[str]] = {}
        for instance_id in self.watched_services():
            driver = self._system.driver(instance_id)
            assert isinstance(driver, ServiceDriver)
            machine = self._system.machine_for(instance_id)
            lines = sections.setdefault(machine.hostname, [])
            ports = ", ".join(str(p) for p in driver.listen_ports())
            lines.append(
                f"check process {driver.service_name()} "
                f"# instance={instance_id} ports=[{ports}]"
            )
        written: dict[str, str] = {}
        for hostname, lines in sections.items():
            machine = self._system.infrastructure.network.machine(hostname)
            content = "\n".join(["# generated by Engage"] + sorted(lines)) + "\n"
            machine.fs.write_file("/etc/monitrc", content)
            written[f"{hostname}:/etc/monitrc"] = content
        return written

    def crashed_services(self) -> list[str]:
        """Watched services whose process has died, in id order.

        Services on machines that have dropped off the network are
        excluded: a lost machine is machine-level drift, repaired by
        redeployment, not by restarting processes on a ghost host."""
        network = self._system.infrastructure.network
        drivers = self._system.drivers
        crashed: list[str] = []
        for instance_id in self.watched_services():
            process = drivers[instance_id].process
            if process is None or process.is_running():
                continue
            machine = self._system.machine_for(instance_id)
            if not network.has_machine(machine.hostname):
                continue
            crashed.append(instance_id)
        return crashed
