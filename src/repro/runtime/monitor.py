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

Like monit, the watch pays for what changed, not for the fleet: a
system's :class:`DriftIndex` remembers what each spec machine looked
like at the last check and looks again only at machines whose
generation (:attr:`repro.sim.machine.Machine.generation`) has moved.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple

from repro.core.errors import DeploymentError
from repro.core.instances import PartialInstallSpec, PartialInstance
from repro.core.keys import ResourceKey
from repro.core.registry import ResourceTypeRegistry
from repro.drivers.library import ServiceDriver
from repro.runtime.deploy import DeployedSystem
from repro.sim.machine import Machine

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
        system = self._system
        network = system.infrastructure.network
        on_network = [
            instance.id for instance in system.spec.machines()
            if network.has_machine(system.machines[instance.id].hostname)
        ]
        seen = drift_index(system).refresh(system, on_network)
        return sorted(chain.from_iterable(entry.crashed for entry in seen))


class Seen(NamedTuple):
    """What one spec machine's instances looked like at a drift check."""

    #: The machines whose generation covers what was read: each
    #: instance's driver's machine and each service's process's machine
    #: (one machine, unless a delta or a repair left a driver elsewhere).
    machines: tuple[Machine, ...]
    generations: tuple[int, ...]
    #: Watched services whose process had died, in id order.
    crashed: tuple[str, ...]
    #: Instances whose driver was not at the index's target, in spec
    #: order.
    off_target: tuple[str, ...]

    def is_current(self) -> bool:
        return all(
            machine.generation == generation
            for machine, generation in zip(self.machines, self.generations)
        )


class DriftIndex:
    """Per spec machine, what a system's drift checks last saw there,
    toward one target state.

    Built lazily by :func:`drift_index` and kept on the system: a check
    re-reads only the machines whose :class:`Seen` entry is no longer
    current, so a quiescent re-check reads no instance at all.  A
    generation moves with every process-table change, process failure
    and driver-state write on its machine, and a repair that re-aims a
    driver at a replacement host bumps the lost machine first.
    """

    def __init__(self, target: str) -> None:
        self.target = target
        self.seen: dict[str, Seen] = {}
        #: Instances the last :meth:`refresh` read.
        self.examined = 0

    def refresh(
        self, system: DeployedSystem, machine_ids: Iterable[str]
    ) -> list[Seen]:
        """The current entries of ``machine_ids``, in that order,
        re-reading those whose machines moved."""
        seen = self.seen
        entries: list[Seen] = []
        self.examined = 0
        for machine_id in machine_ids:
            entry = seen.get(machine_id)
            if entry is None or not entry.is_current():
                entry = seen[machine_id] = self._read(system, machine_id)
            entries.append(entry)
        return entries

    def _read(self, system: DeployedSystem, machine_id: str) -> Seen:
        drivers = system.drivers
        target = self.target
        machines: dict[int, Machine] = {}
        crashed: list[str] = []
        off_target: list[str] = []
        instances = system.spec.instances_on_machine(machine_id)
        for instance in instances:
            driver = drivers[instance.id]
            machine = driver.context.machine
            machines.setdefault(id(machine), machine)
            if driver.state != target:
                off_target.append(instance.id)
            if isinstance(driver, ServiceDriver):
                process = driver.process
                if process is None:
                    continue
                if process.machine is not None:
                    machines.setdefault(id(process.machine), process.machine)
                if not process.is_running():
                    crashed.append(instance.id)
        self.examined += len(instances)
        watched = tuple(machines.values())
        return Seen(
            watched,
            tuple(machine.generation for machine in watched),
            tuple(sorted(crashed)),
            tuple(off_target),
        )

    def carried_over(self, touched: set[str]) -> "DriftIndex":
        """The entries of every machine but ``touched``, for the system
        a delta transition builds: an untouched machine keeps its
        instances and their drivers, so what was seen there still holds
        while its generations stand."""
        index = DriftIndex(self.target)
        index.seen = {
            machine_id: entry for machine_id, entry in self.seen.items()
            if machine_id not in touched
        }
        return index


def drift_index(system: DeployedSystem) -> DriftIndex:
    """``system``'s drift index toward its journal's target, started
    afresh when the system has none or the target changed."""
    index = system.drift
    target = system.journal.target
    if index is None or index.target != target:
        index = system.drift = DriftIndex(target)
    return index
