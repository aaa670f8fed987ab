"""The assembled simulation world.

An :class:`Infrastructure` bundles the shared clock, network, package
index, download service, cloud providers, and per-machine package
managers -- everything resource drivers touch.  Tests and benchmarks
create one per scenario.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.cloud import CloudProvider, MachineImage, standard_images
from repro.sim.machine import Machine, OsIdentity
from repro.sim.network import Network
from repro.sim.oslpm import OsPackageManager
from repro.sim.package_index import DownloadService, PackageIndex


class Infrastructure:
    """One simulated world: clock + network + packages + clouds."""

    def __init__(self, *, use_cache: bool = True) -> None:
        self.clock = SimClock()
        self.network = Network()
        self.package_index = PackageIndex()
        self.downloads = DownloadService(
            self.package_index, self.clock, use_cache=use_cache
        )
        self.fault_plan = None
        #: Optional :class:`~repro.obs.tracer.Tracer`.  ``None`` (the
        #: default) keeps every emitting site on its untraced fast path.
        self.tracer = None
        self._providers: dict[str, CloudProvider] = {}
        self._oslpm: dict[str, OsPackageManager] = {}

    def set_fault_plan(self, plan) -> None:
        """Install (or, with ``None``, remove) a
        :class:`~repro.sim.faults.FaultPlan`.  Driver actions and
        machine-level operations consult it before running."""
        self.fault_plan = plan
        self.downloads.fault_plan = plan
        if plan is not None:
            plan.tracer = self.tracer

    def set_tracer(self, tracer) -> None:
        """Install (or, with ``None``, remove) a
        :class:`~repro.obs.tracer.Tracer`.  The engine, scheduler,
        reconcile loop, coordinator, and any installed fault plan emit
        structured events through it."""
        self.tracer = tracer
        if self.fault_plan is not None:
            self.fault_plan.tracer = tracer

    # -- Machines ----------------------------------------------------------

    def add_machine(
        self,
        hostname: str,
        os_name: str = "ubuntu-linux",
        os_version: str = "10.04",
        **kwargs,
    ) -> Machine:
        """Create a pre-existing (non-cloud) machine."""
        machine = Machine(
            hostname,
            OsIdentity(os_name, os_version),
            self.network,
            self.clock,
            **kwargs,
        )
        return machine

    def machine(self, hostname: str) -> Machine:
        return self.network.machine(hostname)

    def remove_machine(self, hostname: str) -> Machine:
        """Permanently lose a machine: drop it (and its endpoints) from
        the network and forget its memoised package manager.

        Forgetting the package manager matters for repair: a later
        replacement machine under the same hostname must get a *fresh*
        OSLPM bound to the new filesystem, not the dead machine's.
        Returns the removed machine (its object stays inspectable)."""
        machine = self.network.machine(hostname)
        self.network.unregister_machine(hostname)
        self._oslpm.pop(hostname, None)
        return machine

    def package_manager(self, machine: Machine) -> OsPackageManager:
        """The (memoised) package manager of a machine."""
        manager = self._oslpm.get(machine.hostname)
        if manager is None:
            manager = OsPackageManager(machine, self.downloads)
            self._oslpm[machine.hostname] = manager
        return manager

    # -- Cloud providers -------------------------------------------------------

    def add_provider(
        self, name: str, *, provision_seconds: float = 55.0
    ) -> CloudProvider:
        if name in self._providers:
            raise SimulationError(f"provider already added: {name}")
        provider = CloudProvider(
            name, self.network, self.clock, provision_seconds=provision_seconds
        )
        for image in standard_images():
            provider.register_image(image)
        self._providers[name] = provider
        return provider

    def provider(self, name: str) -> CloudProvider:
        try:
            return self._providers[name]
        except KeyError:
            raise SimulationError(f"unknown provider: {name}") from None

    def providers(self) -> list[CloudProvider]:
        return [self._providers[n] for n in sorted(self._providers)]

    def default_provider(self) -> Optional[CloudProvider]:
        providers = self.providers()
        return providers[0] if providers else None
