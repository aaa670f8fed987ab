"""Simulated cloud providers (the libcloud/Rackspace/AWS substitute).

"If a machine resource instance in the partial installation specification
does not include configuration details, and Engage is being run in a
cloud environment, a new virtual server is provisioned to perform the
role of that machine in the deployment" (S5.2).  A provider owns a set of
images (OS identities) and stamps out :class:`Machine` objects with
generated hostnames, charging simulated provisioning latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ProvisioningError
from repro.sim.clock import SimClock
from repro.sim.machine import Machine, OsIdentity
from repro.sim.network import Network


@dataclass(frozen=True)
class MachineImage:
    """A provisionable OS image with a size profile."""

    image_id: str
    os: OsIdentity
    cpu_cores: int = 2
    memory_mb: int = 4096


class CloudProvider:
    """One simulated IaaS region."""

    def __init__(
        self,
        name: str,
        network: Network,
        clock: SimClock,
        *,
        provision_seconds: float = 55.0,
    ) -> None:
        self.name = name
        self._network = network
        self._clock = clock
        self._provision_seconds = provision_seconds
        self._images: dict[str, MachineImage] = {}
        self._nodes: dict[str, Machine] = {}
        self._serial = 0

    # -- Images -----------------------------------------------------------

    def register_image(self, image: MachineImage) -> None:
        if image.image_id in self._images:
            raise ProvisioningError(f"duplicate image id: {image.image_id}")
        self._images[image.image_id] = image

    def images(self) -> list[MachineImage]:
        return [self._images[i] for i in sorted(self._images)]

    def find_image(self, os_name: str, os_version: str) -> MachineImage:
        for image in self.images():
            if image.os.name == os_name and image.os.version == os_version:
                return image
        raise ProvisioningError(
            f"{self.name}: no image for {os_name} {os_version}"
        )

    # -- Nodes -----------------------------------------------------------

    def provision(self, image_id: str) -> Machine:
        """Create a virtual server from an image (costs simulated time)."""
        image = self._images.get(image_id)
        if image is None:
            raise ProvisioningError(f"{self.name}: unknown image {image_id!r}")
        self._serial += 1
        hostname = f"{self.name}-node-{self._serial:03d}"
        if self._network.has_machine(hostname):
            raise ProvisioningError(f"hostname taken: {hostname}")
        self._clock.advance(self._provision_seconds)
        machine = Machine(
            hostname,
            image.os,
            self._network,
            self._clock,
            cpu_cores=image.cpu_cores,
            memory_mb=image.memory_mb,
        )
        self._nodes[hostname] = machine
        return machine

    def nodes(self) -> list[Machine]:
        return [self._nodes[h] for h in sorted(self._nodes)]

    def __str__(self) -> str:
        return f"CloudProvider({self.name}, {len(self._nodes)} nodes)"


def standard_images() -> list[MachineImage]:
    """The image catalogue used by the case studies: the four OS choices
    of the Django experiments plus Windows for OpenMRS discussions."""
    return [
        MachineImage("mac-osx-10.5", OsIdentity("mac-osx", "10.5")),
        MachineImage("mac-osx-10.6", OsIdentity("mac-osx", "10.6")),
        MachineImage("ubuntu-10.04", OsIdentity("ubuntu-linux", "10.04")),
        MachineImage("ubuntu-10.10", OsIdentity("ubuntu-linux", "10.10")),
        MachineImage("windows-xp", OsIdentity("windows", "5.1")),
    ]
