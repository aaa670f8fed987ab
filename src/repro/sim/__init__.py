"""The simulated infrastructure substrate: machines, processes, network,
package repository, OS-level package manager, and cloud providers.

The paper deployed onto real servers and Rackspace/AWS; this package is
the behaviour-preserving substitute (see DESIGN.md S3): services refuse
TCP connections until started, downloads cost simulated time, and cache
hits are cheap -- so ordering bugs and the cached-vs-internet experiment
are observable."""

from repro.sim.clock import ClockSpan, SimClock
from repro.sim.faults import (
    FaultKind,
    FaultPlan,
    FaultRecord,
    FaultRule,
    InjectedFault,
    MachineChurn,
    lose_machine,
)
from repro.sim.cloud import CloudProvider, MachineImage, standard_images
from repro.sim.filesystem import VirtualFilesystem
from repro.sim.infrastructure import Infrastructure
from repro.sim.machine import Machine, OsIdentity
from repro.sim.network import ConnectionRefused, Endpoint, Network
from repro.sim.oslpm import InstalledPackage, OsPackageManager
from repro.sim.persistence import (
    WORLD_FORMAT,
    load_world,
    save_world,
    world_document,
    world_from_payload,
)
from repro.sim.package_index import (
    DownloadService,
    PackageArtifact,
    PackageIndex,
)
from repro.sim.process import ProcessState, SimProcess

__all__ = [
    "ClockSpan",
    "SimClock",
    "CloudProvider",
    "MachineImage",
    "standard_images",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "FaultRule",
    "InjectedFault",
    "MachineChurn",
    "lose_machine",
    "VirtualFilesystem",
    "Infrastructure",
    "Machine",
    "OsIdentity",
    "ConnectionRefused",
    "Endpoint",
    "Network",
    "InstalledPackage",
    "OsPackageManager",
    "DownloadService",
    "PackageArtifact",
    "PackageIndex",
    "ProcessState",
    "SimProcess",
    "WORLD_FORMAT",
    "load_world",
    "save_world",
    "world_document",
    "world_from_payload",
]
