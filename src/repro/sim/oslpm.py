"""A simulated OS-level package manager (dpkg/RPM/apt stand-in).

The paper positions Engage as *complementary* to OSLPMs: "a driver for a
resource can use an OSLPM to install the required packages on a machine".
This module is that building block: per-machine package records, install
with prerequisite checking, file payload unpacked into the machine's
filesystem, and removal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.errors import SimulationError
from repro.sim.machine import Machine
from repro.sim.package_index import DownloadService, PackageArtifact

#: Simulated seconds of unpack/install work per megabyte of artifact.
INSTALL_SECONDS_PER_MB = 0.35


@dataclass
class InstalledPackage:
    name: str
    version: str
    install_root: str
    files: list[str] = field(default_factory=list)
    #: Which installers (instance ids) currently depend on this package.
    #: Two replicas on one machine share one package record;
    #: uninstalling one replica must not delete the files the other
    #: still runs from.  Membership (not a count) keeps repeat installs
    #: by the same owner idempotent, which restore-then-redeploy relies
    #: on.
    owners: set[str] = field(default_factory=set)


class OsPackageManager:
    """The package database of one machine."""

    def __init__(self, machine: Machine, downloads: DownloadService) -> None:
        self._machine = machine
        self._downloads = downloads
        self._installed: dict[str, InstalledPackage] = {}

    def is_installed(self, name: str, version: Optional[str] = None) -> bool:
        record = self._installed.get(name)
        if record is None:
            return False
        return version is None or record.version == version

    def install(
        self,
        name: str,
        version: str,
        *,
        prerequisites: Sequence[str] = (),
        install_root: str = "/opt",
        owner: Optional[str] = None,
    ) -> InstalledPackage:
        """Download and unpack a package onto the machine.

        ``prerequisites`` are package names that must already be installed
        on this machine -- the OSLPM-level dependency check.  ``owner``
        names the installer (drivers pass their instance id): the record
        tracks every distinct owner, and only losing the last one removes
        the files.  Repeat installs by the same owner are no-ops.
        """
        for prerequisite in prerequisites:
            if not self.is_installed(prerequisite):
                raise SimulationError(
                    f"{self._machine.hostname}: package {name} requires "
                    f"{prerequisite} which is not installed"
                )
        plan = getattr(self._downloads, "fault_plan", None)
        if plan is not None:
            # Before any side effect: a faulted install is a clean no-op
            # (the flaky-mirror failure mode), so a retry starts fresh.
            plan.fire(
                f"oslpm:{self._machine.hostname}:install:{name}",
                self._machine.clock,
            )
        token = owner if owner is not None else name
        existing = self._installed.get(name)
        if existing is not None:
            if existing.version == version:
                # Shared install: the files are already on disk, so the
                # re-install only registers another owner of the record.
                existing.owners.add(token)
                return existing
            raise SimulationError(
                f"{self._machine.hostname}: {name} {existing.version} is "
                f"installed; remove it before installing {version}"
            )
        artifact = self._downloads.fetch(name, version)
        record = self._unpack(artifact, install_root)
        record.owners.add(token)
        self._installed[name] = record
        return record

    def _unpack(
        self, artifact: PackageArtifact, install_root: str
    ) -> InstalledPackage:
        install_seconds = (
            artifact.size_bytes / 1_000_000.0 * INSTALL_SECONDS_PER_MB
        )
        self._machine.clock.advance(install_seconds)
        record = InstalledPackage(
            artifact.name, artifact.version, install_root
        )
        base = f"{install_root}/{artifact.name}-{artifact.version}"
        self._machine.fs.mkdir(base)
        for relative_path, content in artifact.files:
            path = f"{base}/{relative_path}"
            self._machine.fs.write_file(path, content)
            record.files.append(path)
        manifest = f"{base}/.manifest"
        self._machine.fs.write_file(
            manifest, f"{artifact.name} {artifact.version}\n"
        )
        record.files.append(manifest)
        return record

    def remove(self, name: str, *, owner: Optional[str] = None) -> None:
        """Withdraw ``owner``'s claim on ``name``; delete the files when
        the last owner is gone.  Without ``owner`` the package is
        removed outright (the operator's ``dpkg -r``)."""
        record = self._installed.get(name)
        if record is None:
            raise SimulationError(
                f"{self._machine.hostname}: package {name} is not installed"
            )
        if owner is not None:
            record.owners.discard(owner)
            if record.owners:
                return  # other installers still depend on the files
        del self._installed[name]
        base = f"{record.install_root}/{record.name}-{record.version}"
        if self._machine.fs.exists(base):
            self._machine.fs.remove(base)

    def installed(self) -> list[InstalledPackage]:
        return [self._installed[name] for name in sorted(self._installed)]

    def snapshot(self) -> dict:
        """Copy of the package database (pairs with machine snapshots so
        upgrade rollbacks restore both filesystem and package records)."""
        return {
            name: InstalledPackage(
                record.name,
                record.version,
                record.install_root,
                list(record.files),
                set(record.owners),
            )
            for name, record in self._installed.items()
        }

    def restore(self, snapshot: dict) -> None:
        self._installed = {
            name: InstalledPackage(
                record.name,
                record.version,
                record.install_root,
                list(record.files),
                set(record.owners),
            )
            for name, record in snapshot.items()
        }

    def install_path(self, name: str) -> str:
        record = self._installed.get(name)
        if record is None:
            raise SimulationError(
                f"{self._machine.hostname}: package {name} is not installed"
            )
        return f"{record.install_root}/{record.name}-{record.version}"
