"""A simulated package repository with download latency and a local cache.

Reproduces the substrate behind experiment E4: "Running the automated
install of Jasper Reports Server takes 17 minutes if the required
software packages are downloaded from the internet and 5 minutes if they
are obtained from a local file cache."  Downloads advance the simulated
clock by a per-request latency plus size/bandwidth; cache hits use a much
faster local bandwidth and no request latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import SimulationError
from repro.sim.clock import SimClock

#: Default link speeds, chosen so realistic package sizes give
#: minutes-scale installs like the paper's (E4: ~17 min internet vs
#: ~5 min cached for the Jasper stack).
INTERNET_BANDWIDTH_BPS = 1_000_000.0  # ~1 MB/s WAN (2011-era broadband)
CACHE_BANDWIDTH_BPS = 60_000_000.0  # ~60 MB/s local disk
INTERNET_LATENCY_S = 2.0  # per-request setup cost


@dataclass(frozen=True)
class PackageArtifact:
    """One downloadable artifact: an archive, installer, or tarball."""

    name: str
    version: str
    size_bytes: int
    files: tuple[tuple[str, str], ...] = ()  # relative path -> content

    def key(self) -> tuple[str, str]:
        return (self.name, self.version)

    def __str__(self) -> str:
        return f"{self.name}-{self.version} ({self.size_bytes} bytes)"


class PackageIndex:
    """The remote package universe (PyPI + vendor download sites)."""

    def __init__(self) -> None:
        self._artifacts: dict[tuple[str, str], PackageArtifact] = {}

    def publish(self, artifact: PackageArtifact) -> None:
        if artifact.key() in self._artifacts:
            raise SimulationError(f"artifact already published: {artifact}")
        self._artifacts[artifact.key()] = artifact

    def publish_simple(
        self, name: str, version: str, size_bytes: int
    ) -> PackageArtifact:
        """Publish an artifact with a single placeholder payload file."""
        artifact = PackageArtifact(
            name,
            version,
            size_bytes,
            ((f"{name}/VERSION", version),),
        )
        self.publish(artifact)
        return artifact

    def lookup(self, name: str, version: str) -> PackageArtifact:
        try:
            return self._artifacts[(name, version)]
        except KeyError:
            raise SimulationError(
                f"no artifact {name}-{version} in the index"
            ) from None

    def has(self, name: str, version: str) -> bool:
        return (name, version) in self._artifacts

    def __len__(self) -> int:
        return len(self._artifacts)


class DownloadService:
    """Fetches artifacts, consulting (and filling) a local cache.

    ``use_cache=False`` models a cold environment with no local mirror.
    """

    def __init__(
        self,
        index: PackageIndex,
        clock: SimClock,
        *,
        use_cache: bool = True,
        internet_bandwidth: float = INTERNET_BANDWIDTH_BPS,
        cache_bandwidth: float = CACHE_BANDWIDTH_BPS,
        internet_latency: float = INTERNET_LATENCY_S,
    ) -> None:
        self._index = index
        self._clock = clock
        self._use_cache = use_cache
        self._internet_bandwidth = internet_bandwidth
        self._cache_bandwidth = cache_bandwidth
        self._internet_latency = internet_latency
        self._cache: set[tuple[str, str]] = set()
        self.downloads = 0
        self.cache_hits = 0
        #: Optional FaultPlan consulted by OSLPM-level operations.
        self.fault_plan = None

    def prefetch(self, name: str, version: str) -> None:
        """Warm the cache without advancing the clock (models a mirror
        populated ahead of time)."""
        self._index.lookup(name, version)
        self._cache.add((name, version))

    def fetch(self, name: str, version: str) -> PackageArtifact:
        """Fetch an artifact, advancing the simulated clock accordingly."""
        artifact = self._index.lookup(name, version)
        self.downloads += 1
        if self._use_cache and artifact.key() in self._cache:
            self.cache_hits += 1
            duration = artifact.size_bytes / self._cache_bandwidth
            self._clock.advance(duration)
        else:
            duration = (
                self._internet_latency
                + artifact.size_bytes / self._internet_bandwidth
            )
            self._clock.advance(duration)
            if self._use_cache:
                self._cache.add(artifact.key())
        return artifact
