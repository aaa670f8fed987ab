"""Package index, downloads/caching, the OSLPM, and cloud providers."""

import pytest

from repro.core.errors import ProvisioningError, SimulationError
from repro.sim import (
    DownloadService,
    Infrastructure,
    PackageIndex,
    SimClock,
)


@pytest.fixture
def world():
    return Infrastructure()


class TestPackageIndex:
    def test_publish_and_lookup(self, world):
        world.package_index.publish_simple("tomcat", "6.0.18", 1000)
        artifact = world.package_index.lookup("tomcat", "6.0.18")
        assert artifact.size_bytes == 1000
        assert world.package_index.has("tomcat", "6.0.18")

    def test_duplicate_rejected(self, world):
        world.package_index.publish_simple("x", "1", 10)
        with pytest.raises(SimulationError):
            world.package_index.publish_simple("x", "1", 10)

    def test_missing_lookup(self, world):
        with pytest.raises(SimulationError):
            world.package_index.lookup("ghost", "1")


class TestDownloads:
    def test_internet_download_costs_time(self, world):
        world.package_index.publish_simple("big", "1", 10_000_000)
        world.downloads.fetch("big", "1")
        assert world.clock.now > 5  # latency + transfer

    def test_cache_hit_is_much_faster(self, world):
        world.package_index.publish_simple("big", "1", 50_000_000)
        world.downloads.fetch("big", "1")
        first = world.clock.now
        world.downloads.fetch("big", "1")
        second = world.clock.now - first
        assert second < first / 10
        assert world.downloads.cache_hits == 1

    def test_prefetch_warms_cache_for_free(self, world):
        world.package_index.publish_simple("pkg", "1", 50_000_000)
        world.downloads.prefetch("pkg", "1")
        assert world.clock.now == 0
        world.downloads.fetch("pkg", "1")
        assert world.clock.now < 2  # cache speed

    def test_no_cache_mode(self):
        world = Infrastructure(use_cache=False)
        world.package_index.publish_simple("pkg", "1", 10_000_000)
        world.downloads.fetch("pkg", "1")
        first = world.clock.now
        world.downloads.fetch("pkg", "1")
        assert world.clock.now - first == pytest.approx(first)
        assert world.downloads.cache_hits == 0


class TestOslpm:
    def test_install_unpacks_files(self, world):
        machine = world.add_machine("m1")
        world.package_index.publish_simple("tomcat", "6.0.18", 1000)
        pm = world.package_manager(machine)
        pm.install("tomcat", "6.0.18")
        assert pm.is_installed("tomcat")
        assert pm.is_installed("tomcat", "6.0.18")
        assert not pm.is_installed("tomcat", "7.0")
        assert machine.fs.is_file("/opt/tomcat-6.0.18/.manifest")
        assert pm.install_path("tomcat") == "/opt/tomcat-6.0.18"

    def test_reinstall_same_version_idempotent(self, world):
        machine = world.add_machine("m1")
        world.package_index.publish_simple("pkg", "1", 100)
        pm = world.package_manager(machine)
        pm.install("pkg", "1")
        before = world.clock.now
        pm.install("pkg", "1")
        assert world.clock.now == before  # no work repeated

    def test_conflicting_version_rejected(self, world):
        machine = world.add_machine("m1")
        world.package_index.publish_simple("pkg", "1", 100)
        world.package_index.publish_simple("pkg", "2", 100)
        pm = world.package_manager(machine)
        pm.install("pkg", "1")
        with pytest.raises(SimulationError):
            pm.install("pkg", "2")

    def test_prerequisites_enforced(self, world):
        machine = world.add_machine("m1")
        world.package_index.publish_simple("dep", "1", 100)
        world.package_index.publish_simple("main", "1", 100)
        pm = world.package_manager(machine)
        with pytest.raises(SimulationError):
            pm.install("main", "1", prerequisites=["dep"])
        pm.install("dep", "1")
        pm.install("main", "1", prerequisites=["dep"])

    def test_remove_deletes_files(self, world):
        machine = world.add_machine("m1")
        world.package_index.publish_simple("pkg", "1", 100)
        pm = world.package_manager(machine)
        pm.install("pkg", "1")
        pm.remove("pkg")
        assert not pm.is_installed("pkg")
        assert not machine.fs.exists("/opt/pkg-1")

    def test_remove_missing(self, world):
        machine = world.add_machine("m1")
        with pytest.raises(SimulationError):
            world.package_manager(machine).remove("ghost")

    def test_snapshot_restore(self, world):
        machine = world.add_machine("m1")
        world.package_index.publish_simple("pkg", "1", 100)
        pm = world.package_manager(machine)
        pm.install("pkg", "1")
        snap = pm.snapshot()
        pm.remove("pkg")
        pm.restore(snap)
        assert pm.is_installed("pkg", "1")

    def test_package_manager_memoised(self, world):
        machine = world.add_machine("m1")
        assert world.package_manager(machine) is world.package_manager(machine)


class TestCloud:
    def test_provision_creates_machine(self, world):
        provider = world.add_provider("rackspace-sim")
        node = provider.provision("ubuntu-10.04")
        assert world.network.has_machine(node.hostname)
        assert node.os.name == "ubuntu-linux"
        assert world.clock.now >= 55  # provisioning latency

    def test_find_image(self, world):
        provider = world.add_provider("aws-sim")
        image = provider.find_image("mac-osx", "10.6")
        assert image.image_id == "mac-osx-10.6"
        with pytest.raises(ProvisioningError):
            provider.find_image("beos", "5")

    def test_unknown_image(self, world):
        provider = world.add_provider("p")
        with pytest.raises(ProvisioningError):
            provider.provision("atari")

    def test_duplicate_provider_rejected(self, world):
        world.add_provider("p")
        with pytest.raises(SimulationError):
            world.add_provider("p")
