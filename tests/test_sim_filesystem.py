"""The virtual filesystem."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim import VirtualFilesystem


@pytest.fixture
def fs():
    return VirtualFilesystem()


class TestPaths:
    def test_relative_rejected(self, fs):
        with pytest.raises(SimulationError):
            fs.write_file("relative.txt", "x")

    def test_normalisation(self, fs):
        fs.write_file("/a//b/../c.txt", "x")
        assert fs.is_file("/a/c.txt")


class TestDirectories:
    def test_mkdir_parents(self, fs):
        fs.mkdir("/a/b/c")
        assert fs.is_dir("/a")
        assert fs.is_dir("/a/b")
        assert fs.is_dir("/a/b/c")

    def test_mkdir_no_parents(self, fs):
        with pytest.raises(SimulationError):
            fs.mkdir("/a/b", parents=False)

    def test_mkdir_over_file(self, fs):
        fs.write_file("/a", "x")
        with pytest.raises(SimulationError):
            fs.mkdir("/a")

    def test_root_exists(self, fs):
        assert fs.is_dir("/")


class TestFiles:
    def test_write_read(self, fs):
        fs.write_file("/etc/conf", "hello")
        assert fs.read_file("/etc/conf") == "hello"

    def test_write_creates_parents(self, fs):
        fs.write_file("/deep/path/file", "x")
        assert fs.is_dir("/deep/path")

    def test_overwrite(self, fs):
        fs.write_file("/f", "1")
        fs.write_file("/f", "2")
        assert fs.read_file("/f") == "2"

    def test_append(self, fs):
        fs.append_file("/log", "a")
        fs.append_file("/log", "b")
        assert fs.read_file("/log") == "ab"

    def test_read_missing(self, fs):
        with pytest.raises(SimulationError):
            fs.read_file("/ghost")

    def test_write_over_directory(self, fs):
        fs.mkdir("/d")
        with pytest.raises(SimulationError):
            fs.write_file("/d", "x")

    def test_exists(self, fs):
        fs.write_file("/f", "x")
        fs.mkdir("/d")
        assert fs.exists("/f")
        assert fs.exists("/d")
        assert not fs.exists("/ghost")


class TestRemoveAndList:
    def test_remove_file(self, fs):
        fs.write_file("/f", "x")
        fs.remove("/f")
        assert not fs.exists("/f")

    def test_remove_tree(self, fs):
        fs.write_file("/d/sub/file", "x")
        fs.mkdir("/d/empty")
        fs.remove("/d")
        assert not fs.exists("/d")
        assert not fs.exists("/d/sub/file")

    def test_remove_missing(self, fs):
        with pytest.raises(SimulationError):
            fs.remove("/ghost")

    def test_remove_root_refused(self, fs):
        with pytest.raises(SimulationError):
            fs.remove("/")

    def test_remove_does_not_touch_siblings_with_prefix(self, fs):
        fs.write_file("/app/file", "x")
        fs.write_file("/app2/file", "y")
        fs.remove("/app")
        assert fs.read_file("/app2/file") == "y"

    def test_walk_files(self, fs):
        fs.write_file("/a/1", "")
        fs.write_file("/a/b/2", "")
        fs.write_file("/c", "")
        assert list(fs.walk_files("/a")) == ["/a/1", "/a/b/2"]
        assert len(list(fs.walk_files())) == 3


class TestSnapshots:
    def test_restore_reverts_changes(self, fs):
        fs.write_file("/keep", "original")
        snap = fs.snapshot()
        fs.write_file("/keep", "changed")
        fs.write_file("/new", "x")
        fs.remove("/keep")
        fs.restore(snap)
        assert fs.read_file("/keep") == "original"
        assert not fs.exists("/new")

    def test_snapshot_isolated_from_later_writes(self, fs):
        snap = fs.snapshot()
        fs.write_file("/x", "1")
        assert "/x" not in snap["files"]


@given(
    st.lists(
        st.text(alphabet="abc", min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_write_then_read_roundtrip(segments):
    fs = VirtualFilesystem()
    path = "/" + "/".join(segments)
    fs.write_file(path, "payload")
    assert fs.read_file(path) == "payload"
