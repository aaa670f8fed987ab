"""The indented-JSON emitter is ``json.dumps(value, indent=n)``, byte for
byte: a differential test over generated values (whole, and as rows
written at a depth), and the documents the persistence layers write one
row at a time.  The file writer replaces a file as ``open(path, "w")``
would, but whole.  The reader names the first field that does not have
its shape."""

import enum
import fcntl
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigurationEngine
from repro.core.instances import InstallSpec, ResourceInstance
from repro.core.jsontext import (
    ANY,
    STRING,
    TIME,
    Rows,
    at_least,
    indented,
    one_of,
    optional,
    parse,
    plain,
    read,
    write_file,
)
from repro.core.keys import ResourceKey
from repro.dsl import full_to_json, partial_to_json
from repro.dsl.json_spec import full_to_rows
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import DeploymentEngine, save_system, system_document
from repro.sim import save_world, world_document

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


class Colour(str, enum.Enum):
    RED = "red"
    QUOTED = 'a "quoted"\né\\'


INDENTS = st.sampled_from([0, 1, 2, 4])

STRINGS = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(codec="utf-8")),
    st.sampled_from(
        ["", '"', "\\", "\n\t\r\x00\x1f\x7f", "é中\U0001f600",
         "\ud800", "</script>", "a: b, c"]
    ),
)

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, float("nan"),
                     float("inf"), float("-inf")]),
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    FLOATS,
    STRINGS,
    st.sampled_from(list(Level) + list(Colour)),
)

KEYS = st.one_of(
    STRINGS,
    st.integers(),
    FLOATS,
    st.booleans(),
    st.none(),
    st.sampled_from(list(Level) + list(Colour)),
)

VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(STRINGS, children, max_size=5),
        st.dictionaries(KEYS, children, max_size=5),
    ),
    max_leaves=30,
)


def check(value, indent):
    assert indented(value, indent) == json.dumps(value, indent=indent)


def nest(rows, path, wrap):
    """``wrap(rows)`` under the str-keyed dicts ``path`` names, so it
    is written at depth ``len(path)``."""
    value = wrap(rows)
    for key in reversed(path):
        value = {"before": [key], key: value}
    return value


def as_rows(rows):
    """``rows`` as a :class:`Rows` whose rows are built by a call."""
    return Rows(range(len(rows)), rows.__getitem__)


def check_rows(rows, path, indent):
    document = nest(rows, path, as_rows)
    reference = json.dumps(nest(rows, path, list), indent=indent)
    assert indented(document, indent) == reference
    assert json.dumps(plain(document), indent=indent) == reference


ROW_PATHS = st.lists(STRINGS, max_size=3)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(VALUES, INDENTS)
def test_emitter_is_json_dumps(value, indent):
    check(value, indent)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(VALUES, max_size=4), ROW_PATHS, INDENTS)
def test_rows_at_a_depth_are_json_dumps(rows, path, indent):
    check_rows(rows, path, indent)


@pytest.mark.fuzz
@settings(max_examples=500, deadline=None)
@given(VALUES, INDENTS)
def test_emitter_is_json_dumps_fuzz(value, indent):
    check(value, indent)


@pytest.mark.fuzz
@settings(max_examples=500, deadline=None)
@given(st.lists(VALUES, max_size=4), ROW_PATHS, INDENTS)
def test_rows_at_a_depth_are_json_dumps_fuzz(rows, path, indent):
    check_rows(rows, path, indent)


@pytest.mark.parametrize("indent", [0, 1, 2, 4])
@pytest.mark.parametrize(
    "value",
    [
        {}, [], (), "", 0, -0.0, float("nan"), True, None,
        [[], {}, ()], {"a": {}, "b": [], "c": [[[]]]},
        # Subtrees the emitter hands to json.dumps, at several depths.
        {"a": [{1: "one", "two": [Level.LOW]}]},
        [[{None: Colour.QUOTED, False: {True: Level.HIGH}}]],
        {"x": {2.5: [1, {"y": float("-inf")}]}},
        {Colour.RED: Colour.RED, "k": [Colour.RED, Level.LOW]},
    ],
)
def test_edge_cases(value, indent):
    check(value, indent)


def test_unencodable_values_raise_like_json_dumps():
    with pytest.raises(TypeError, match="not JSON serializable"):
        indented({"a": [object()]}, 2)


def test_fleet_documents_are_byte_identical():
    registry = standard_registry()
    spec = ConfigurationEngine(registry, partition=True).configure(
        fleet_partial(FleetTopology(replicas=24, machines=8))
    ).spec
    infrastructure = standard_infrastructure()
    system = DeploymentEngine(
        registry, infrastructure, standard_drivers()
    ).deploy(spec)
    assert full_to_json(spec) == json.dumps(
        plain(full_to_rows(spec)), indent=2
    ) + "\n"
    assert save_system(system) == json.dumps(
        plain(system_document(system)), indent=2
    ) + "\n"
    assert save_world(infrastructure) == json.dumps(
        plain(world_document(infrastructure)), indent=1
    ) + "\n"
    text = partial_to_json(fleet_partial(FleetTopology(replicas=4, machines=2)))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_shapes_the_fleet_lacks():
    # An empty spec, system and world; a machine with no files and no
    # processes; port values that are non-ASCII, enum members, or dicts
    # with non-str keys (each such dict is handed to json.dumps whole).
    empty = InstallSpec()
    assert full_to_json(empty) == json.dumps([], indent=2) + "\n"
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    system = DeploymentEngine(
        registry, infrastructure, standard_drivers()
    ).deploy(empty)
    assert save_system(system) == json.dumps(
        plain(system_document(system)), indent=2
    ) + "\n"
    assert save_world(infrastructure) == json.dumps(
        plain(world_document(infrastructure)), indent=1
    ) + "\n"
    infrastructure.add_machine("bare", "Ubuntu-Linux", "10.4")
    world = plain(world_document(infrastructure))
    assert world["machines"][0]["fs"]["files"] == {}
    assert world["machines"][0]["processes"] == []
    assert save_world(infrastructure) == json.dumps(world, indent=1) + "\n"
    spec = InstallSpec([
        ResourceInstance(
            "hôte", ResourceKey.parse("Ubuntu-Linux 10.4"),
            config={
                "hostname": "hôte-中\U0001f600",
                "level": Level.HIGH,
                "colour": Colour.QUOTED,
                "ports": {8080: "http", 2.5: None, True: [Level.LOW]},
            },
            outputs={"é": {"nested": {None: Colour.RED}}},
        ),
    ])
    assert full_to_json(spec) == json.dumps(
        plain(full_to_rows(spec)), indent=2
    ) + "\n"


class TestWriteFile:
    def test_a_new_file_has_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "plain", "w", encoding="utf-8") as handle:
            handle.write("x")
        write_file(str(tmp_path / "written"), "x")
        assert (tmp_path / "written").stat().st_mode == (
            (tmp_path / "plain").stat().st_mode
        )
        assert (tmp_path / "written").read_text() == "x"

    def test_a_new_file_does_not_take_a_leftovers_mode(self, tmp_path):
        # A killed writer left its temporary file, owner-only.  The new
        # file it becomes gets the umask's mode, as open() would give.
        leftover = tmp_path / ".bundle.json.tmp"
        leftover.write_text("torn")
        leftover.chmod(0o600)
        umask = os.umask(0o022)
        try:
            write_file(str(tmp_path / "bundle.json"), "new")
        finally:
            os.umask(umask)
        target = tmp_path / "bundle.json"
        assert target.stat().st_mode & 0o7777 == 0o644
        assert target.read_text() == "new"
        assert os.listdir(tmp_path) == ["bundle.json"]

    def test_a_replaced_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "bundle.json"
        target.write_text("old")
        target.chmod(0o640)
        write_file(str(target), "new")
        assert target.read_text() == "new"
        assert target.stat().st_mode & 0o7777 == 0o640
        assert os.listdir(tmp_path) == ["bundle.json"]

    def test_a_symlink_is_written_through(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "bundle.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        write_file(str(link), "new")
        assert link.is_symlink()
        assert target.read_text() == "new"
        assert sorted(os.listdir(tmp_path / "real")) == ["bundle.json"]

    def test_a_failed_replace_leaves_the_old_bytes(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "bundle.json"
        target.write_text("old")

        def refuse(source, destination):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_file(str(target), "new")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["bundle.json"]

    def test_a_killed_write_leaves_no_litter(self, tmp_path):
        # Each writer is killed inside fsync, after its temporary file
        # has the text and before the rename.  The old bytes stay, and
        # the next write takes the dead writers' temporary file over.
        target = tmp_path / "b.json"
        target.write_text("old")
        killed = (
            "import os, signal, sys\n"
            "from repro.core.jsontext import write_file\n"
            "os.fsync = lambda fd: os.kill(os.getpid(), signal.SIGKILL)\n"
            "write_file(sys.argv[1], 'killed')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, "-c", killed, str(target)],
                env=env, capture_output=True, timeout=60,
            )
            assert done.returncode == -signal.SIGKILL, done.stderr
            assert target.read_text() == "old"
        write_file(str(target), "new")
        assert os.listdir(tmp_path) == ["b.json"]
        assert target.read_text() == "new"

    def test_a_live_writer_makes_a_second_write_fail(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text("old")
        with open(tmp_path / ".b.json.tmp", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            with pytest.raises(OSError, match="another process") as raised:
                write_file(str(target), "new")
        assert raised.value.filename == str(target)
        assert target.read_text() == "old"

    def test_an_unwritable_path_is_named_in_the_error(self, tmp_path):
        target = tmp_path / "missing" / "bundle.json"
        with pytest.raises(FileNotFoundError) as raised:
            write_file(str(target), "new")
        assert raised.value.filename == str(target)


SHAPE = {
    "name": STRING,
    "at": TIME,
    "count": optional(at_least(1)),
    "state": optional(one_of("running", "failed")),
    "pairs": [(STRING, STRING)],
    "ports": {str: at_least(1)},
}


class TestRead:
    GOOD = {"name": "m", "at": 0, "pairs": [["a", "b"]], "ports": {}}

    def test_a_document_of_the_shape_is_itself(self):
        document = dict(self.GOOD, count=2, state="failed", extra=[None])
        assert read(document, SHAPE, of="doc", error=ValueError) is document

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"name": 5}, "section 'name' is not a string: 5"),
            ({"at": True}, "section 'at' is not a finite time >= 0: True"),
            ({"at": float("nan")}, "section 'at' is not a finite time >= 0"),
            ({"at": float("inf")}, "section 'at' is not a finite time >= 0"),
            ({"at": -1}, "section 'at' is not a finite time >= 0: -1"),
            ({"at": 10 ** 400}, "section 'at' is not a finite time >= 0"),
            ({"count": 1.0}, "section 'count' is not an integer >= 1"),
            ({"count": 0}, "section 'count' is not an integer >= 1: 0"),
            ({"state": "gone"}, "section 'state' is not one of running, "),
            ({"pairs": "ab"}, "section 'pairs' is not an array: 'ab'"),
            ({"pairs": [["a"]]}, "section 'pairs[0]' is not an array of 2"),
            ({"pairs": [["a", 1]]}, "section 'pairs[0][1]' is not a string"),
            ({"ports": {"x.y": 0}}, "section 'ports.x.y' is not an integer"),
            ({"ports": []}, "section 'ports' is not an object: []"),
        ],
    )
    def test_the_first_wrong_field_is_named(self, edit, message):
        with pytest.raises(ValueError) as raised:
            read(dict(self.GOOD, **edit), SHAPE, of="doc", error=ValueError)
        assert str(raised.value).startswith("malformed doc: " + message)

    def test_a_missing_field_and_the_document_itself(self):
        document = dict(self.GOOD)
        del document["at"]
        with pytest.raises(ValueError, match="^malformed doc: section 'at' "
                           "is missing$"):
            read(document, SHAPE, of="doc", error=ValueError)
        with pytest.raises(ValueError, match="^malformed doc: the document "
                           "is not an object: "):
            read([], SHAPE, of="doc", error=ValueError)

    def test_parse_names_the_document(self):
        with pytest.raises(ValueError, match="^malformed doc: Expecting"):
            parse("{", ANY, of="doc", error=ValueError)
        assert parse("[1]", [at_least(0)], of="doc", error=ValueError) == [1]
