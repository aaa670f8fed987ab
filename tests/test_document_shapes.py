"""Every field of every document a bundle holds is checked by its shape.

The hostile rows here are generated from the shapes themselves, over
the Figure 2 bundle (``deploy examples/stacks/openmrs.json --save``).
For each field of the bundle, world, state, spec and journal documents
the bundle holds -- the first of each, where an array or an object of
any fields holds many -- a row makes one edit: drops the field, gives
it a value of another JSON type, ``true``, ``NaN``, or a value out of
its range.  ``status`` must refuse every edited bundle with exit 2, an
``error:`` naming the document and the field's path, and leave the
bundle's bytes as they were.
"""

from __future__ import annotations

import functools
import io
import json
import pathlib
import tempfile

import pytest

from repro.cli import BUNDLE, main
from repro.core.jsontext import ANY, BOOL, TIME, Leaf, optional
from repro.dsl.json_spec import FULL_SPEC, KEY
from repro.runtime.journal import JOURNAL
from repro.runtime.state import STATE
from repro.sim.persistence import WORLD

STACK = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "stacks" / "openmrs.json"
)

#: Where each document sits in a bundle, its shape, and the name its
#: errors give it.
DOCUMENTS = (
    ((), BUNDLE, "bundle"),
    (("world",), WORLD, "world file"),
    (("state",), STATE, "state file"),
    (("state", "spec"), FULL_SPEC, "state file's spec"),
    (("state", "journal"), JOURNAL, "journal"),
)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@functools.lru_cache(maxsize=None)
def figure2_bundle() -> str:
    """The Figure 2 bundle's text."""
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "b.json"
        code, output = run(["deploy", str(STACK), "--save", str(path)])
        assert code == 0, output
        return path.read_text()


def _fields(value, shape, path=(), form=()):
    """``(path, form, shape, droppable)`` for every field of ``value``
    that ``shape`` describes.  A path part ``int`` is an array index,
    ``str`` a field name; ``form`` is the path with each index of an
    array of one shape and each name of an object of any fields made
    ``"*"``, which every such field shares."""
    kind = type(shape)
    if kind is Leaf:
        return
    if kind is dict and str in shape:
        parts = [(key, "*", shape[str], False) for key in value]
    elif kind is dict:
        parts = [
            (name, name, getattr(field, "shape", field),
             type(field) is not optional)
            for name, field in shape.items() if name in value
        ]
    elif kind is tuple:
        parts = [(index, index, each, True) for index, each in enumerate(shape)]
    else:
        parts = [(index, "*", shape[0], False) for index in range(len(value))]
    for part, kept, field, droppable in parts:
        at, named = (*path, part), (*form, kept)
        yield at, named, field, droppable
        yield from _fields(value[part], field, at, named)


DROP = object()


def _edits(shape, droppable):
    """``{edit: value}`` for a field of ``shape``: every value there
    breaks the shape.  An array or an object is dropped or replaced by
    a string; its fields have rows of their own."""
    if shape is ANY:
        return {}  # a port value: typed by the resource type, not here
    edits = {}
    if droppable:
        edits["drop"] = DROP
    textual = shape is KEY or (
        type(shape) is Leaf and shape.expects.startswith(("a string", "one of"))
    )
    edits["wrong-type"] = 5 if textual else "80"
    if type(shape) is not Leaf:
        return edits
    if shape is not BOOL:
        edits["true"] = True
    edits["nan"] = float("nan")
    if shape is TIME:
        edits["out-of-range"] = -3
    elif shape is KEY:
        edits["out-of-range"] = " "
    elif shape.expects.startswith("one of"):
        edits["out-of-range"] = "bogus"
    elif shape.expects.startswith("an integer >= "):
        edits["out-of-range"] = int(shape.expects.rsplit(" ", 1)[1]) - 1
    return edits


def _text(path) -> str:
    """``path`` as an error names it."""
    text = "".join(
        f"[{part}]" if type(part) is int else "." + part for part in path
    )
    return text.lstrip(".")


def _rows():
    """Each edit of the first field of each form, by row name."""
    bundle = json.loads(figure2_bundle())
    rows = {}
    for where, shape, name in DOCUMENTS:
        document = bundle
        for part in where:
            document = document[part]
        seen = set()
        for path, form, field, droppable in _fields(document, shape):
            if form in seen:
                continue
            seen.add(form)
            shown = _text(
                "*" if kept == "*" and type(part) is str else part
                for part, kept in zip(path, form)
            )
            for edit, value in _edits(field, droppable).items():
                row = f"{'.'.join(where) or 'bundle'}:{shown}:{edit}"
                rows[row] = (where, path, value, name)
    return rows


ROWS = _rows()


@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_hand_edited_field_is_refused_untouched(tmp_path, row):
    where, path, value, name = ROWS[row]
    bundle = json.loads(figure2_bundle())
    holder = bundle
    for part in (*where, *path)[:-1]:
        holder = holder[part]
    last = (*where, *path)[-1]
    if value is DROP:
        del holder[last]
        if type(last) is int:  # an array of fixed items is one short
            path = path[:-1]
    else:
        holder[last] = value
    target = tmp_path / "b.json"
    target.write_text(json.dumps(bundle))
    before = target.read_bytes()
    code, output = run(["status", str(target)])
    assert code == 2, output
    assert output.startswith("error: ")
    assert f"malformed {name}: section {_text(path)!r}" in output
    assert target.read_bytes() == before


#: Edits the readers used to take (a bundle that loaded with exit 0)
#: or to blame on something else.
PROBES = (
    "state.journal:entries[0].timestamp:nan",
    "state.journal:entries[0].timestamp:true",
    "state.journal:entries[0].timestamp:out-of-range",
    "state.journal:target:wrong-type",
    "world:machines[0].ip_address:wrong-type",
    "world:machines[0].os.name:wrong-type",
    "world:machines[0].fs.files.*:wrong-type",
    "world:machines[0].processes[0].listen_ports:wrong-type",
    "world:artifacts[0].files:wrong-type",
    "world:machines[0].hostname:wrong-type",
    "state.spec:[0].id:wrong-type",
)


def test_the_probes_are_rows():
    assert set(PROBES) <= set(ROWS)
    assert len(ROWS) > 200
