"""Indented JSON text, byte-identical to ``json.dumps(value, indent=n)``.

Every indented document ``repro`` writes -- full specifications, state
files, worlds, bundles, plans, traces, ``--json`` reports, the simulated
Django database (a key-sorted copy, so its keys come out sorted) --
goes through :func:`indented`, or :func:`document_text` when it ends
with a newline (all of them but the database and the migration
history).  The
standard library only has a C encoder for compact output: with
``indent`` set, CPython before 3.14 runs the pure-Python
``_iterencode`` generators, which yield and join one small chunk per
token (about 1.5 million for a 3,840-instance fleet's state file).
:func:`indented` is a recursive join over the same values with the C
string escaper, so it makes the same bytes at a fraction of the cost.

A document is written row by row.  Its dicts are written field by
field into one list of texts, which is joined once at the end; every
other value -- and each row of a :class:`Rows` -- is encoded to one text
at the depth it sits at.  A :class:`Rows` is an array whose items are
built only as they are written, so a large document (a spec of
thousands of instances, a world of hundreds of machines, a journal of
thousands of entries) never exists as one tree of data: each row is
built, encoded and dropped.  :func:`plain` builds every row instead,
which is the same document as data.

It handles exactly the types the documents are made of: ``dict`` with
``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``float``,
``bool`` and ``None``, each matched by exact type.  Anything else --
subclasses such as enum members, dicts with non-``str`` keys, values
``json`` cannot encode -- is handed to ``json.dumps`` as a subtree, and
its text is re-indented to the depth it sits at by replacing every
``"\\n"`` with ``"\\n"`` plus that depth's indentation.  That is exact
because JSON text never contains a raw newline (the escaper writes one
inside a string as ``\\n``).

Every file ``repro`` writes is written by :func:`write_file`, which
replaces it whole or not at all.

Every document ``repro`` reads back is checked by :func:`read` against
its *shape*, plain data kept next to the document's writer: a
:class:`Leaf` (one JSON scalar and what it may hold: :data:`STRING`,
:data:`BOOL`, :data:`TIME`, :func:`at_least`, :func:`one_of`, or
:data:`ANY` value), ``{"name": shape, ...}`` (an object with these
fields, each required unless it is :class:`optional`; other fields are
ignored), ``{str: shape}`` (an object of any fields, all of ``shape``),
``[shape]`` (an array of ``shape``) or ``(shape, ...)`` (an array of
exactly these).  A JSON type is matched exactly: a bool is never a
number.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
from itertools import count, repeat
from json.encoder import encode_basestring_ascii as _string
from sys import float_info
from typing import Any, Callable, Iterable, NamedTuple, Optional

from repro.core.collector import collector_paused

_INFINITY = float("inf")


class Rows:
    """A JSON array of ``build(item)`` for each of ``items``, built one
    row at a time as it is iterated.

    :func:`indented` encodes each row as soon as it is built and keeps
    only its text; :func:`plain` turns the rows into a list.
    """

    __slots__ = ("items", "build")

    def __init__(self, items: Iterable[Any], build: Callable[[Any], Any]):
        self.items = items
        self.build = build

    def __iter__(self):
        return map(self.build, self.items)


def plain(value: Any) -> Any:
    """``value`` as data: a :class:`Rows` -- the value itself, or the
    value of a dict at any depth of dicts -- becomes the list of its
    rows.  Dicts are copied; every other value is returned as it is."""
    kind = type(value)
    if kind is Rows:
        return list(value)
    if kind is dict:
        return {key: plain(item) for key, item in value.items()}
    return value


def _float(value: float) -> str:
    """``json``'s float text (``allow_nan=True``)."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _text(value: Any, newline: str, step: str) -> str:
    """``value``'s text at the depth ``newline`` starts: ``"\\n"`` and
    the indentation of the line ``value`` is written on."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + step
        parts = []
        for key, item in value.items():
            if type(key) is not str:
                return _subtree(value, newline, step)
            if type(item) is str:  # most values: spare the call
                parts.append(f"{_string(key)}: {_string(item)}")
            else:
                parts.append(f"{_string(key)}: {_text(item, inner, step)}")
        body = ("," + inner).join(parts)
        return f"{{{inner}{body}{newline}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + step
        body = ("," + inner).join(
            [_text(item, inner, step) for item in value]
        )
        return f"[{inner}{body}{newline}]"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is float:
        return _float(value)
    return _subtree(value, newline, step)


def _subtree(value: Any, newline: str, step: str) -> str:
    return json.dumps(value, indent=len(step)).replace("\n", newline)


def _write(value: Any, newline: str, step: str, out: list[str]) -> None:
    """Append ``value``'s text at ``newline``'s depth to ``out``: a
    dict field by field, a :class:`Rows` row by row, anything else as
    one text."""
    kind = type(value)
    if kind is Rows:
        inner = newline + step
        opening = "[" + inner
        for row in value:
            out.append(opening + _text(row, inner, step))
            opening = "," + inner
        # ``opening`` is still "[..." only if there was no row.
        out.append(newline + "]" if opening[0] == "," else "[]")
    elif kind is dict and value and all(type(key) is str for key in value):
        inner = newline + step
        opening = "{" + inner
        for key, item in value.items():
            if type(item) is str:  # most values: one text per field
                out.append(f"{opening}{_string(key)}: {_string(item)}")
            else:
                out.append(f"{opening}{_string(key)}: ")
                _write(item, inner, step, out)
            opening = "," + inner
        out.append(newline + "}")
    else:
        out.append(_text(value, newline, step))


@collector_paused
def indented(value: Any, indent: int) -> str:
    """``json.dumps(plain(value), indent=indent)``, faster, with each
    row of a :class:`Rows` encoded as it is built."""
    out: list[str] = []
    _write(value, "\n", " " * indent, out)
    return "".join(out)


@collector_paused
def document_text(value: Any, indent: int) -> str:
    """:func:`indented` text and the newline that ends a file or a
    report, joined once: adding the newline to the joined text would
    copy all of it again."""
    out: list[str] = []
    _write(value, "\n", " " * indent, out)
    out.append("\n")
    return "".join(out)


def write_file(path: str, text: str) -> None:
    """Replace the file at ``path`` with ``text``, all or nothing: the
    text goes to ``.NAME.tmp`` beside the target, is flushed, ``fsync``-ed
    and renamed over it, so a raise or a kill leaves the old bytes or
    the new ones.  The temporary file is held under an exclusive
    ``flock`` from open to rename: one a killed writer left is reused,
    and a live writer of the same file makes this call fail naming it.
    A replaced file keeps its permission mode, a new one gets the
    umask's (not that of a temporary file a killed writer left); a
    symlink is written through to its target."""
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    if os.path.exists(target):
        mode = os.stat(target).st_mode & 0o7777
    else:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    temporary = os.path.join(directory, f".{name}.tmp")
    try:
        fd = os.open(
            temporary, os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW, 0o666
        )
    except OSError as exc:
        exc.filename = path  # name the file the caller asked for
        raise
    held = False
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        # A writer that renamed the file away before we locked it has
        # made it the target: the name must still be the file we hold.
        held = os.path.samestat(os.fstat(fd), os.lstat(temporary))
    except (BlockingIOError, FileNotFoundError):
        pass
    finally:
        if not held:
            os.close(fd)
    if not held:
        raise OSError(
            errno.EBUSY, "another process is writing this file", path
        )
    with open(fd, "w", encoding="utf-8") as handle:
        try:
            os.ftruncate(fd, 0)
            os.fchmod(fd, mode)
            handle.write(text)
            handle.flush()
            os.fsync(fd)
            os.replace(temporary, target)
        except BaseException:
            os.unlink(temporary)
            raise


class Leaf(NamedTuple):
    """A JSON scalar: ``accepts(value)`` says whether a value is one, and
    ``expects`` names it in the error when it is not."""

    expects: str
    accepts: Callable[[Any], bool]


class optional(NamedTuple):
    """A field of an object shape that may be absent."""

    shape: Any


STRING = Leaf("a string", lambda value: type(value) is str)
BOOL = Leaf("a bool", lambda value: type(value) is bool)
ANY = Leaf("any JSON value", lambda value: True)
TIME = Leaf(  # an integer too large for a float is not a finite time
    "a finite time >= 0",
    lambda value: type(value) in (int, float) and 0 <= value <= float_info.max,
)


def at_least(minimum: int) -> Leaf:
    """An integer >= ``minimum``."""
    return Leaf(
        f"an integer >= {minimum}",
        lambda value: type(value) is int and value >= minimum,
    )


def one_of(*choices: str) -> Leaf:
    """One of the strings ``choices``."""
    return Leaf(f"one of {', '.join(choices)}", choices.__contains__)


def parse(
    text: str, shape: Any, *, of: str, error: type[Exception]
) -> Any:
    """``json.loads(text)``, then :func:`read` against ``shape``; text
    that is not JSON is also ``error`` naming ``of``, the document."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {of}: {exc}") from exc
    return read(value, shape, of=of, error=error)


def read(value: Any, shape: Any, *, of: str, error: type[Exception]) -> Any:
    """``value``, if it has ``shape``; otherwise ``error`` naming ``of``,
    the document, and the path of the first field that does not."""
    path: list = []
    problem = _mismatch(value, shape, path)
    if problem is None:
        return value
    where = "".join(
        f"[{part}]" if type(part) is int else "." + part
        for part in reversed(path)
    )
    where = f"section {where.lstrip('.')!r}" if path else "the document"
    raise error(f"malformed {of}: {where} {problem}")


def _mismatch(value: Any, shape: Any, path: list) -> Optional[str]:
    """What is wrong with ``value`` if it does not have ``shape``, with
    the way to it appended to ``path``, innermost part first (so a path
    is built only on the way out of a mismatch); otherwise ``None``.  A
    leaf field is checked in place: most fields spare the call."""
    kind = type(shape)
    if kind is Leaf:
        if shape.accepts(value):
            return None
        return f"is not {shape.expects}: {value!r:.40}"
    if kind is dict:
        if type(value) is not dict:
            return f"is not an object: {value!r:.40}"
        fields = shape.items()
        if str in shape:  # {str: shape}: every field of the value
            fields = zip(value, repeat(shape[str]))
        for name, field in fields:
            if name not in value:
                if type(field) is optional:
                    continue
                path.append(name)
                return "is missing"
            if type(field) is optional:
                field = field.shape
            item = value[name]
            if type(field) is Leaf and field.accepts(item):
                continue
            problem = _mismatch(item, field, path)
            if problem is not None:
                path.append(name)
                return problem
        return None
    if type(value) is not list:
        return f"is not an array: {value!r:.40}"
    if kind is tuple and len(value) != len(shape):
        return f"is not an array of {len(shape)}: {value!r:.40}"
    shapes = shape if kind is tuple else repeat(shape[0])
    for index, item, each in zip(count(), value, shapes):
        if type(each) is Leaf and each.accepts(item):
            continue
        problem = _mismatch(item, each, path)
        if problem is not None:
            path.append(index)
            return problem
    return None
