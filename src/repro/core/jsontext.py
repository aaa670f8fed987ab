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
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Callable, Iterable

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
    umask's; a symlink is written through to its target."""
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    mode = os.stat(target).st_mode if os.path.exists(target) else None
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
            if mode is not None:
                os.fchmod(fd, mode & 0o7777)
            handle.write(text)
            handle.flush()
            os.fsync(fd)
            os.replace(temporary, target)
        except BaseException:
            os.unlink(temporary)
            raise
