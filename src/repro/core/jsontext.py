"""Indented JSON text, byte-identical to ``json.dumps(value, indent=n)``.

Every indented document ``repro`` writes -- full specifications, state
files, worlds, bundles, plans, traces, ``--json`` reports, the simulated
Django database (a key-sorted copy, so its keys come out sorted) --
goes through :func:`indented`.  The standard library only has a C
encoder for compact output: with ``indent`` set, CPython before 3.14
runs the pure-Python ``_iterencode`` generators, which yield and join
one small chunk per token (about 1.5 million for a 3,840-instance
fleet's state file).  :func:`indented` is a recursive join over the same
values with the C string escaper, so it makes the same bytes at a
fraction of the cost.

It handles exactly the types the documents are made of: ``dict`` with
``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``float``,
``bool`` and ``None``, each matched by exact type.  Anything else --
subclasses such as enum members, dicts with non-``str`` keys, values
``json`` cannot encode -- is handed to ``json.dumps`` as a subtree, and
its text is re-indented to the depth it sits at by replacing every
``"\\n"`` with ``"\\n"`` plus that depth's indentation.  That is exact
because JSON text never contains a raw newline (the escaper writes one
inside a string as ``\\n``).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from typing import Any

from repro.core.collector import collector_paused

_INFINITY = float("inf")


def _float(value: float) -> str:
    """``json``'s float text (``allow_nan=True``)."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


@collector_paused
def indented(value: Any, indent: int) -> str:
    """``json.dumps(value, indent=indent)``, faster."""
    step = " " * indent

    def subtree(value: Any, newline: str) -> str:
        return json.dumps(value, indent=indent).replace("\n", newline)

    def text(value: Any, newline: str) -> str:
        # ``newline`` starts the line ``value`` is written on: "\n" and
        # the indentation of its depth.
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
                    return subtree(value, newline)
                if type(item) is str:  # most values: spare the call
                    parts.append(f"{_string(key)}: {_string(item)}")
                else:
                    parts.append(f"{_string(key)}: {text(item, inner)}")
            return "{" + inner + ("," + inner).join(parts) + newline + "}"
        if kind is list or kind is tuple:
            if not value:
                return "[]"
            inner = newline + step
            return (
                "[" + inner
                + ("," + inner).join([text(item, inner) for item in value])
                + newline + "]"
            )
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
        return subtree(value, newline)

    return text(value, "\n")
