"""Canonical structural fingerprints of partial installation specs.

:class:`~repro.config.session.ConfigurationSession` memoizes hypergraph
generation per *structure* of the partial specification, so the cache
key must hash different for any difference that can change the expanded
specification:

* a config-port value, a pinned resource key or version, a container
  link;
* the **order of the instances**.  GraphGen is a worklist seeded in
  specification order: which of two machines a shared dependency is
  first materialised on decides which gets ``python_runtime`` and which
  ``python_runtime_2``, so two specs listing the same instances in a
  different order expand to differently-named full specifications and
  must not share an entry.

Only the key order *inside* a config-port dict is irrelevant (it changes
neither the expanded specification nor the saved state) and hashes
equal.

Values are reduced to a type-tagged canonical form before hashing so
that ``1``, ``1.0``, ``True`` and ``"1"`` stay distinct and nested
dicts/lists are compared structurally.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.core.instances import PartialInstallSpec, PartialInstance


def canonical_value(value: Any) -> object:
    """A hashable, order-insensitive, type-tagged form of a port value."""
    # bool before int: bool is an int subclass and must not collide.
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, int):
        return ("i", value)
    if isinstance(value, float):
        return ("f", repr(value))
    if isinstance(value, str):
        return ("s", value)
    if value is None:
        return ("n",)
    if isinstance(value, dict):
        return (
            "d",
            tuple(
                sorted(
                    (str(k), canonical_value(v)) for k, v in value.items()
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("l", tuple(canonical_value(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("S", tuple(sorted(repr(canonical_value(v)) for v in value)))
    # Fall back to repr for exotic values; deterministic for the value
    # types the DSL/JSON layers produce.
    return ("r", type(value).__name__, repr(value))


def _canonical_instance(instance: PartialInstance) -> tuple:
    return (
        instance.id,
        instance.key.name,
        str(instance.key.version),
        instance.inside_id,
        canonical_value(dict(instance.config)),
    )


def canonical_form(partial: PartialInstallSpec) -> tuple:
    """The spec as a tuple of canonical instance tuples, in the spec's
    own order."""
    return tuple(_canonical_instance(instance) for instance in partial)


def fingerprint_partial(partial: PartialInstallSpec) -> str:
    """A stable hex digest identifying the spec's structure."""
    digest = hashlib.sha256(repr(canonical_form(partial)).encode("utf-8"))
    return digest.hexdigest()
