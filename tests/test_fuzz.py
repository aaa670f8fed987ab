"""Fuzz-style robustness: hostile input never crashes, only raises the
library's own error types.

Also home of the *seeded* random fleet-spec generator
(:func:`random_fleet_partial` / :func:`conflict_mutant`) used by the
partition property corpus in ``test_partition_properties.py``: plain
``random.Random`` rather than hypothesis, so each seed names exactly one
reproducible multi-component specification.
"""

from __future__ import annotations

import json
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import EngageError, ParseError, SpecError
from repro.dsl import parse_module, partial_from_json, tokenize
from repro.library.fleet import FleetTopology, fleet_spec_entries
from repro.sat import parse_dimacs
from tests.test_document_shapes import figure2_bundle


# -- Seeded fleet-spec generator ------------------------------------------

#: Dependency-free services that can be pinned on any machine.
_EXTRA_SERVICES = (
    "Memcached 1.4", "Redis 2.4", "Monit 5.3",
    "PostgreSQL 8.4", "MongoDB 2.0", "SQLite 3.7",
)
_MACHINE_KEYS = ("Ubuntu-Linux 10.4", "Ubuntu-Linux 10.10", "Mac-OSX 10.6")
_STACK_NAMES = ("openmrs", "jasper", "django")


def random_fleet_partial(seed: int) -> PartialInstallSpec:
    """A reproducible multi-machine partial spec for ``seed``.

    Fleet shape (machine count, replica count, stack mix, machine OS)
    and a sprinkle of extra pinned services with randomized
    configuration all derive from one ``random.Random(seed)`` stream, so
    the same seed always names the same specification.
    """
    rng = random.Random(seed)
    machines = rng.randint(1, 4)
    replicas = rng.randint(1, 2 * machines + 2)
    stacks = tuple(
        rng.sample(_STACK_NAMES, k=rng.randint(1, len(_STACK_NAMES)))
    )
    topology = FleetTopology(
        replicas=replicas,
        machines=machines,
        stacks=stacks,
        machine_key=rng.choice(_MACHINE_KEYS),
    )
    entries = list(fleet_spec_entries(topology))
    for extra in range(rng.randint(0, 4)):
        host = f"host{rng.randrange(machines):03d}"
        key = rng.choice(_EXTRA_SERVICES)
        config = {}
        if key.startswith(("Redis", "Memcached", "PostgreSQL")):
            config["port"] = rng.randint(1024, 65535)
        entries.append(
            PartialInstance(
                id=f"extra{extra:02d}",
                key=as_key(key),
                inside_id=host,
                config=config,
            )
        )
    return PartialInstallSpec(entries)


def conflict_mutant(seed: int) -> PartialInstallSpec:
    """An UNSAT mutant of :func:`random_fleet_partial`'s output.

    Pins both ``JDK 1.6`` and ``JRE 1.6`` on a machine that hosts a
    Tomcat: Tomcat's Java environment dependency then has *two* pinned
    providers, violating its exactly-one hyperedge.  When the fleet has
    no Tomcat (a django-only draw), one is pinned first.
    """
    rng = random.Random(~seed)
    entries = list(random_fleet_partial(seed))
    tomcat_hosts = sorted(
        entry.inside_id
        for entry in entries
        if entry.key.name == "Tomcat" and entry.inside_id is not None
    )
    if tomcat_hosts:
        host = rng.choice(tomcat_hosts)
    else:
        host = rng.choice(
            sorted(e.id for e in entries if e.inside_id is None)
        )
        entries.append(
            PartialInstance(
                id="mutant_tomcat", key=as_key("Tomcat 6.0.18"),
                inside_id=host, config={},
            )
        )
    entries.append(
        PartialInstance(
            id="mutant_jdk", key=as_key("JDK 1.6"), inside_id=host,
            config={},
        )
    )
    entries.append(
        PartialInstance(
            id="mutant_jre", key=as_key("JRE 1.6"), inside_id=host,
            config={},
        )
    )
    return PartialInstallSpec(entries)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_lexer_total(source):
    """The lexer either tokenises or raises ParseError -- never anything
    else, never hangs."""
    try:
        tokens = tokenize(source)
        assert tokens[-1].kind.value == "eof"
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.text(
        alphabet=string.ascii_letters + string.digits
        + ' "{}[]()<>:=,.|*->#\n\t',
        max_size=80,
    )
)
def test_parser_total(source):
    """The parser accepts or raises ParseError; no other exception."""
    try:
        parse_module(source)
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=80))
def test_partial_spec_parser_total(text):
    try:
        partial_from_json(text)
    except SpecError:
        pass


@settings(max_examples=150, deadline=None)
@given(
    st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.text(max_size=8),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=12,
    )
)
def test_partial_spec_on_arbitrary_json(document):
    """Arbitrary well-formed JSON documents: parsed or SpecError."""
    try:
        partial_from_json(json.dumps(document))
    except SpecError:
        pass


@settings(max_examples=150, deadline=None)
@given(
    st.text(
        alphabet="pcnf 0123456789-\n", max_size=60
    )
)
def test_dimacs_parser_total(text):
    from repro.core.errors import ConfigurationError

    try:
        parse_dimacs(text)
    except (ConfigurationError, ValueError):
        # ValueError only from int() on pathological tokens like "-".
        pass


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=100))
def test_state_loader_total(text):
    from repro.core.errors import RuntimeEngageError
    from repro.library import (
        standard_drivers,
        standard_infrastructure,
        standard_registry,
    )
    from repro.runtime import load_system

    registry = standard_registry()
    infrastructure = standard_infrastructure()
    try:
        load_system(registry, infrastructure, standard_drivers(), text)
    except EngageError:
        pass


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _paths(value, path=()):
    """Every path into ``value``: the root, and every field and item."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*path, index))


def _load(section, payload):
    from repro.library import (
        standard_drivers,
        standard_infrastructure,
        standard_registry,
    )
    from repro.runtime import system_from_payload
    from repro.sim import world_from_payload

    if section == "world":
        return world_from_payload(payload)
    world = world_from_payload(json.loads(figure2_bundle())["world"])
    return system_from_payload(
        standard_registry(), world, standard_drivers(), payload
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["world", "state"]), JSON)
def test_readers_on_arbitrary_json(section, document):
    """Arbitrary JSON as a world or a state: read, or an EngageError."""
    try:
        _load(section, document)
    except EngageError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["world", "state"]), st.data(), JSON)
def test_readers_on_a_document_with_one_part_replaced(section, data, part):
    """The Figure 2 world or state with any one field, item or section
    replaced by arbitrary JSON: read, or an EngageError."""
    document = json.loads(figure2_bundle())[section]
    path = data.draw(st.sampled_from(list(_paths(document))))
    if not path:
        document = part
    else:
        holder = document
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = part
    try:
        _load(section, document)
    except EngageError:
        pass
