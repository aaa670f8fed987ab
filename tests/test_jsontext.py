"""The indented-JSON emitter is ``json.dumps(value, indent=n)``, byte for
byte: a differential test over generated values, and the documents the
persistence layers write."""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigurationEngine
from repro.core.jsontext import indented
from repro.dsl import full_to_json, full_to_payload, partial_to_json
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import DeploymentEngine, save_system, system_payload
from repro.sim import save_world, world_payload


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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(VALUES, INDENTS)
def test_emitter_is_json_dumps(value, indent):
    check(value, indent)


@pytest.mark.fuzz
@settings(max_examples=500, deadline=None)
@given(VALUES, INDENTS)
def test_emitter_is_json_dumps_fuzz(value, indent):
    check(value, indent)


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
        full_to_payload(spec), indent=2
    ) + "\n"
    assert save_system(system) == json.dumps(
        system_payload(system), indent=2
    ) + "\n"
    assert save_world(infrastructure) == json.dumps(
        world_payload(infrastructure), indent=1
    ) + "\n"
    text = partial_to_json(fleet_partial(FleetTopology(replicas=4, machines=2)))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
