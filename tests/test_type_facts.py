"""Facts about a resource type are resolved once, and the rewritten
primitives behave exactly as the per-instance code they replace.

* Differential tests (Hypothesis: 25 derandomised examples in tier 1,
  500 under ``fuzz``) hold ``Version``'s normalised comparisons, the
  port validators and the shared Kahn order against reference copies of
  the definitions they replaced.
* Clock-free guards hold configure's per-instance cost: subtype
  questions per instance are bounded, and the number of per-type
  propagation plans does not grow with the fleet.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from collections import OrderedDict
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
import repro.config.propagation as propagation
from repro.config import ConfigurationEngine
from repro.core.errors import CycleError, SpecError
from repro.core.instances import (
    DependencyLink,
    InstallSpec,
    InstanceRef,
    ResourceInstance,
    kahn_order,
)
from repro.core.keys import ResourceKey, Version
from repro.core.ports import ListType, RecordType, ScalarKind, ScalarType
from repro.core.registry import ResourceTypeRegistry
from repro.core.resource_type import ResourceType
from repro.library import standard_registry
from repro.library.fleet import FleetTopology, fleet_partial

SMALL = settings(max_examples=25, deadline=None, derandomize=True)
FUZZ = settings(max_examples=500, deadline=None)


# -- Version: the padded definitions, kept as the reference ------------------


def _padded(parts, width):
    return parts + (0,) * (width - len(parts))


def ref_eq(a, b):
    width = max(len(a), len(b))
    return _padded(a, width) == _padded(b, width)


def ref_lt(a, b):
    width = max(len(a), len(b))
    return _padded(a, width) < _padded(b, width)


def ref_hash(parts):
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return hash(parts)


class _Hashes:
    """An object whose hash is a given value: stands in for the old
    ``Version`` inside the old dataclass ``hash((name, version))``."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


PARTS = st.lists(
    st.one_of(st.sampled_from([0, 0, 0, 1, 2]), st.integers(-2, 12)),
    max_size=5,
).map(tuple)
NAMES = st.sampled_from(["Tomcat", "JDK", "Mac-OSX", "My App"])


def check_versions(a, b, name):
    va, vb = Version(a), Version(b)
    assert (va == vb) == ref_eq(a, b)
    assert (va != vb) == (not ref_eq(a, b))
    assert (va < vb) == ref_lt(a, b)
    assert (va <= vb) == (ref_lt(a, b) or ref_eq(a, b))
    assert (va > vb) == ref_lt(b, a)
    assert (va >= vb) == (ref_lt(b, a) or ref_eq(a, b))
    assert hash(va) == ref_hash(a)
    assert str(va) == ".".join(str(p) for p in a)
    ka, kb = ResourceKey(name, va), ResourceKey(name, vb)
    assert (ka == kb) == ref_eq(a, b)
    assert hash(ka) == hash((name, _Hashes(ref_hash(a))))
    if ref_eq(a, b):
        assert hash(ka) == hash(kb)
        assert kb in {ka: 1}


@SMALL
@given(PARTS, PARTS, NAMES)
@example((1,), (1, -1), "JDK")  # the implicit zero sorts above -1
@example((6, 0), (6, 0, 0, -2), "JDK")
@example((), (0, 0), "Server")
def test_version_matches_padded_definitions(a, b, name):
    check_versions(a, b, name)


@pytest.mark.fuzz
@FUZZ
@given(PARTS, PARTS, NAMES)
def test_version_matches_padded_definitions_fuzz(a, b, name):
    check_versions(a, b, name)


DOTTED = st.lists(st.integers(0, 20), min_size=1, max_size=5).map(tuple)


def check_keys_round_trip(parts, trailing, name):
    parts = parts + (0,) * trailing
    by_hand = ResourceKey(name, Version(parts))
    parsed = ResourceKey.parse(f"{name} {'.'.join(map(str, parts))}")
    stripped = ResourceKey(name, Version(parts[: len(parts) - trailing]))
    for key in (parsed, stripped):
        assert key == by_hand and hash(key) == hash(by_hand)
    for copied in (
        pickle.loads(pickle.dumps(by_hand)),
        copy.deepcopy(by_hand),
        copy.copy(by_hand),
    ):
        assert copied == by_hand == stripped
        assert hash(copied) == hash(by_hand)
        assert copied in {stripped: 1} and stripped in {copied: 1}
        assert str(copied) == str(by_hand)
    version = pickle.loads(pickle.dumps(by_hand.version))
    assert version == stripped.version and hash(version) == hash(stripped.version)


@SMALL
@given(DOTTED, st.integers(0, 3), NAMES)
def test_keys_survive_parse_pickle_and_copy(parts, trailing, name):
    check_keys_round_trip(parts, trailing, name)


@pytest.mark.fuzz
@FUZZ
@given(DOTTED, st.integers(0, 3), NAMES)
def test_keys_survive_parse_pickle_and_copy_fuzz(parts, trailing, name):
    check_keys_round_trip(parts, trailing, name)


def test_pickled_keys_hash_under_another_hash_seed():
    """A key pickled by an interpreter with a different string-hash seed
    still finds its equal in this one: what a key stores is data, not a
    hash value."""
    source = (
        "import pickle, sys\n"
        "from repro.core.keys import ResourceKey\n"
        "keys = [ResourceKey.parse(t) for t in ('Tomcat 6.0.0', 'Server')]\n"
        "sys.stdout.buffer.write(pickle.dumps(keys))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True,
        check=True,
    ).stdout
    tomcat, server = pickle.loads(out)
    table = {ResourceKey.parse("Tomcat 6"): "t", ResourceKey.parse("Server"): "s"}
    assert table[tomcat] == "t" and table[server] == "s"


# -- accepts: today's definitions, kept as the reference ---------------------


def ref_accepts(port_type, value):
    if isinstance(port_type, ScalarType):
        kind = port_type.kind
        if kind == ScalarKind.BOOL:
            return isinstance(value, bool)
        if kind in (ScalarKind.INT, ScalarKind.TCP_PORT):
            if not isinstance(value, int) or isinstance(value, bool):
                return False
            if kind == ScalarKind.TCP_PORT:
                return 0 <= value <= 65535
            return True
        if kind == ScalarKind.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return isinstance(value, str)
    if isinstance(port_type, RecordType):
        if not isinstance(value, Mapping):
            return False
        mine = port_type.field_map()
        if set(value.keys()) != set(mine.keys()):
            return False
        return all(ref_accepts(mine[name], value[name]) for name in mine)
    assert isinstance(port_type, ListType)
    return isinstance(value, (list, tuple)) and all(
        ref_accepts(port_type.element, item) for item in value
    )


class Hostname(str):
    pass


class Settings(dict):
    pass


FIELDS = st.sampled_from(["host", "port", "user", "db"])
SCALAR_TYPES = st.sampled_from([ScalarType(kind) for kind in ScalarKind])
PORT_TYPES = st.recursive(
    SCALAR_TYPES,
    lambda inner: st.one_of(
        inner.map(ListType),
        st.dictionaries(FIELDS, inner, max_size=3).map(
            lambda fields: RecordType.of(**fields)
        ),
    ),
    max_leaves=6,
)
SCALARS = st.one_of(
    st.sampled_from(
        [True, False, 0, 1, -1, 65535, 65536, 2 ** 70, 0.0, 1.5, -2.0,
         float("nan"), float("inf"), "", "x", Hostname("db.local"), None]
    ),
    st.integers(),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.text(max_size=3).map(Hostname),
)
MAPPINGS = (dict, OrderedDict, Settings, lambda d: MappingProxyType(dict(d)))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.tuples(
            st.sampled_from(MAPPINGS), st.dictionaries(FIELDS, inner, max_size=3)
        ).map(lambda pair: pair[0](pair[1])),
    ),
    max_leaves=8,
)


def shaped(port_type):
    """Values built from the type, so most records get past the key test;
    some lose a field or gain one."""
    if isinstance(port_type, ScalarType):
        return SCALARS
    if isinstance(port_type, ListType):
        items = st.lists(shaped(port_type.element), max_size=3)
        return st.one_of(items, items.map(tuple))
    fields = st.fixed_dictionaries(
        {name: shaped(t) for name, t in port_type.fields}
    )
    edits = st.one_of(
        st.just(lambda d: d),
        st.just(lambda d: dict(list(d.items())[1:])),
        st.just(lambda d: {**d, "extra": 1}),
    )
    return st.tuples(st.sampled_from(MAPPINGS), edits, fields).map(
        lambda t: t[0](t[1](t[2]))
    )


def check_accepts(data):
    port_type = data.draw(PORT_TYPES)
    value = data.draw(st.one_of(shaped(port_type), VALUES))
    assert port_type.accepts(value) == ref_accepts(port_type, value)


@SMALL
@given(st.data())
def test_accepts_matches_reference(data):
    check_accepts(data)


@pytest.mark.fuzz
@FUZZ
@given(st.data())
def test_accepts_matches_reference_fuzz(data):
    check_accepts(data)


@pytest.mark.parametrize("kind", list(ScalarKind))
@pytest.mark.parametrize(
    "value",
    [True, False, 0, 65535, 65536, -1, 3.5, float("nan"), "s",
     Hostname("h"), None, [], (), {}],
)
def test_every_scalar_kind_matches_reference(kind, value):
    port_type = ScalarType(kind)
    assert port_type.accepts(value) == ref_accepts(port_type, value)
    copied = pickle.loads(pickle.dumps(port_type))
    assert copied == port_type and copied.accepts(value) == ref_accepts(
        port_type, value
    )


def test_record_and_list_edge_cases():
    record = RecordType.of(host=ScalarType(ScalarKind.HOSTNAME),
                           port=ScalarType(ScalarKind.TCP_PORT))
    good = {"host": "h", "port": 80}
    for value, expected in [
        (good, True),
        (OrderedDict(good), True),
        (MappingProxyType(good), True),
        (Settings(good), True),
        ({"host": Hostname("h"), "port": 80}, True),
        ({"host": "h"}, False),
        ({**good, "extra": 1}, False),
        ({"host": "h", "port": True}, False),
        ({"host": "h", "port": 65536}, False),
        ([("host", "h"), ("port", 80)], False),
    ]:
        assert record.accepts(value) is expected
        assert ref_accepts(record, value) is expected
    listing = ListType(record)
    assert listing.accepts((good,)) and listing.accepts([good])
    assert not listing.accepts([good, {"host": "h"}])
    assert not listing.accepts(good)


# -- Kahn: the sorted-ready loop, kept as the reference ----------------------


def ref_kahn(upstream):
    in_degree = {iid: 0 for iid in upstream}
    dependents = {iid: [] for iid in upstream}
    for iid, ups in upstream.items():
        for up in ups:
            if up not in upstream:
                raise SpecError(f"instance {iid} links to missing instance {up}")
            in_degree[iid] += 1
            dependents[up].append(iid)
    ready = sorted(iid for iid, degree in in_degree.items() if degree == 0)
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for dependent in sorted(dependents[current]):
            in_degree[dependent] -= 1
            if in_degree[dependent] == 0:
                ready.append(dependent)
        ready.sort()
    if len(order) != len(upstream):
        # Named: every unordered id from which some id that reaches
        # itself can be reached along dependent links (on a cycle, or
        # between two).
        def reach(iid):
            seen, stack = set(), list(dependents[iid])
            while stack:
                current = stack.pop()
                if current not in seen:
                    seen.add(current)
                    stack.extend(dependents[current])
            return seen

        on_cycle = {iid for iid in upstream if iid in reach(iid)}
        remaining = sorted(
            iid for iid in set(upstream).difference(order)
            if iid in on_cycle or reach(iid) & on_cycle
        )
        raise CycleError(
            f"dependency cycle among instances: {', '.join(remaining)}"
        )
    return order


@st.composite
def graphs(draw):
    """An ``id -> upstream ids`` map: a random DAG over shuffled ids, with
    duplicate links, and sometimes a back edge that closes a cycle or a
    link to an id that is not there."""
    ids = draw(
        st.lists(
            st.text("abcdefgh_12", min_size=1, max_size=4),
            min_size=1, max_size=12, unique=True,
        )
    )
    upstream = {}
    for position, iid in enumerate(ids):
        ups = draw(st.lists(st.sampled_from(ids[:position]), max_size=4)) \
            if position else []
        upstream[iid] = ups
    twist = draw(st.sampled_from(["dag", "dag", "cycle", "missing"]))
    if twist == "cycle":
        first, last = ids[0], ids[-1]
        upstream[first] = upstream[first] + [last]
    elif twist == "missing":
        victim = draw(st.sampled_from(ids))
        upstream[victim] = upstream[victim] + ["~gone"]
    order = draw(st.permutations(ids))
    return {iid: upstream[iid] for iid in order}


def outcome(function, *args):
    try:
        return function(*args)
    except (CycleError, SpecError) as exc:
        return type(exc), str(exc)


def as_spec(upstream):
    return InstallSpec(
        ResourceInstance(
            id=iid,
            key=ResourceKey.parse("Node"),
            peers=tuple(
                DependencyLink("peer", InstanceRef(up, ResourceKey.parse("Node")))
                for up in ups
            ),
        )
        for iid, ups in upstream.items()
    )


def check_kahn(upstream):
    expected = outcome(ref_kahn, upstream)
    assert outcome(kahn_order, upstream) == expected
    spec_order = outcome(
        lambda: [i.id for i in as_spec(upstream).topological_order()]
    )
    assert spec_order == expected


@SMALL
@given(graphs())
def test_kahn_matches_sorted_ready_loop(upstream):
    check_kahn(upstream)


@pytest.mark.fuzz
@FUZZ
@given(graphs())
def test_kahn_matches_sorted_ready_loop_fuzz(upstream):
    check_kahn(upstream)


def test_kahn_cycle_and_self_loop_texts():
    assert outcome(kahn_order, {"b": ["a"], "a": ["b"], "c": []}) == (
        CycleError, "dependency cycle among instances: a, b"
    )
    assert outcome(kahn_order, {"a": ["a"]}) == (
        CycleError, "dependency cycle among instances: a"
    )
    # x sits between the a/b and c/d cycles and is named; t only trails.
    between = {"a": ["b"], "b": ["a"], "x": ["a"], "c": ["x", "d"],
               "d": ["c"], "t": ["c"]}
    assert outcome(kahn_order, between) == outcome(ref_kahn, between) == (
        CycleError, "dependency cycle among instances: a, b, c, d, x"
    )
    assert kahn_order({"b": ["a", "a"], "a": []}) == ["a", "b"]


# -- Guards: per-instance work stays a lookup -------------------------------


def count_calls(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_subtype_questions_per_instance_are_bounded(monkeypatch):
    """The 256-machine cold fleet asks at most four subtype questions per
    full-spec instance (20.4 when GraphGen, propagation and the static
    check each scanned keys per instance)."""
    registry = standard_registry()
    calls = count_calls(monkeypatch, ResourceTypeRegistry, "is_subtype")
    spec = ConfigurationEngine(registry, partition=True).configure(
        fleet_partial(FleetTopology(replicas=768, machines=256))
    ).spec
    assert len(spec) == 3840
    assert calls[0] <= 4 * len(spec), calls[0] / len(spec)


def test_propagation_plans_do_not_grow_with_the_fleet(monkeypatch):
    built = count_calls(monkeypatch, propagation, "_build_plan")
    counts = []
    for machines in (16, 64):
        before = built[0]
        ConfigurationEngine(standard_registry(), partition=True).configure(
            fleet_partial(FleetTopology(replicas=3 * machines, machines=machines))
        )
        counts.append(built[0] - before)
    assert counts[0] == counts[1] > 0, counts


def test_a_registry_change_rebuilds_only_what_is_asked_for(monkeypatch):
    registry = standard_registry()
    built = count_calls(monkeypatch, propagation, "_build_plan")
    key = ResourceKey.parse("Tomcat 6.0.18")
    plan = propagation.type_plan(registry, key)
    assert propagation.type_plan(registry, key) is plan and built[0] == 1
    registry.register(ResourceType(key=ResourceKey.parse("Scratch 1")))
    assert propagation.type_plan(registry, key) is not plan
    assert built[0] == 2
    assert [p.name for p in plan.reverse_fillable] == ["extra_config"]
