"""GraphGen per machine group against one global run.

:mod:`repro.config.groups` runs GraphGen on each machine group alone and
assembles the results; :func:`generate_graph` followed by
:func:`partition_graph` over the whole spec is the oracle.  The two must
agree on every node and its order, every edge and its order, and every
component's membership, index and order -- or the grouped path must
decline the spec.  Behind them, a session (grouped) must configure
exactly what a cold engine (global) configures.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.config.groups import (
    GroupShape,
    assemble,
    assembled,
    split_by_machine,
)
from repro.config.hypergraph import generate_graph
from repro.config.partition import partition_graph
from repro.core import (
    PartialInstallSpec,
    PartialInstance,
    ResourceTypeRegistry,
    STRING,
    as_key,
    define,
)
from repro.core.errors import EngageError, SpecError
from repro.library import standard_registry
from repro.library.fleet import FleetTopology, fleet_spec_entries

from tests.test_session import FleetEditor, outcome

REGISTRY = standard_registry()


# -- The check -----------------------------------------------------------


def grouped(registry, partial):
    """The grouped assembly of ``partial``: ``(graph, components)``, or
    None when the grouped path declines it."""
    machines = split_by_machine(partial)
    if machines is None:
        return None
    shapes = [
        GroupShape(registry, [machines.instances[i] for i in members])
        for members in machines.members
    ]
    if any(shape.escaped for shape in shapes):
        return None
    names, generated = assemble(machines, shapes)
    return assembled(machines, shapes, names, generated)


def nodes_of(graph):
    return [
        (node.instance_id, node.key, node.from_partial, node.inside_id,
         node.explicit_config)
        for node in graph.nodes()
    ]


def edges_of(graph):
    return [
        (edge.source_id, edge.kind, edge.targets, edge.alternatives)
        for edge in graph.edges()
    ]


def components_of(components):
    return [
        (component.index, component.node_ids, component.pinned,
         nodes_of(component.graph), edges_of(component.graph))
        for component in components
    ]


def check_grouped_is_global(registry, partial) -> bool:
    """Assert the grouped assembly equals the global run; returns
    whether the grouped path answered at all."""
    answer = grouped(registry, partial)
    try:
        graph = generate_graph(registry, partial)
    except EngageError:
        # Only the global run may raise, so the grouped one must decline.
        assert answer is None
        return False
    if answer is None:
        return False
    got_graph, got_components = answer
    assert nodes_of(got_graph) == nodes_of(graph)
    assert edges_of(got_graph) == edges_of(graph)
    assert components_of(got_components) == components_of(
        partition_graph(graph).components
    )
    return True


def check_session_is_engine(session, engine, partial):
    assert outcome(session.configure, partial) == outcome(
        engine.configure, partial
    )


# -- The search ----------------------------------------------------------

STACKS = st.lists(
    st.sampled_from(("openmrs", "jasper", "django")),
    min_size=1, max_size=3, unique=True,
).map(tuple)

EDITS = st.lists(
    st.integers(min_value=0, max_value=len(FleetEditor.EDITS) - 1),
    max_size=6,
)


def walk(seed, machines, replicas, stacks, shared_broker, edits):
    """A drawn mixed fleet and an edit sequence over it: every step's
    grouped assembly against the global run, and a grouped session
    against a cold engine.  With ``shared_broker`` only the first
    machine keeps its RabbitMQ brokers, so every other machine's Celery
    peers across machines and the grouped path must decline."""
    editor = FleetEditor(seed, machines=machines, replicas=replicas)
    editor.entries = fleet_spec_entries(
        FleetTopology(replicas=replicas, machines=machines, stacks=stacks)
    )
    if shared_broker:
        editor.entries = [
            entry for entry in editor.entries
            if entry.key.name != "RabbitMQ"
            or entry.inside_id == editor.machines()[0]
        ]
    session = ConfigurationSession(
        REGISTRY, partition=True
    )
    engine = ConfigurationEngine(
        REGISTRY, partition=True
    )
    steps = [None] + [FleetEditor.EDITS[index] for index in edits]
    for edit in steps:
        if edit is not None and not edit(editor):
            continue
        partial = editor.partial()
        check_grouped_is_global(REGISTRY, partial)
        check_session_is_engine(session, engine, partial)


FLEETS = dict(
    seed=st.integers(min_value=0, max_value=2**16),
    machines=st.integers(min_value=1, max_value=4),
    replicas=st.integers(min_value=1, max_value=8),
    stacks=STACKS,
    shared_broker=st.booleans(),
    edits=EDITS,
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(**FLEETS)
@example(seed=0, machines=2, replicas=2, stacks=("django",),
         shared_broker=True, edits=[])
def test_grouped_is_global_over_edits(**draw):
    walk(**draw)


@pytest.mark.fuzz
@settings(max_examples=500, deadline=None)
@given(**FLEETS)
def test_grouped_is_global_over_edits_fuzz(**draw):
    walk(**draw)


# -- Pinned cases --------------------------------------------------------


def machine(name):
    return PartialInstance(
        name, as_key("Ubuntu-Linux 10.4"), config={"hostname": name}
    )


def gunicorn(name, host, port):
    return PartialInstance(
        name, as_key("Gunicorn 0.13"), inside_id=host, config={"port": port}
    )


def django_fleet(replicas, machines=8):
    return fleet_spec_entries(
        FleetTopology(
            replicas=replicas, machines=machines, stacks=("django",)
        )
    )


class TestPinnedCases:
    @pytest.mark.parametrize(
        "pinned, host, runtimes",
        [
            # host0's runtime is python_runtime; the next one would be
            # python_runtime_2, which the pin holds, so host1's is
            # python_runtime_3 -- though host1's group alone calls it
            # python_runtime.
            ("python_runtime_2", "host0",
             [("python_runtime", "host0"), ("python_runtime_3", "host1")]),
            # The pin sits in host1's group and takes host0's local name.
            ("python_runtime", "host1",
             [("python_runtime_2", "host0"), ("python_runtime_3", "host1")]),
        ],
    )
    def test_a_pinned_id_takes_a_generated_slug(self, pinned, host, runtimes):
        partial = PartialInstallSpec([
            machine("host0"), machine("host1"),
            gunicorn("web0", "host0", 8000),
            PartialInstance(pinned, as_key("Redis 2.4"),
                            inside_id=host, config={"port": 16379}),
            gunicorn("web1", "host1", 8001),
        ])
        assert check_grouped_is_global(REGISTRY, partial)
        graph, _ = grouped(REGISTRY, partial)
        assert [
            (node.instance_id, node.inside_id)
            for node in graph.nodes() if not node.from_partial
        ] == runtimes

    def test_removing_a_machines_first_replica_renumbers(self):
        # Without web000 the first Gunicorn is host001's, so every
        # machine's runtime moves down one name and host000's is last.
        fleet = django_fleet(16)
        shifted = [e for e in fleet if not e.id.endswith("000")
                   or e.inside_id is None]
        assert check_grouped_is_global(REGISTRY, PartialInstallSpec(shifted))
        session = ConfigurationSession(
            REGISTRY, partition=True
        )
        engine = ConfigurationEngine(
            REGISTRY, partition=True
        )
        check_session_is_engine(session, engine, PartialInstallSpec(fleet))
        result = session.configure(PartialInstallSpec(shifted))
        assert result.cache.groups_generated == 1
        assert result.cache.groups_reused == 7
        check_session_is_engine(session, engine, PartialInstallSpec(shifted))
        runtimes = {
            node.inside_id: node.instance_id
            for node in result.graph.nodes() if not node.from_partial
        }
        assert runtimes["host001"] == "python_runtime"
        assert runtimes["host000"] == "python_runtime_8"

    def test_a_hub_spec_takes_the_global_path(self):
        hosts = [machine(f"host{m}") for m in range(3)]
        entries = hosts + [
            PartialInstance("hubbroker", as_key("RabbitMQ 2.7"),
                            inside_id="host0"),
        ]
        for replica, host in enumerate(["host0", "host1", "host2"]):
            entries += [
                gunicorn(f"web{replica}", host, 8000 + replica),
                PartialInstance(f"worker{replica}", as_key("Celery 2.4"),
                                inside_id=host),
            ]
        partial = PartialInstallSpec(entries)
        assert not check_grouped_is_global(REGISTRY, partial)
        assert grouped(REGISTRY, partial) is None
        session = ConfigurationSession(
            REGISTRY, partition=True
        )
        engine = ConfigurationEngine(
            REGISTRY, partition=True
        )
        check_session_is_engine(session, engine, partial)
        assert session.stats.groups_reused == 0

    def test_two_generated_candidates_tie_and_go_global(self):
        # m3's Lib is lib_4 globally but lib in m3's group alone, and
        # its Lib-3 is lib_3_2 / lib_3: c3 picks the lowest id, which
        # is the Lib-3 globally and the Lib locally.
        registry = tie_registry()
        hosts = [
            PartialInstance(f"m{i}", as_key("M 1"), config={"hostname": "m"})
            for i in range(4)
        ]
        partial = PartialInstallSpec(hosts + [
            PartialInstance(f"a{i}", as_key("A 1"), inside_id=f"m{i}")
            for i in range(4)
        ] + [
            PartialInstance("b3", as_key("B 1"), inside_id="m3"),
            PartialInstance("c3", as_key("C 1"), inside_id="m3"),
        ])
        assert not check_grouped_is_global(registry, partial)
        machines = split_by_machine(partial)
        local = GroupShape(
            registry, [machines.instances[i] for i in machines.members[3]]
        )
        assert local.escaped
        assert local.graph.edges_from("c3")[-1].targets == ("lib",)
        graph = generate_graph(registry, partial)
        assert graph.edges_from("c3")[-1].targets == ("lib_3_2",)
        session = ConfigurationSession(
            registry, partition=True
        )
        engine = ConfigurationEngine(
            registry, partition=True
        )
        check_session_is_engine(session, engine, partial)
        assert session.stats.groups_reused == 0
        # Without c3 nothing is contested, and the grouped path answers.
        calm = PartialInstallSpec(list(partial)[:-1])
        assert check_grouped_is_global(registry, calm)

    @pytest.mark.parametrize("inside", ["nosuch", "web1"])
    def test_a_dangling_or_cyclic_chain_is_the_engines_error(self, inside):
        partial = PartialInstallSpec([
            machine("host0"),
            gunicorn("web0", "host0", 8000),
            dataclasses.replace(gunicorn("web1", "host0", 8001),
                                inside_id=inside),
        ])
        assert split_by_machine(partial) is None
        with pytest.raises(EngageError) as expected:
            ConfigurationEngine(REGISTRY, partition=True).configure(partial)
        session = ConfigurationSession(REGISTRY, partition=True)
        with pytest.raises(type(expected.value)) as got:
            session.configure(partial)
        assert str(got.value) == str(expected.value)
        if inside == "nosuch":
            assert isinstance(got.value, SpecError)


def tie_registry() -> ResourceTypeRegistry:
    """A needs a Lib, B a Lib-3 (a Lib subtype whose slug is ``lib_3``)
    and C a Lib again: once a machine has both generated nodes, both
    match C's query and only their ids can decide."""
    registry = ResourceTypeRegistry()
    registry.register(
        define("M", "1", driver="machine")
        .config("hostname", STRING, "m")
        .build()
    )
    registry.register(define("Lib", "1").inside("M 1").build())
    registry.register(
        define("Lib-3", "1", extends="Lib 1").inside("M 1").build()
    )
    for name, needs in (("A", "Lib 1"), ("B", "Lib-3 1"), ("C", "Lib 1")):
        registry.register(define(name, "1").inside("M 1").env(needs).build())
    return registry
