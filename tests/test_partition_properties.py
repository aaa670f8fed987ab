"""Component-partitioned configuration equals the monolithic pipeline.

The tentpole property: for every partial installation specification,
an engine or session built with ``partition=True`` produces the same
full specification, named model, deployed set, and aggregate constraint
sizes as the monolithic path, byte for byte; and on unsatisfiable input
both paths raise :class:`UnsatisfiableError` with the *same* minimal
conflict diagnosis.

Exercised three ways: direct partitioner unit tests, the checked-in
example stacks, and a seeded random fleet corpus (the ``fuzz``-marked
classes run the full ≥200-case corpus; the unmarked smoke subsets keep
tier-1 coverage).
"""

from __future__ import annotations

import pytest

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.config.hypergraph import generate_graph
from repro.config.partition import merge_component_specs, partition_graph
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import UnsatisfiableError
from repro.dsl import full_to_json, partial_from_json
from repro.library import standard_registry
from repro.library.fleet import FleetTopology, fleet_partial

from tests.test_fuzz import conflict_mutant, random_fleet_partial

REGISTRY = standard_registry()

SMOKE_SEEDS = list(range(20))
CORPUS_SEEDS = list(range(200))
MUTANT_SMOKE_SEEDS = list(range(5))
MUTANT_CORPUS_SEEDS = list(range(40))


def assert_equivalent(partial: PartialInstallSpec) -> None:
    """Partitioned output (engine, cold session, warm session) is
    bit-identical to the monolithic engine's."""
    mono = ConfigurationEngine(REGISTRY).configure(partial)
    part = ConfigurationEngine(REGISTRY, partition=True).configure(partial)
    expected = full_to_json(mono.spec)

    assert full_to_json(part.spec) == expected
    assert part.model == mono.model
    assert part.deployed_ids == mono.deployed_ids
    assert part.partition is not None
    assert part.solver_stats.components == part.partition.count
    assert part.constraint_stats.variables == mono.constraint_stats.variables
    assert part.constraint_stats.clauses == mono.constraint_stats.clauses
    assert part.constraint_stats.hyperedges == (
        mono.constraint_stats.hyperedges
    )

    session = ConfigurationSession(REGISTRY, partition=True)
    cold = session.configure(partial)
    warm = session.configure(partial)
    assert full_to_json(cold.spec) == expected
    assert full_to_json(warm.spec) == expected
    assert cold.model == warm.model == mono.model
    assert warm.cache.graph_hit and warm.cache.solver_reused


def assert_same_diagnosis(partial: PartialInstallSpec) -> None:
    """Both paths refuse with the same Theorem 1 message/diagnosis."""
    with pytest.raises(UnsatisfiableError) as mono_exc:
        ConfigurationEngine(REGISTRY).configure(partial)
    with pytest.raises(UnsatisfiableError) as part_exc:
        ConfigurationEngine(REGISTRY, partition=True).configure(partial)
    with pytest.raises(UnsatisfiableError) as session_exc:
        ConfigurationSession(REGISTRY, partition=True).configure(partial)
    assert str(part_exc.value) == str(mono_exc.value)
    assert str(session_exc.value) == str(mono_exc.value)


def figure2():
    return PartialInstallSpec([
        PartialInstance("server", as_key("Mac-OSX 10.6"),
                        config={"hostname": "demotest"}),
        PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                        inside_id="server"),
        PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                        inside_id="tomcat"),
    ])


class TestPartitioner:
    """partition_graph: a true partition, machine-aligned on fleets."""

    def test_single_stack_is_one_component(self):
        graph = generate_graph(REGISTRY, figure2())
        parts = partition_graph(graph)
        assert len(parts) == 1
        assert set(parts.components[0].node_ids) == {
            node.instance_id for node in graph.nodes()
        }

    def test_fleet_has_one_component_per_machine(self):
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        assert len(parts) == 3
        for component in parts.components:
            machines = {
                graph.machine_of(node_id) for node_id in component.node_ids
            }
            assert len(machines) == 1

    def test_components_partition_nodes_and_edges(self):
        partial = fleet_partial(FleetTopology(replicas=5, machines=2))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        all_ids = [
            node_id
            for component in parts.components
            for node_id in component.node_ids
        ]
        assert len(all_ids) == len(set(all_ids)) == len(graph)
        assert sum(
            len(component.graph.edges()) for component in parts.components
        ) == len(graph.edges())
        for component in parts.components:
            members = set(component.node_ids)
            for edge in component.graph.edges():
                assert edge.source_id in members
                assert set(edge.targets) <= members

    def test_component_of_covers_every_node(self):
        partial = fleet_partial(FleetTopology(replicas=4, machines=4))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        for node in graph.nodes():
            index = parts.component_of[node.instance_id]
            assert node.instance_id in parts.components[index].node_ids

    def test_components_numbered_by_first_appearance(self):
        partial = fleet_partial(FleetTopology(replicas=4, machines=2))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        seen: list[int] = []
        for node in graph.nodes():
            index = parts.component_of[node.instance_id]
            if index not in seen:
                seen.append(index)
        assert seen == sorted(seen)

    def test_pinned_sets_are_component_local(self):
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        pinned = {
            node.instance_id
            for node in graph.nodes()
            if node.from_partial
        }
        assert set().union(
            *(component.pinned for component in parts.components)
        ) == pinned


class TestMergeDeterminism:
    def test_merge_reproduces_global_topological_order(self):
        """The k-way merge of per-component orders equals the global
        Kahn order -- the id sequence of the monolithic spec."""
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        mono = ConfigurationEngine(REGISTRY).configure(partial)
        part = ConfigurationEngine(
            REGISTRY, partition=True
        ).configure(partial)
        assert [i.id for i in part.spec] == [i.id for i in mono.spec]

    def test_merge_of_empty_input_is_empty(self):
        assert len(merge_component_specs([])) == 0


class TestEngineContract:
    def test_constructor_mode_decides(self):
        """The mode is the one the engine was built with; a call cannot
        change it."""
        part = ConfigurationEngine(REGISTRY, partition=True)
        assert part.configure(figure2()).partition is not None
        assert ConfigurationEngine(REGISTRY).configure(
            figure2()
        ).partition is None
        with pytest.raises(TypeError):
            part.configure(figure2(), partition=False)

    def test_empty_partial(self):
        result = ConfigurationEngine(
            REGISTRY, partition=True
        ).configure(PartialInstallSpec())
        assert len(result.spec) == 0
        assert result.partition.count == 0
        assert result.solver_stats.components == 0

    def test_component_spans_carry_index_and_nodes(self):
        from repro.obs import Tracer

        tracer = Tracer()
        result = ConfigurationEngine(
            REGISTRY, partition=True, tracer=tracer
        ).configure(fleet_partial(FleetTopology(replicas=6, machines=3)))
        spans = [
            span for span in tracer.spans(category="config")
            if span.name.startswith("configure:component[")
        ]
        assert [span.name for span in spans] == [
            f"configure:component[{component.index}]"
            for component in result.partition.components
        ]
        for span, component in zip(spans, result.partition.components):
            assert span.args["component"] == component.index
            assert span.args["nodes"] == component.nodes > 0
        # Stacked in the order they ran: each starts where the last ended.
        for before, after in zip(spans, spans[1:]):
            assert after.timestamp == pytest.approx(before.end)

    def test_partition_info_shape(self):
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        result = ConfigurationEngine(
            REGISTRY, partition=True
        ).configure(partial)
        info = result.partition
        assert info.count == 3
        assert info.largest == max(c.nodes for c in info.components)
        assert sum(c.nodes for c in info.components) == len(result.graph)
        assert all(c.decisions >= 0 for c in info.components)
        assert result.timings.partition_ms >= 0.0


def small_hub(machines: int = 3) -> PartialInstallSpec:
    """Every machine's Celery and OpenMRS peer to the one RabbitMQ and
    the one MySQL on ``host0``: a single connected component."""
    entries = [
        PartialInstance(f"host{m}", as_key("Ubuntu-Linux 10.4"),
                        config={"hostname": f"hub-{m}"})
        for m in range(machines)
    ]
    entries += [
        PartialInstance("hubbroker", as_key("RabbitMQ 2.7"),
                        inside_id="host0"),
        PartialInstance("hubdb", as_key("MySQL 5.1"), inside_id="host0"),
    ]
    for m in range(machines):
        entries += [
            PartialInstance(f"worker{m}", as_key("Celery 2.4"),
                            inside_id=f"host{m}"),
            PartialInstance(f"tomcat{m}", as_key("Tomcat 6.0.18"),
                            inside_id=f"host{m}"),
            PartialInstance(f"openmrs{m}", as_key("OpenMRS 1.8"),
                            inside_id=f"tomcat{m}"),
        ]
    return PartialInstallSpec(entries)


class TestMonolithicIsTheOneComponentCase:
    """``partition=False`` runs the same per-component pipeline over the
    whole graph as its only component."""

    @pytest.mark.parametrize(
        "front_end", [ConfigurationEngine, ConfigurationSession]
    )
    def test_connected_graph_is_mode_independent(self, front_end):
        monolithic = front_end(REGISTRY)
        partitioned = front_end(REGISTRY, partition=True)
        for _ in range(2):  # the session's second round is all-warm
            mono = monolithic.configure(small_hub())
            part = partitioned.configure(small_hub())
            assert part.partition.count == 1
            assert full_to_json(part.spec) == full_to_json(mono.spec)
            assert part.model == mono.model
            assert part.deployed_ids == mono.deployed_ids
            assert part.constraint_stats == mono.constraint_stats

    def test_monolithic_never_partitions(self, monkeypatch):
        from repro.config import partition, session as session_module

        calls = []

        def counting(graph):
            calls.append(graph)
            return partition.partition_graph(graph)

        monkeypatch.setattr(session_module, "partition_graph", counting)
        ConfigurationEngine(REGISTRY).configure(figure2())
        session = ConfigurationSession(REGISTRY)
        session.configure(figure2())
        session.configure(figure2())
        assert calls == []
        ConfigurationEngine(REGISTRY, partition=True).configure(figure2())
        session = ConfigurationSession(REGISTRY, partition=True)
        session.configure(figure2())
        session.configure(figure2())  # cached split
        assert len(calls) == 2


class TestExampleEquivalence:
    def test_figure2_openmrs(self):
        assert_equivalent(figure2())

    def test_checked_in_fleet_example(self):
        with open("examples/stacks/fleet.json", encoding="utf-8") as handle:
            assert_equivalent(partial_from_json(handle.read()))

    def test_fleet_example_matches_generator(self):
        """The checked-in example is exactly the default generator
        output (regenerate with ``python -m repro.library.fleet``)."""
        from repro.library.fleet import fleet_spec_json

        with open("examples/stacks/fleet.json", encoding="utf-8") as handle:
            assert handle.read() == fleet_spec_json(FleetTopology())


class TestCorpusSmoke:
    """A tier-1-sized slice of the seeded corpus."""

    def test_generator_covers_both_shapes(self):
        counts = set()
        for seed in range(50):
            graph = generate_graph(REGISTRY, random_fleet_partial(seed))
            counts.add(len(partition_graph(graph)))
        assert 1 in counts
        assert max(counts) >= 3

    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_equivalent(self, seed):
        assert_equivalent(random_fleet_partial(seed))

    @pytest.mark.parametrize("seed", MUTANT_SMOKE_SEEDS)
    def test_same_diagnosis(self, seed):
        assert_same_diagnosis(conflict_mutant(seed))


@pytest.mark.fuzz
class TestCorpusFull:
    """The full seeded corpus (CI fuzz job; excluded from tier-1)."""

    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_equivalent(self, seed):
        assert_equivalent(random_fleet_partial(seed))

    @pytest.mark.parametrize("seed", MUTANT_CORPUS_SEEDS)
    def test_same_diagnosis(self, seed):
        assert_same_diagnosis(conflict_mutant(seed))
