"""Hypergraph generation: GraphGen(R, I), Lemma 1, Figure 5."""

import pytest

from repro.core import (
    PartialInstallSpec,
    PartialInstance,
    as_key,
    define,
    ResourceTypeRegistry,
    STRING,
)
from repro.core.errors import (
    ConfigurationError,
    MissingInsideError,
    SpecError,
)
from repro.core.resource_type import DependencyKind
from repro.config import generate_graph, lower_alternatives


class TestOpenMrsGraph:
    """The Figure 5 structure, built from the Figure 2 partial spec."""

    @pytest.fixture
    def graph(self, registry, openmrs_partial):
        return generate_graph(registry, openmrs_partial)

    def test_six_nodes(self, graph):
        ids = {n.instance_id for n in graph.nodes()}
        assert ids == {"server", "tomcat", "openmrs", "jdk", "jre", "mysql"}

    def test_partial_nodes_marked(self, graph):
        marked = {n.instance_id for n in graph.nodes() if n.from_partial}
        assert marked == {"server", "tomcat", "openmrs"}

    def test_inside_edges(self, graph):
        inside = {
            (e.source_id, e.targets[0])
            for e in graph.edges()
            if e.kind == DependencyKind.INSIDE
        }
        assert inside == {
            ("tomcat", "server"),
            ("openmrs", "tomcat"),
            ("jdk", "server"),
            ("jre", "server"),
            ("mysql", "server"),
        }

    def test_java_hyperedges(self, graph):
        env_edges = [
            e for e in graph.edges() if e.kind == DependencyKind.ENVIRONMENT
        ]
        java_edges = [
            e for e in env_edges if set(e.targets) == {"jdk", "jre"}
        ]
        assert {e.source_id for e in java_edges} == {"tomcat", "openmrs"}

    def test_peer_edge(self, graph):
        peers = [e for e in graph.edges() if e.kind == DependencyKind.PEER]
        assert [(e.source_id, e.targets) for e in peers] == [
            ("openmrs", ("mysql",))
        ]

    def test_lemma1_every_node_reachable(self, graph, registry):
        # Every non-partial node is (transitively) depended on by some
        # partial-spec node.
        reachable = set()
        frontier = [n.instance_id for n in graph.nodes() if n.from_partial]
        while frontier:
            current = frontier.pop()
            if current in reachable:
                continue
            reachable.add(current)
            for edge in graph.edges_from(current):
                frontier.extend(edge.targets)
        assert reachable == {n.instance_id for n in graph.nodes()}

    def test_machine_of(self, graph):
        for node in graph.nodes():
            assert graph.machine_of(node.instance_id) == "server"

    def test_nodes_on_machine(self, graph):
        assert len(graph.nodes_on_machine("server")) == 6


class TestErrors:
    def test_abstract_in_partial_rejected(self, registry):
        partial = PartialInstallSpec(
            [PartialInstance("s", as_key("Server"))]
        )
        with pytest.raises(SpecError):
            generate_graph(registry, partial)

    def test_unresolved_inside_rejected(self, registry):
        partial = PartialInstallSpec(
            [PartialInstance("tomcat", as_key("Tomcat 6.0.18"))]
        )
        with pytest.raises(MissingInsideError):
            generate_graph(registry, partial)

    def test_unknown_inside_reference_rejected(self, registry):
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    "tomcat", as_key("Tomcat 6.0.18"), inside_id="ghost"
                )
            ]
        )
        with pytest.raises(SpecError):
            generate_graph(registry, partial)

    def test_incompatible_container_rejected(self, registry):
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    "server", as_key("Mac-OSX 10.6"),
                    config={"hostname": "h"},
                ),
                PartialInstance(
                    "mysql", as_key("MySQL 5.1"), inside_id="server"
                ),
                # OpenMRS must live inside Tomcat, not directly in a server.
                PartialInstance(
                    "openmrs", as_key("OpenMRS 1.8"), inside_id="server"
                ),
            ]
        )
        with pytest.raises(ConfigurationError):
            generate_graph(registry, partial)

    def test_machine_with_container_rejected(self, registry):
        partial = PartialInstallSpec(
            [
                PartialInstance("a", as_key("Mac-OSX 10.6"),
                                config={"hostname": "a"}),
                PartialInstance(
                    "b", as_key("Mac-OSX 10.6"), inside_id="a"
                ),
            ]
        )
        with pytest.raises(SpecError):
            generate_graph(registry, partial)


class TestMatchingRules:
    def test_pinned_instance_reused(self, registry, openmrs_partial):
        # Pin a MySQL instance; the peer dependency must reuse it instead
        # of materialising a new node.
        openmrs_partial.add(
            PartialInstance("mydb", as_key("MySQL 5.1"), inside_id="server")
        )
        graph = generate_graph(registry, openmrs_partial)
        mysql_nodes = [
            n for n in graph.nodes() if n.key == as_key("MySQL 5.1")
        ]
        assert [n.instance_id for n in mysql_nodes] == ["mydb"]

    def test_environment_requires_same_machine(self, registry):
        # Java on another machine must NOT satisfy Tomcat's env dep.
        partial = PartialInstallSpec(
            [
                PartialInstance("m1", as_key("Mac-OSX 10.6"),
                                config={"hostname": "m1"}),
                PartialInstance("m2", as_key("Mac-OSX 10.6"),
                                config={"hostname": "m2"}),
                PartialInstance("jdk_far", as_key("JDK 1.6"),
                                inside_id="m2"),
                PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                                inside_id="m1"),
            ]
        )
        graph = generate_graph(registry, partial)
        tomcat_env = [
            e
            for e in graph.edges_from("tomcat")
            if e.kind == DependencyKind.ENVIRONMENT
        ][0]
        assert "jdk_far" not in tomcat_env.targets
        # A fresh JDK was materialised on m1 instead.
        new_jdk = [t for t in tomcat_env.targets if t != "jdk_far"]
        for target in new_jdk:
            assert graph.machine_of(target) == "m1"

    def test_peer_may_cross_machines(self, registry):
        partial = PartialInstallSpec(
            [
                PartialInstance("m1", as_key("Mac-OSX 10.6"),
                                config={"hostname": "m1"}),
                PartialInstance("m2", as_key("Mac-OSX 10.6"),
                                config={"hostname": "m2"}),
                PartialInstance("db_far", as_key("MySQL 5.1"),
                                inside_id="m2"),
                PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                                inside_id="m1"),
                PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                                inside_id="tomcat"),
            ]
        )
        graph = generate_graph(registry, partial)
        peer = [
            e
            for e in graph.edges_from("openmrs")
            if e.kind == DependencyKind.PEER
        ][0]
        assert peer.targets == ("db_far",)

    def test_new_peer_colocated(self, registry, openmrs_partial):
        # The conservative placement rule: the materialised MySQL lives on
        # the dependent's machine.
        graph = generate_graph(registry, openmrs_partial)
        assert graph.machine_of("mysql") == "server"

    def test_fresh_ids_deterministic(self, registry, openmrs_partial):
        g1 = generate_graph(registry, openmrs_partial)
        g2 = generate_graph(registry, openmrs_partial)
        assert sorted(n.instance_id for n in g1.nodes()) == sorted(
            n.instance_id for n in g2.nodes()
        )


class TestLowerAlternatives:
    def test_abstract_expands_to_frontier(self, registry):
        tomcat = registry.effective(as_key("Tomcat 6.0.18"))
        java_dep = tomcat.environment[0]
        lowered = lower_alternatives(registry, java_dep)
        assert {alt.key for alt in lowered} == {
            as_key("JDK 1.6"),
            as_key("JRE 1.6"),
        }

    def test_concrete_passes_through(self, registry):
        openmrs = registry.effective(as_key("OpenMRS 1.8"))
        peer = openmrs.peers[0]
        lowered = lower_alternatives(registry, peer)
        assert [alt.key for alt in lowered] == [as_key("MySQL 5.1")]

    def test_mapping_inherited_by_frontier(self, registry):
        tomcat = registry.effective(as_key("Tomcat 6.0.18"))
        lowered = lower_alternatives(registry, tomcat.environment[0])
        for alt in lowered:
            assert dict(alt.port_mapping.entries) == {"java": "java"}
