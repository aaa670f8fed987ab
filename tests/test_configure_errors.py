"""Every configure and static-check error keeps its type and its text.

Two routes reach the same mistakes: the engine, from a partial spec (or
a graph tampered with between GraphGen and propagation), and a
hand-edited full specification going through ``check_spec``.  Each test
pins the exact message, so a rewrite of how the engine resolves a type's
facts cannot change what a user reads.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.core import InstallSpec, PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import (
    ConfigurationError,
    CycleError,
    MissingInsideError,
    PortError,
    PortTypeError,
    SpecError,
    TypecheckError,
)
from repro.core.resource_type import DependencyAlternative, DependencyKind, PortMapping
from repro.config import ConfigurationEngine, check_spec, spec_problems
from repro.config.constraints import generate_constraints, selected_nodes
from repro.config.engine import canonical_model
from repro.config.hypergraph import HyperEdge, generate_graph
from repro.config.propagation import propagate
from repro.sat.solver import CdclSolver

replace = dataclasses.replace

MYSQL_PEER = "peer (MySQL 5.1 {database -> database})"
JAVA_ENV = "environment (Java {java -> java})"


def server(**config):
    return PartialInstance(
        "server", as_key("Mac-OSX 10.6"), config=config or {"hostname": "h"}
    )


def configure(registry, *entries):
    return ConfigurationEngine(registry).configure(PartialInstallSpec(entries))


def raises_exactly(error, message):
    """``pytest.raises`` on the whole message, not a search in it."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


class TestEngineErrors:
    def test_unknown_explicit_config(self, registry):
        with raises_exactly(PortError, "Mac-OSX 10.6 has no config port 'hostnam'"):
            configure(registry, server(hostnam="typo"))

    def test_mistyped_explicit_config(self, registry):
        tomcat = PartialInstance(
            "tomcat", as_key("Tomcat 6.0.18"), inside_id="server",
            config={"manager_port": "eighty"},
        )
        with raises_exactly(
            PortTypeError,
            "tomcat: value 'eighty' does not inhabit type tcp_port of port "
            "'manager_port'",
        ):
            configure(registry, server(), tomcat)

    def test_out_of_range_explicit_config(self, registry):
        tomcat = PartialInstance(
            "tomcat", as_key("Tomcat 6.0.18"), inside_id="server",
            config={"manager_port": 70000},
        )
        with raises_exactly(
            PortTypeError,
            "tomcat: value 70000 does not inhabit type tcp_port of port "
            "'manager_port'",
        ):
            configure(registry, server(), tomcat)

    def test_explicit_config_without_a_value(self, registry):
        tomcat = PartialInstance(
            "tomcat", as_key("Tomcat 6.0.18"), inside_id="server",
            config={"manager_port": None},
        )
        with raises_exactly(
            ConfigurationError,
            "tomcat: port 'manager_port' has no value (no default and no "
            "explicit assignment)",
        ):
            configure(registry, server(), tomcat)

    def test_abstract_instantiation(self, registry):
        with raises_exactly(
            SpecError,
            "partial spec instantiates abstract type Database (instance 'db')",
        ):
            configure(
                registry, server(),
                PartialInstance("db", as_key("Database"), inside_id="server"),
            )

    def test_missing_inside_link(self, registry):
        with raises_exactly(
            MissingInsideError,
            "instance 'tomcat' of Tomcat 6.0.18 does not resolve its inside "
            "dependency",
        ):
            configure(
                registry, server(),
                PartialInstance("tomcat", as_key("Tomcat 6.0.18")),
            )

    def test_inside_unknown_instance(self, registry):
        with raises_exactly(
            SpecError, "instance 'tomcat' is inside unknown instance 'nowhere'"
        ):
            configure(
                registry, server(),
                PartialInstance(
                    "tomcat", as_key("Tomcat 6.0.18"), inside_id="nowhere"
                ),
            )

    def test_machine_with_a_container(self, registry):
        with raises_exactly(
            SpecError,
            "instance 'server2' of machine type Mac-OSX 10.6 must not have a "
            "container",
        ):
            configure(
                registry, server(),
                PartialInstance(
                    "server2", as_key("Mac-OSX 10.6"), inside_id="server"
                ),
            )

    def test_wrong_container(self, registry):
        with raises_exactly(
            ConfigurationError,
            "instance 'openmrs': container Mac-OSX 10.6 does not satisfy "
            "inside dependency ['Tomcat 5.5', 'Tomcat 6.0.18']",
        ):
            configure(
                registry, server(),
                PartialInstance(
                    "openmrs", as_key("OpenMRS 1.8"), inside_id="server"
                ),
            )


def solve(graph):
    """``(deployed, choices)`` for a graph, as the engine decodes them."""
    formula, _ = generate_constraints(graph)
    solver = CdclSolver(formula)
    assert solver.solve()
    model = canonical_model(formula, solver)
    named = {
        str(name): value
        for name, value in formula.decode_model(model).items()
    }
    return selected_nodes(graph, named)


class TestPropagationErrors:
    """Mistakes GraphGen never makes, planted between it and propagation."""

    def test_provider_without_the_mapped_output(
        self, registry, openmrs_partial
    ):
        graph = generate_graph(registry, openmrs_partial)
        edge = graph.edges_from("tomcat")[0]
        assert edge.kind == DependencyKind.INSIDE
        edge.alternatives = (
            DependencyAlternative(
                edge.alternatives[0].key, PortMapping((("nosuch", "host"),))
            ),
        )
        deployed, choices = solve(graph)
        with raises_exactly(
            ConfigurationError, "tomcat: provider server has no output 'nosuch'"
        ):
            propagate(registry, graph, deployed, choices)

    def test_cycle(self, registry, openmrs_partial):
        graph = generate_graph(registry, openmrs_partial)
        graph.add_edge(
            HyperEdge(
                source_id="server",
                kind=DependencyKind.PEER,
                targets=("openmrs",),
                alternatives=(DependencyAlternative(as_key("OpenMRS 1.8")),),
            )
        )
        deployed, choices = solve(graph)
        remaining = ", ".join(sorted(deployed))
        with raises_exactly(
            CycleError, f"dependency cycle among instances: {remaining}"
        ):
            propagate(registry, graph, deployed, choices)


@pytest.fixture
def spec(registry, openmrs_partial):
    openmrs_partial.add(
        PartialInstance(
            "server2", as_key("Mac-OSX 10.6"), config={"hostname": "other"}
        )
    )
    return ConfigurationEngine(registry).configure(openmrs_partial).spec


def edited(spec, *instances):
    """``spec`` with some instances swapped for hand-edited copies."""
    by_id = {instance.id: instance for instance in instances}
    return InstallSpec(by_id.get(i.id, i) for i in spec)


def java_of(spec):
    return next(i for i in spec if i.key.name in ("JDK", "JRE"))


class TestHandEditedSpecErrors:
    def test_the_fixture_is_clean(self, registry, spec):
        assert spec_problems(registry, spec) == []
        assert spec["tomcat"].environment[0].target.id == java_of(spec).id

    def test_check_spec_raises_with_every_problem(self, registry, spec):
        bad = edited(spec, replace(spec["openmrs"], peers=()))
        with raises_exactly(
            TypecheckError,
            "installation specification fails static checking:\n  "
            f"openmrs: unsatisfied peer dependency {MYSQL_PEER}",
        ):
            check_spec(registry, bad)

    def test_mistyped_config(self, registry, spec):
        tomcat = spec["tomcat"]
        bad = edited(
            spec, replace(tomcat, config={**tomcat.config, "manager_port": "80"})
        )
        assert spec_problems(registry, bad) == [
            "tomcat: config 'manager_port' value '80' does not inhabit tcp_port"
        ]

    def test_config_without_a_value(self, registry, spec):
        tomcat = spec["tomcat"]
        bad = edited(
            spec, replace(tomcat, config={**tomcat.config, "manager_port": None})
        )
        assert spec_problems(registry, bad) == [
            "tomcat: config 'manager_port' value None does not inhabit tcp_port"
        ]

    def test_abstract_instantiation(self, registry, spec):
        bad = edited(spec, replace(spec["mysql"], key=as_key("Database")))
        assert spec_problems(registry, bad) == [
            "mysql: abstract type Database instantiated",
            f"openmrs: unsatisfied peer dependency {MYSQL_PEER}",
        ]

    def test_unknown_type(self, registry, spec):
        bad = edited(spec, replace(spec["mysql"], key=as_key("NoSuchDB 1")))
        assert spec_problems(registry, bad) == [
            "mysql: unknown resource type NoSuchDB 1",
            f"openmrs: unsatisfied peer dependency {MYSQL_PEER}",
        ]

    def test_cycle(self, registry, spec):
        tomcat = spec["tomcat"]
        back = replace(tomcat.inside, kind="peer", target=tomcat.ref())
        bad = edited(spec, replace(spec["server"], peers=(back,)))
        # server -> tomcat -> server and server -> tomcat -> java ->
        # server; mysql and openmrs only trail the cycle.
        assert spec_problems(registry, bad) == [
            "dependency cycle among instances: "
            f"{java_of(spec).id}, server, tomcat"
        ]
        with raises_exactly(
            CycleError,
            "dependency cycle among instances: "
            f"{java_of(spec).id}, server, tomcat",
        ):
            bad.topological_order()

    def test_cycle_names_the_cycle_not_what_trails_it(self, spec):
        """A java <-> tomcat environment cycle: openmrs sits behind it
        and is not named."""
        tomcat, java = spec["tomcat"], java_of(spec)
        back = replace(tomcat.environment[0], target=tomcat.ref())
        bad = edited(spec, replace(java, environment=(back,)))
        with raises_exactly(
            CycleError,
            f"dependency cycle among instances: {java.id}, tomcat",
        ):
            bad.topological_order()

    def test_machine_inside_itself_names_the_machine(self, spec):
        bad = edited(spec, replace(spec["server"], inside=spec["tomcat"].inside))
        with raises_exactly(
            CycleError, "dependency cycle among instances: server"
        ):
            bad.topological_order()

    def test_link_to_missing_instance(self, registry, spec):
        openmrs = spec["openmrs"]
        peer = openmrs.peers[0]
        ghost = replace(peer, target=replace(peer.target, id="ghost"))
        bad = edited(spec, replace(openmrs, peers=(ghost,)))
        assert spec_problems(registry, bad) == [
            "instance openmrs links to missing instance ghost"
        ]
        with raises_exactly(
            SpecError, "instance openmrs links to missing instance ghost"
        ):
            bad.topological_order()

    def test_missing_inside_link(self, registry, spec):
        bad = edited(spec, replace(spec["openmrs"], inside=None))
        java = java_of(spec).id
        assert spec_problems(registry, bad) == [
            "openmrs: missing inside link required by OpenMRS 1.8",
            f"openmrs: environment dependency {JAVA_ENV} satisfied by "
            f"{java} on a different machine (server != openmrs)",
        ]

    def test_missing_peer_link(self, registry, spec):
        bad = edited(spec, replace(spec["openmrs"], peers=()))
        assert spec_problems(registry, bad) == [
            f"openmrs: unsatisfied peer dependency {MYSQL_PEER}"
        ]

    def test_missing_environment_link(self, registry, spec):
        bad = edited(spec, replace(spec["tomcat"], environment=()))
        assert spec_problems(registry, bad) == [
            f"tomcat: unsatisfied environment dependency {JAVA_ENV}"
        ]

    def test_inside_link_to_the_wrong_type(self, registry, spec):
        openmrs = spec["openmrs"]
        bad = edited(
            spec,
            replace(
                openmrs,
                inside=replace(openmrs.inside, target=spec["server"].ref()),
            ),
        )
        assert spec_problems(registry, bad) == [
            "openmrs: inside link target Mac-OSX 10.6 does not satisfy "
            "inside (Tomcat 5.5 {tomcat -> tomcat} | "
            "Tomcat 6.0.18 {tomcat -> tomcat})",
            "openmrs: link to server maps missing output 'tomcat'",
        ]

    def test_machine_with_an_inside_link(self, registry, spec):
        bad = edited(
            spec, replace(spec["server2"], inside=spec["tomcat"].inside)
        )
        assert spec_problems(registry, bad) == [
            "server2: machine type Mac-OSX 10.6 must not have an inside link",
            "server2: input 'host' holds None but the linked provider "
            "exports {'hostname': 'demotest', 'ip_address': '127.0.0.1', "
            "'os_user_name': 'root'}",
        ]

    def test_missing_output(self, registry, spec):
        mysql = spec["mysql"]
        outputs = {k: v for k, v in mysql.outputs.items() if k != "database"}
        bad = edited(spec, replace(mysql, outputs=outputs))
        problems = spec_problems(registry, bad)
        assert problems == [
            "mysql: output 'database' value None does not inhabit "
            + str(
                registry.effective(mysql.key).output_port("database").port.type
            ),
            "openmrs: link to mysql maps missing output 'database'",
        ]

    def test_missing_input(self, registry, spec):
        openmrs = spec["openmrs"]
        inputs = {k: v for k, v in openmrs.inputs.items() if k != "database"}
        bad = edited(spec, replace(openmrs, inputs=inputs))
        problems = spec_problems(registry, bad)
        assert problems[1:] == ["openmrs: input port 'database' has no value"]
        assert problems[0].startswith(
            "openmrs: input 'database' holds None but the linked provider "
            "exports {'database': 'app', 'engine': 'mysql'"
        )

    def test_wrong_machine_context(self, registry, spec):
        java = java_of(spec)
        moved = replace(
            java, inside=replace(java.inside, target=spec["server2"].ref())
        )
        bad = edited(spec, moved)
        assert spec_problems(registry, bad) == [
            f"{dependent}: environment dependency {JAVA_ENV} satisfied by "
            f"{java.id} on a different machine (server2 != server)"
            for dependent in ("tomcat", "openmrs")
        ]
