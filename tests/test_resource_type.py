"""Resource types, dependencies, port mappings, and the builder API."""

import pytest

from repro.core import (
    Binding,
    ConfigPort,
    Dependency,
    DependencyAlternative,
    DependencyKind,
    HOSTNAME,
    Lit,
    OutputPort,
    Port,
    PortMapping,
    RecordType,
    STRING,
    TCP_PORT,
    as_key,
    config_ref,
    define,
    input_ref,
)
from repro.core.errors import PortError, ResourceModelError


class TestPortMapping:
    def test_of_builds_sorted_entries(self):
        mapping = PortMapping.of(z="in_z", a="in_a")
        assert mapping.entries == (("a", "in_a"), ("z", "in_z"))

    def test_accessors(self):
        mapping = PortMapping.of(out1="in1", out2="in2")
        assert mapping.output_ports() == ("out1", "out2")
        assert mapping.input_ports() == ("in1", "in2")
        assert dict(mapping.entries) == {"out1": "in1", "out2": "in2"}

    def test_same_input_twice_rejected(self):
        with pytest.raises(PortError):
            PortMapping((("a", "x"), ("b", "x")))

    def test_empty(self):
        assert PortMapping().is_empty()


class TestDependency:
    def test_single(self):
        dep = Dependency(DependencyKind.PEER, (DependencyAlternative(
            as_key("MySQL 5.1"), PortMapping.of(db="db")
        ),))
        assert dep.keys() == (as_key("MySQL 5.1"),)
        assert dep.mapped_inputs() == {"db"}

    def test_no_alternatives_rejected(self):
        with pytest.raises(ResourceModelError):
            Dependency(DependencyKind.PEER, ())

    def test_disjunction_requires_identical_ranges(self):
        a = DependencyAlternative(as_key("A 1"), PortMapping.of(x="in1"))
        b = DependencyAlternative(as_key("B 1"), PortMapping.of(y="in2"))
        with pytest.raises(ResourceModelError):
            Dependency(DependencyKind.ENVIRONMENT, (a, b))

    def test_disjunction_same_range_ok(self):
        a = DependencyAlternative(as_key("A 1"), PortMapping.of(x="shared"))
        b = DependencyAlternative(as_key("B 1"), PortMapping.of(y="shared"))
        dep = Dependency(DependencyKind.ENVIRONMENT, (a, b))
        assert dep.mapped_inputs() == {"shared"}


class TestConfigPort:
    def test_default_may_read_inputs(self):
        ConfigPort(Port("p", STRING), input_ref("x"))

    def test_default_may_not_read_configs(self):
        with pytest.raises(PortError):
            ConfigPort(Port("p", STRING), config_ref("other"))

    def test_static_must_be_constant(self):
        with pytest.raises(PortError):
            ConfigPort(Port("p", STRING, Binding.STATIC), input_ref("x"))
        ConfigPort(Port("p", STRING, Binding.STATIC), Lit("ok"))


class TestResourceType:
    def test_port_names_must_be_disjoint(self):
        with pytest.raises(PortError):
            (
                define("X", "1")
                .input("p", STRING)
                .config("p", STRING, "v")
                .build()
            )

    def test_static_input_rejected(self):
        from repro.core.resource_type import ResourceType

        with pytest.raises(PortError):
            ResourceType(
                key=as_key("X 1"),
                input_ports=(Port("p", STRING, Binding.STATIC),),
            )

    def test_is_machine(self):
        machine = define("M", "1").build()
        hosted = define("H", "1").inside("M 1").build()
        assert machine.is_machine()
        assert not hosted.is_machine()

    def test_lookups(self):
        t = (
            define("X", "1")
            .inside("M 1", host="host")
            .input("host", RecordType.of(hostname=HOSTNAME))
            .config("port", TCP_PORT, 80)
            .output("out", STRING, "x")
            .build()
        )
        assert t.input_port("host").name == "host"
        assert t.config_port("port").name == "port"
        assert t.output_port("out").name == "out"
        assert t.has_input_port("host")
        assert not t.has_input_port("nope")
        with pytest.raises(PortError):
            t.input_port("nope")

    def test_dependencies_ordering(self):
        t = (
            define("X", "1")
            .inside("M 1")
            .env("E 1")
            .peer("P 1")
            .build()
        )
        kinds = [d.kind for d in t.dependencies()]
        assert kinds == [
            DependencyKind.INSIDE,
            DependencyKind.ENVIRONMENT,
            DependencyKind.PEER,
        ]

    def test_wrong_kind_in_slot_rejected(self):
        from repro.core.resource_type import ResourceType

        bad = Dependency(
            DependencyKind.PEER, (DependencyAlternative(as_key("M 1")),)
        )
        with pytest.raises(ResourceModelError):
            ResourceType(key=as_key("X 1"), inside=bad)


class TestBuilder:
    def test_version_in_name(self):
        t = define("Tomcat", "6.0.18").build()
        assert t.key == as_key("Tomcat 6.0.18")

    def test_unversioned(self):
        t = define("Server", abstract=True).build()
        assert t.key.version.is_unversioned()
        assert t.abstract

    def test_extends(self):
        t = define("Sub", "1", extends="Server").build()
        assert t.extends == as_key("Server")

    def test_driver_name(self):
        assert define("X", "1", driver="tomcat").build().driver_name == "tomcat"

    def test_disjunction_targets(self):
        t = define("X", "1").inside("M 1").env("A 1", "B 2", out="p").input(
            "p", STRING
        ).build()
        assert t.environment[0].keys() == (as_key("A 1"), as_key("B 2"))

    def test_mapping_keywords(self):
        t = (
            define("X", "1")
            .inside("M 1", host="my_host")
            .input("my_host", STRING)
            .build()
        )
        assert t.inside.alternatives[0].port_mapping.entries == (
            ("host", "my_host"),
        )
