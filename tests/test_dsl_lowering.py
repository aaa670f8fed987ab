"""Lowering DSL syntax to the core model."""

import pytest

from repro.core import (
    INT,
    ListType,
    RecordType,
    ResourceTypeRegistry,
    STRING,
    Space,
    TCP_PORT,
    as_key,
)
from repro.core.errors import ResourceModelError
from repro.core.resource_type import DependencyKind
from repro.dsl import load_resources, lower_module, parse_module


def lower_one(source, registry=None):
    types = lower_module(parse_module(source), registry)
    assert len(types) >= 1
    return types[-1]


class TestTypesAndExprs:
    def test_scalar_type(self):
        t = lower_one('resource "X" 1 { config p: tcp_port = 80 }')
        assert t.config_port("p").port.type is TCP_PORT

    def test_record_type_sorted(self):
        t = lower_one(
            'resource "X" 1 { input r: { b: int, a: string } }'
        )
        assert t.input_port("r").type == RecordType.of(a=STRING, b=INT)

    def test_list_type(self):
        t = lower_one('resource "X" 1 { config l: list[int] = [1] }')
        assert t.config_port("l").port.type == ListType(INT)

    def test_ref_spaces(self):
        t = lower_one(
            'resource "X" 1 {\n'
            "  config c: int = 1\n"
            "  output o: int = config.c\n"
            "}"
        )
        refs = t.output_port("o").value.references()
        assert refs == {(Space.CONFIG, "c")}

    def test_format_lowered(self):
        t = lower_one(
            'resource "X" 1 {\n'
            '  config h: string = "localhost"\n'
            '  output u: string = format("x://{h}", h = config.h)\n'
            "}"
        )
        from repro.core import PortEnv

        env = PortEnv(configs={"h": "web"})
        assert t.output_port("u").value.evaluate(env) == "x://web"

    def test_input_with_value_rejected(self):
        with pytest.raises(ResourceModelError):
            lower_one('resource "X" 1 { input i: int = 5 }')

    def test_static_input_rejected(self):
        with pytest.raises(ResourceModelError):
            lower_one('resource "X" 1 { static input i: int }')


class TestDependencies:
    def test_kinds(self):
        t = lower_one(
            'resource "M" 1 {}\n'
            'resource "X" 1 {\n'
            '  inside "M" 1\n'
            '  env "M" 1\n'
            '  peer "M" 1\n'
            "}"
        )
        assert t.inside.kind == DependencyKind.INSIDE
        assert t.environment[0].kind == DependencyKind.ENVIRONMENT
        assert t.peers[0].kind == DependencyKind.PEER

    def test_version_range_expansion(self):
        t = lower_one(
            'resource "Tomcat" 5.5 {}\n'
            'resource "Tomcat" 6.0.18 {}\n'
            'resource "Tomcat" 6.0.29 {}\n'
            'resource "X" 1 { inside "Tomcat" [5.5, 6.0.29) }'
        )
        assert t.inside.keys() == (
            as_key("Tomcat 5.5"),
            as_key("Tomcat 6.0.18"),
        )

    def test_range_with_registry_universe(self):
        registry = ResourceTypeRegistry()
        load_resources('resource "Pkg" 1.0 {}\nresource "Pkg" 2.0 {}',
                       registry)
        types = load_resources(
            'resource "Y" 1 { env "Pkg" [1.0, *] }', registry
        )
        assert types[0].environment[0].keys() == (
            as_key("Pkg 1.0"),
            as_key("Pkg 2.0"),
        )

    def test_empty_range_rejected(self):
        with pytest.raises(ResourceModelError):
            lower_one(
                'resource "Tomcat" 7.0 {}\n'
                'resource "X" 1 { inside "Tomcat" [5.5, 6.0) }'
            )

    def test_disjunction_dedup(self):
        t = lower_one(
            'resource "A" 1 {}\n'
            'resource "X" 1 { env "A" 1 | "A" 1 }'
        )
        assert t.environment[0].keys() == (as_key("A 1"),)

    def test_mapping_and_reverse_lowered(self):
        t = lower_one(
            'resource "C" 1 { output o: string = "x"\n input extra: string }\n'
            'resource "X" 1 {\n'
            '  inside "C" 1 { o -> mine } reverse { pushed -> extra }\n'
            "  input mine: string\n"
            '  static output pushed: string = "p"\n'
            "}"
        )
        alt = t.inside.alternatives[0]
        assert dict(alt.port_mapping.entries) == {"o": "mine"}
        assert dict(alt.reverse_mapping.entries) == {"pushed": "extra"}

    def test_extends_lowered(self):
        types = lower_module(
            parse_module(
                'abstract resource "Base" {}\n'
                'resource "Sub" 1 extends "Base" {}'
            )
        )
        assert types[1].extends == as_key("Base")

    def test_load_resources_registers(self):
        registry = ResourceTypeRegistry()
        load_resources('resource "Solo" 1 {}', registry)
        assert registry.has(as_key("Solo 1"))
