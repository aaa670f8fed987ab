"""The resource-type registry: indexing, flattening, frontiers."""

import pytest

from repro.core import (
    Lit,
    ResourceTypeRegistry,
    STRING,
    TCP_PORT,
    as_key,
    define,
)
from repro.core.errors import (
    AbstractFrontierError,
    DuplicateKeyError,
    UnknownKeyError,
)


@pytest.fixture
def reg():
    registry = ResourceTypeRegistry()
    registry.register(define("Server", abstract=True).build())
    return registry


class TestRegistration:
    def test_duplicate_key_rejected(self, reg):
        with pytest.raises(DuplicateKeyError):
            reg.register(define("Server", abstract=True).build())

    def test_extends_unknown_rejected(self, reg):
        with pytest.raises(UnknownKeyError):
            reg.register(define("X", "1", extends="Nope").build())

    def test_lookup_unknown(self, reg):
        with pytest.raises(UnknownKeyError):
            reg.raw(as_key("Nope 1"))

    def test_iteration_sorted(self, reg):
        reg.register(define("Apple", "1").build())
        reg.register(define("Zebra", "1").build())
        names = [t.key.name for t in reg]
        assert names == sorted(names)

    def test_len(self, reg):
        assert len(reg) == 1


class TestFlattening:
    def test_inherited_ports(self, reg):
        reg.register(
            define("Base", abstract=True, extends="Server")
            .config("a", STRING, "base-a")
            .config("b", STRING, "base-b")
            .build()
        )
        reg.register(
            define("Sub", "1", extends="Base")
            .config("b", STRING, "sub-b")  # override
            .config("c", STRING, "sub-c")  # extension
            .build()
        )
        flat = reg.effective(as_key("Sub 1"))
        values = {
            p.name: p.default.evaluate.__self__.value
            if hasattr(p.default, "value")
            else None
            for p in flat.config_ports
        }
        by_name = {p.name: p.default for p in flat.config_ports}
        assert isinstance(by_name["a"], Lit) and by_name["a"].value == "base-a"
        assert isinstance(by_name["b"], Lit) and by_name["b"].value == "sub-b"
        assert isinstance(by_name["c"], Lit) and by_name["c"].value == "sub-c"

    def test_inherited_inside(self, reg):
        reg.register(
            define("Svc", abstract=True).inside("Server").build()
        )
        reg.register(define("SvcImpl", "1", extends="Svc").build())
        flat = reg.effective(as_key("SvcImpl 1"))
        assert flat.inside is not None
        assert flat.inside.keys() == (as_key("Server"),)

    def test_inherited_driver(self, reg):
        reg.register(
            define("D", abstract=True, driver="service").inside("Server").build()
        )
        reg.register(define("DImpl", "1", extends="D").build())
        assert reg.effective(as_key("DImpl 1")).driver_name == "service"

    def test_sub_driver_wins(self, reg):
        reg.register(
            define("E", abstract=True, driver="service").inside("Server").build()
        )
        reg.register(
            define("EImpl", "1", extends="E", driver="special").build()
        )
        assert reg.effective(as_key("EImpl 1")).driver_name == "special"

    def test_dependency_override_by_mapped_inputs(self, reg):
        reg.register(
            define("Need", abstract=True)
            .inside("Server")
            .output("o", STRING, "x")
            .build()
        )
        reg.register(
            define("NeedV2", "2", extends="Need")
            .output("o", STRING, "y")
            .build()
        )
        reg.register(
            define("User", abstract=True)
            .inside("Server")
            .env("Need", o="val")
            .input("val", STRING)
            .build()
        )
        reg.register(
            define("UserImpl", "1", extends="User")
            .env("NeedV2 2", o="val")  # refines the same input port
            .build()
        )
        flat = reg.effective(as_key("UserImpl 1"))
        assert len(flat.environment) == 1
        assert flat.environment[0].keys() == (as_key("NeedV2 2"),)


class TestFrontier:
    def test_concrete_is_own_frontier(self, reg):
        reg.register(define("Leaf", "1").build())
        assert reg.concrete_frontier(as_key("Leaf 1")) == [as_key("Leaf 1")]

    def test_stops_at_first_concrete(self, reg):
        reg.register(define("Mid", "1", extends="Server").build())
        reg.register(define("Deep", "2", extends="Mid 1").build())
        # Frontier of Server stops at Mid, not Deep.
        assert reg.concrete_frontier(as_key("Server")) == [as_key("Mid 1")]

    def test_multi_branch(self, reg):
        reg.register(define("A", "1", extends="Server").build())
        reg.register(define("B", "1", extends="Server").build())
        assert reg.concrete_frontier(as_key("Server")) == sorted(
            [as_key("A 1"), as_key("B 1")]
        )

    def test_abstract_leaf_error(self, reg):
        reg.register(
            define("OnlyAbstract", abstract=True, extends="Server").build()
        )
        with pytest.raises(AbstractFrontierError):
            reg.concrete_frontier(as_key("OnlyAbstract"))

    def test_nested_abstract(self, reg):
        reg.register(define("Mid2", abstract=True, extends="Server").build())
        reg.register(define("Leaf2", "1", extends="Mid2").build())
        assert reg.concrete_frontier(as_key("Server")) == [as_key("Leaf2 1")]


class TestMachines:
    def test_machines_lists_concrete_no_inside(self, reg):
        reg.register(define("Mac", "10.6", extends="Server").build())
        reg.register(define("Thing", "1").inside("Server").build())
        machines = reg.machines()
        assert as_key("Mac 10.6") in machines
        assert as_key("Thing 1") not in machines
        assert as_key("Server") not in machines  # abstract
