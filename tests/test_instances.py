"""Resource instances and installation specifications."""

import random

import pytest

from repro.core import (
    DependencyLink,
    InstallSpec,
    InstanceRef,
    PartialInstallSpec,
    PartialInstance,
    ResourceInstance,
    as_key,
)
from repro.core.errors import CycleError, DeploymentError, SpecError
from repro.library.fleet import FleetTopology, configure_fleet
from repro.runtime import DeployedSystem, machine_waves


def link(kind, target_id, key="T 1"):
    return DependencyLink(kind, InstanceRef(target_id, as_key(key)))


def machine(instance_id="m"):
    return ResourceInstance(id=instance_id, key=as_key("M 1"))


def hosted(instance_id, container_id, peers=(), env=()):
    return ResourceInstance(
        id=instance_id,
        key=as_key("H 1"),
        inside=link("inside", container_id),
        peers=tuple(link("peer", p) for p in peers),
        environment=tuple(link("environment", e) for e in env),
    )


class TestPartialInstallSpec:
    def test_add_and_lookup(self):
        spec = PartialInstallSpec(
            [PartialInstance("a", as_key("M 1"))]
        )
        assert "a" in spec
        assert spec["a"].key == as_key("M 1")
        assert spec.ids() == ["a"]

    def test_duplicate_rejected(self):
        spec = PartialInstallSpec([PartialInstance("a", as_key("M 1"))])
        with pytest.raises(SpecError):
            spec.add(PartialInstance("a", as_key("M 1")))

    def test_missing_lookup(self):
        with pytest.raises(SpecError):
            PartialInstallSpec()["ghost"]


class TestInstallSpec:
    def test_duplicate_rejected(self):
        spec = InstallSpec([machine()])
        with pytest.raises(SpecError):
            spec.add(machine())

    def test_machines(self):
        spec = InstallSpec([machine(), hosted("h", "m")])
        assert [m.id for m in spec.machines()] == ["m"]

    def test_machine_id_follows_inside_chain(self):
        spec = InstallSpec(
            [machine(), hosted("mid", "m"), hosted("leaf", "mid")]
        )
        assert spec.machine_of("leaf") == "m"

    def test_instances_on_machine(self):
        spec = InstallSpec(
            [
                machine("m1"),
                machine("m2"),
                hosted("a", "m1"),
                hosted("b", "m2"),
            ]
        )
        assert [i.id for i in spec.instances_on_machine("m1")] == ["m1", "a"]

    def test_downstream_ids(self):
        spec = InstallSpec([machine(), hosted("h", "m")])
        assert spec.downstream_ids("m") == ["h"]
        assert spec.downstream_ids("h") == []


class TestMachineMemo:
    """``machine_of`` / ``instances_on_machine`` / ``machine_for`` answer
    from a memo; they must say what walking each inside chain says."""

    @staticmethod
    def walk(spec, instance):
        """The reference: follow inside links one hop at a time."""
        seen = set()
        while instance.inside is not None:
            if instance.id in seen:
                raise CycleError(f"inside cycle at instance {instance.id}")
            seen.add(instance.id)
            instance = spec[instance.inside.target.id]
        return instance.id

    def assert_agrees_with_chain_walk(self, spec):
        walked = {inst.id: self.walk(spec, inst) for inst in spec}
        machines = {m: object() for m in set(walked.values())}
        system = DeployedSystem(spec, None, None, {}, machines)
        for iid, machine_id in walked.items():
            assert spec.machine_of(iid) == machine_id
            assert system.machine_for(iid) is machines[machine_id]
        for machine_id in machines:
            assert spec.instances_on_machine(machine_id) == [
                inst for inst in spec if walked[inst.id] == machine_id
            ]
        assert spec.instances_on_machine("no-such-machine") == []

    @staticmethod
    def depth(spec, inst):
        hops = 0
        while inst.inside is not None:
            inst = spec[inst.inside.target.id]
            hops += 1
        return hops

    @pytest.mark.parametrize("seed", [3, 11])
    def test_seeded_fleets(self, seed):
        rng = random.Random(seed)
        topology = FleetTopology(
            replicas=rng.randint(1, 6), machines=rng.randint(1, 4),
            stacks=tuple(rng.sample(["openmrs", "jasper", "django"], 2)),
        )
        spec = configure_fleet(topology)[0].spec
        self.assert_agrees_with_chain_walk(spec)
        # Grow it: a spare machine, and a leaf at the end of the deepest
        # inside chain.
        deepest = max(spec, key=lambda inst: self.depth(spec, inst))
        assert self.depth(spec, deepest) >= 2
        spec.add(machine("spare"))
        spec.add(hosted("leaf", deepest.id))
        self.assert_agrees_with_chain_walk(spec)

    def test_cycle_and_missing_target_raise_as_the_walk_does(self):
        spec = InstallSpec([
            machine("m"), hosted("ok", "m"),
            hosted("a", "b"), hosted("b", "a"), hosted("c", "a"),
            hosted("lost", "ghost"),
        ])
        for iid in ("a", "b", "c"):
            with pytest.raises(CycleError) as walk:
                self.walk(spec, spec[iid])
            with pytest.raises(CycleError) as memo:
                spec.machine_of(iid)
            assert str(memo.value) == str(walk.value)
        with pytest.raises(SpecError, match="'ghost'"):
            spec.machine_of("lost")
        assert spec.machine_of("ok") == "m"
        # The index walks the instances in order: "a" is the first one
        # whose chain is broken, on every call.
        for _ in range(2):
            with pytest.raises(CycleError, match="at instance a$"):
                spec.instances_on_machine("m")


class TestTopologicalOrder:
    def test_dependencies_first(self):
        spec = InstallSpec(
            [
                machine(),
                hosted("db", "m"),
                hosted("app", "m", peers=["db"]),
            ]
        )
        order = [i.id for i in spec.topological_order()]
        assert order.index("m") < order.index("db") < order.index("app")

    def test_cycle_detected(self):
        a = ResourceInstance(
            id="a", key=as_key("X 1"), peers=(link("peer", "b"),)
        )
        b = ResourceInstance(
            id="b", key=as_key("X 1"), peers=(link("peer", "a"),)
        )
        with pytest.raises(CycleError):
            InstallSpec([a, b]).topological_order()

    def test_link_to_missing_instance(self):
        spec = InstallSpec([hosted("h", "ghost")])
        with pytest.raises(SpecError):
            spec.topological_order()

    def test_deterministic(self):
        spec = InstallSpec(
            [machine(), hosted("b", "m"), hosted("a", "m")]
        )
        assert [i.id for i in spec.topological_order()] == [
            i.id for i in spec.topological_order()
        ]


class TestMachineOrder:
    """The coordinator's machine order: dependency waves."""

    def test_cross_machine_dependency_orders_machines(self):
        spec = InstallSpec(
            [
                machine("app_node"),
                machine("db_node"),
                hosted("db", "db_node"),
                hosted("app", "app_node", peers=["db"]),
            ]
        )
        assert machine_waves(spec) == [["db_node"], ["app_node"]]

    def test_independent_machines_sorted(self):
        spec = InstallSpec([machine("b"), machine("a")])
        assert machine_waves(spec) == [["a", "b"]]

    def test_cross_machine_cycle_detected(self):
        a = ResourceInstance(id="ma", key=as_key("M 1"))
        b = ResourceInstance(id="mb", key=as_key("M 1"))
        c = ResourceInstance(id="mc", key=as_key("M 1"))
        on_a = ResourceInstance(
            id="xa",
            key=as_key("X 1"),
            inside=link("inside", "ma"),
            peers=(link("peer", "xb"),),
        )
        on_b = ResourceInstance(
            id="xb",
            key=as_key("X 1"),
            inside=link("inside", "mb"),
            peers=(link("peer", "xa"),),
        )
        with pytest.raises(
            DeploymentError,
            match="cannot order machines: ma, mb$",
        ):
            machine_waves(InstallSpec([a, b, c, on_a, on_b]))


class TestResourceInstance:
    def test_links_ordering(self):
        instance = hosted("h", "m", peers=["p"], env=["e"])
        kinds = [l.kind for l in instance.links()]
        assert kinds == ["inside", "environment", "peer"]

    def test_upstream_ids(self):
        instance = hosted("h", "m", peers=["p"])
        assert instance.upstream_ids() == ["m", "p"]

    def test_is_machine(self):
        assert machine().is_machine()
        assert not hosted("h", "m").is_machine()

    def test_inside_cycle_detected(self):
        a = ResourceInstance(
            id="a", key=as_key("X 1"), inside=link("inside", "b")
        )
        b = ResourceInstance(
            id="b", key=as_key("X 1"), inside=link("inside", "a")
        )
        spec = InstallSpec([a, b])
        with pytest.raises(CycleError):
            spec.machine_of("a")
