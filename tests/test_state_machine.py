"""Driver state machines: guards, transitions, Figure 3."""

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import DriverError
from repro.drivers import (
    ACTIVE,
    INACTIVE,
    UNINSTALLED,
    ResourceDriver,
    StateMachineSpec,
    Transition,
    down,
    machine_state_machine,
    package_state_machine,
    service_state_machine,
    up,
)
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import DeploymentEngine


class TestGuardAtoms:
    def test_up_requires_all(self):
        atom = up(ACTIVE)
        assert atom.holds([ACTIVE, ACTIVE])
        assert not atom.holds([ACTIVE, INACTIVE])
        assert atom.holds([])  # vacuously true

    def test_down(self):
        atom = down(INACTIVE)
        assert atom.holds([INACTIVE])
        assert not atom.holds([ACTIVE])
        # A dependent that was never installed is not running either.
        assert atom.holds([INACTIVE, UNINSTALLED])
        assert not down(UNINSTALLED).holds([INACTIVE])
        assert not up(INACTIVE).holds([ACTIVE])

    def test_invalid_state_rejected(self):
        with pytest.raises(DriverError):
            up("warming_up")


class TestTransition:
    def test_guard_holds_checks_direction(self):
        t = Transition("start", INACTIVE, ACTIVE, (up(ACTIVE),))
        assert t.guard_holds([ACTIVE], [UNINSTALLED])
        assert not t.guard_holds([INACTIVE], [ACTIVE])

    def test_conjunction(self):
        t = Transition(
            "x", ACTIVE, ACTIVE, (up(ACTIVE), down(INACTIVE))
        )
        assert t.guard_holds([ACTIVE], [INACTIVE])
        assert not t.guard_holds([ACTIVE], [ACTIVE])

    def test_unguarded_always_fires(self):
        t = Transition("install", UNINSTALLED, INACTIVE)
        assert t.guard_holds([UNINSTALLED], [UNINSTALLED])


class TestStateMachineSpec:
    def test_figure3_shape(self):
        spec = service_state_machine()
        assert spec.initial == UNINSTALLED
        start = spec.find(INACTIVE, "start")
        assert start.target == ACTIVE
        assert start.guard == (up(ACTIVE),)
        stop = spec.find(ACTIVE, "stop")
        assert stop.target == INACTIVE
        assert stop.guard == (down(INACTIVE),)
        restart = spec.find(ACTIVE, "restart")
        assert restart.target == ACTIVE

    def test_find_missing(self):
        spec = service_state_machine()
        with pytest.raises(DriverError):
            spec.find(UNINSTALLED, "start")

    def test_has(self):
        spec = service_state_machine()
        assert spec.has(UNINSTALLED, "install")
        assert not spec.has(UNINSTALLED, "stop")

    def test_duplicate_transition_rejected(self):
        with pytest.raises(DriverError):
            StateMachineSpec(
                [
                    Transition("a", UNINSTALLED, INACTIVE),
                    Transition("a", UNINSTALLED, ACTIVE),
                ]
            )

class TestPathTo:
    def test_identity(self):
        spec = service_state_machine()
        assert spec.path_to(ACTIVE, ACTIVE) == []

    def test_install_then_start(self):
        spec = service_state_machine()
        actions = [t.action for t in spec.path_to(UNINSTALLED, ACTIVE)]
        assert actions == ["install", "start"]

    def test_stop_then_uninstall(self):
        spec = service_state_machine()
        actions = [t.action for t in spec.path_to(ACTIVE, UNINSTALLED)]
        assert actions == ["stop", "uninstall"]

    def test_unreachable(self):
        spec = StateMachineSpec([Transition("a", UNINSTALLED, INACTIVE)])
        with pytest.raises(DriverError):
            spec.path_to(INACTIVE, UNINSTALLED)

    def test_custom_intermediate_states(self):
        spec = StateMachineSpec(
            [
                Transition("unpack", UNINSTALLED, "staged"),
                Transition("configure", "staged", INACTIVE),
                Transition("start", INACTIVE, ACTIVE, (up(ACTIVE),)),
            ]
        )
        actions = [t.action for t in spec.path_to(UNINSTALLED, ACTIVE)]
        assert actions == ["unpack", "configure", "start"]


class TestFactories:
    def test_package_machine_is_guarded_on_start(self):
        spec = package_state_machine()
        assert spec.find(INACTIVE, "start").guard == (up(ACTIVE),)

    def test_machine_start_unguarded(self):
        spec = machine_state_machine()
        assert spec.find(INACTIVE, "start").guard == ()


def _drivers(count=3):
    """A prepared (not deployed) system of one machine running ``count``
    Gunicorn replicas and what they need."""
    registry = standard_registry()
    entries = [PartialInstance("server", as_key("Ubuntu-Linux 10.4"),
                               config={"hostname": "h"})]
    for index in range(count):
        entries.append(PartialInstance(
            f"web{index}", as_key("Gunicorn 0.13"), inside_id="server",
            config={"port": 8000 + index},
        ))
    spec = ConfigurationEngine(registry).configure(
        PartialInstallSpec(entries)
    ).spec
    return DeploymentEngine(
        registry, standard_infrastructure(), standard_drivers()
    ).prepare(spec)


class TestSharedLifecycleSpecs:
    """One spec per driver kind, shared by every driver of the kind."""

    def test_each_kind_returns_one_object(self):
        for factory in (
            service_state_machine, package_state_machine,
            machine_state_machine,
        ):
            assert factory() is factory()
        assert service_state_machine() is not package_state_machine()

    def test_drivers_of_one_kind_share_it(self):
        system = _drivers()
        webs = [system.driver(f"web{index}") for index in range(3)]
        assert webs[0].machine_spec is webs[1].machine_spec
        assert webs[1].machine_spec is webs[2].machine_spec
        shared = {
            id(factory()) for factory in (
                service_state_machine, package_state_machine,
                machine_state_machine,
            )
        }
        assert {
            id(driver.machine_spec) for driver in system.drivers.values()
        } <= shared

    def test_an_overriding_driver_gets_its_own(self):
        class Staged(ResourceDriver):
            def state_machine(self):
                return StateMachineSpec([
                    Transition("unpack", UNINSTALLED, "staged"),
                    Transition("configure", "staged", INACTIVE),
                    Transition("start", INACTIVE, ACTIVE),
                ])

        context = _drivers(1).driver("web0").context
        first, second = Staged(context), Staged(context)
        assert first.machine_spec is not second.machine_spec
        assert first.machine_spec is not service_state_machine()
        assert [t.action for t in first.machine_spec.path_to(
            UNINSTALLED, ACTIVE
        )] == ["unpack", "configure", "start"]

    def test_a_shared_spec_cannot_be_mutated(self):
        spec = service_state_machine()
        for name, value in (
            ("initial", ACTIVE), ("states", set()), ("_transitions", []),
            ("anything", 1),
        ):
            with pytest.raises(AttributeError):
                setattr(spec, name, value)
        with pytest.raises(AttributeError):
            del spec.initial
        with pytest.raises(AttributeError):
            spec.states.add("warming_up")
        assert isinstance(spec.states, frozenset)
        assert spec.initial == UNINSTALLED

    def test_memoised_paths_are_fresh_lists(self):
        spec = service_state_machine()
        path = spec.path_to(UNINSTALLED, ACTIVE)
        path.append("scribble")
        assert [t.action for t in spec.path_to(UNINSTALLED, ACTIVE)] == [
            "install", "start"
        ]
        assert spec.path_to(UNINSTALLED, ACTIVE) is not spec.path_to(
            UNINSTALLED, ACTIVE
        )
