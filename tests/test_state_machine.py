"""Driver state machines: guards, transitions, Figure 3."""

import pytest

from repro.core.errors import DriverError
from repro.drivers import (
    ACTIVE,
    INACTIVE,
    UNINSTALLED,
    StateMachineSpec,
    Transition,
    down,
    machine_state_machine,
    package_state_machine,
    service_state_machine,
    up,
)


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

    def test_initial_must_exist(self):
        with pytest.raises(DriverError):
            StateMachineSpec(
                [Transition("a", INACTIVE, ACTIVE)], initial="nowhere"
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
