"""Resource drivers: the imperative half of a resource (S5.1).

A driver reads the metadata of its resource instance and manages the
component's lifecycle against the simulated infrastructure.  "Each
guarded action is implemented in an underlying programming language
(Python in our implementation)" -- here too: an action named ``X`` is the
method ``do_X``.

Guard *evaluation* belongs to the runtime (it tracks every instance's
state); the driver just refuses to run an action whose transition does
not exist from the current state, and the runtime refuses when the guard
is false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Type

from repro.core.errors import DriverError
from repro.core.instances import InstallSpec, ResourceInstance
from repro.core.registry import ResourceTypeRegistry
from repro.core.resource_type import ResourceType
from repro.drivers.state_machine import (
    StateMachineSpec,
    service_state_machine,
)
from repro.sim.infrastructure import Infrastructure
from repro.sim.machine import Machine
from repro.sim.oslpm import OsPackageManager


@dataclass
class DriverContext:
    """Everything a driver action may touch."""

    instance: ResourceInstance
    resource_type: ResourceType
    machine: Machine
    infrastructure: Infrastructure
    spec: InstallSpec

    @property
    def package_manager(self) -> OsPackageManager:
        return self.infrastructure.package_manager(self.machine)

    def config(self, name: str, default=None):
        return self.instance.config.get(name, default)

    def input(self, name: str, default=None):
        return self.instance.inputs.get(name, default)

    def output(self, name: str, default=None):
        return self.instance.outputs.get(name, default)


class ResourceDriver:
    """Base driver: a state machine plus Python action implementations.

    Subclasses override :meth:`state_machine` (rarely) and the ``do_*``
    methods (always).  ``self.state`` tracks the current state; only the
    runtime should call :meth:`perform`.  Every write of ``self.state``
    bumps the generation of the driver's machine, so drift detection
    knows to look there again.
    """

    #: Default simulated durations (seconds) per action, overridable.
    action_seconds: dict[str, float] = {
        "install": 20.0,
        "start": 5.0,
        "stop": 2.0,
        "restart": 6.0,
        "uninstall": 8.0,
    }

    def __init__(self, context: DriverContext) -> None:
        self.context = context
        self.machine_spec = self.state_machine()
        self.state = self.machine_spec.initial
        context.machine.generation += 1

    # -- Overridables ---------------------------------------------------

    def state_machine(self) -> StateMachineSpec:
        return service_state_machine()

    # -- Runtime interface ----------------------------------------------

    def action_cost(self, action: str) -> float:
        """Fixed simulated seconds this driver charges for ``action``
        (handlers may consume more, e.g. downloads and unpacking)."""
        return self.action_seconds.get(action, 1.0)

    #: Path of the per-machine audit log every action appends to.
    LOG_PATH = "/var/log/engage.log"

    def perform(self, action: str, *, timeout: Optional[float] = None) -> None:
        """Execute ``action``: run its implementation, advance the state,
        charge simulated time, and append to the machine's audit log.
        The runtime must have checked the guard already.

        ``timeout`` is the per-action budget granted by the caller's
        retry policy; an installed fault plan uses it to decide whether
        a hang merely slows the action or aborts it with
        :class:`~repro.core.errors.ActionTimeout`.  A fault fires
        *before* the handler runs, so a faulted action has no side
        effects and does not advance the state machine -- retries start
        from a clean slate.
        """
        transition = self.machine_spec.find(self.state, action)
        handler = getattr(self, f"do_{action}", None)
        if handler is None:
            raise DriverError(
                f"driver {type(self).__name__} does not implement "
                f"action {action!r}"
            )
        duration = self.action_cost(action)
        clock = self.context.infrastructure.clock
        clock.advance(duration)
        plan = getattr(self.context.infrastructure, "fault_plan", None)
        try:
            if plan is not None:
                plan.fire(
                    f"driver:{self.context.instance.id}:{action}",
                    clock,
                    timeout=timeout,
                )
            handler()
        except Exception:
            self._log(action, transition.source, "FAILED")
            raise
        self.state = transition.target
        self.context.machine.generation += 1
        self._log(action, transition.source, transition.target)

    def _log(self, action: str, source: str, target: str) -> None:
        clock = self.context.infrastructure.clock
        self.context.machine.fs.append_file(
            self.LOG_PATH,
            f"[{clock.now:10.1f}] {self.context.instance.id}: "
            f"{action} ({source} -> {target})\n",
        )

    # -- Default no-op actions -------------------------------------------

    def do_install(self) -> None:
        """Default: nothing to do."""

    def do_start(self) -> None:
        """Default: nothing to do."""

    def do_stop(self) -> None:
        """Default: nothing to do."""

    def do_restart(self) -> None:
        self.do_stop()
        self.do_start()

    def do_uninstall(self) -> None:
        """Default: nothing to do."""


class DriverRegistry:
    """Maps the ``driver_name`` of resource types to driver classes."""

    def __init__(self) -> None:
        self._drivers: dict[str, Type[ResourceDriver]] = {}
        self._fallback: Optional[str] = None

    def register(self, name: str, driver_class: Type[ResourceDriver]) -> None:
        if name in self._drivers:
            raise DriverError(f"driver name already registered: {name!r}")
        self._drivers[name] = driver_class

    def set_fallback(self, name: str) -> None:
        """Use driver ``name`` for any unregistered driver name (the CLI
        sets this so DSL-defined resources deploy with generic drivers)."""
        if name not in self._drivers:
            raise DriverError(f"fallback driver not registered: {name!r}")
        self._fallback = name

    def has(self, name: str) -> bool:
        return name in self._drivers

    def create(self, name: str, context: DriverContext) -> ResourceDriver:
        driver_class = self._drivers.get(name)
        if driver_class is None and self._fallback is not None:
            driver_class = self._drivers[self._fallback]
        if driver_class is None:
            raise DriverError(f"no driver registered under {name!r}")
        return driver_class(context)

    def names(self) -> list[str]:
        return sorted(self._drivers)
