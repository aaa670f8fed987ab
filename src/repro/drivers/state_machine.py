"""Driver state machines (S5.1, Figure 3).

A driver state machine is ``(Q, uninstalled, inactive, active, A, delta)``
with three distinguished *basic states*.  Transitions carry guards that
are conjunctions of basic-state predicates over the *upstream* (all
resource instances this one depends on) or *downstream* (all instances
depending on this one) neighbours:

* ``up(s)``   -- the paper's "⊑ s": every upstream machine is in basic
  state ``s``;
* ``down(s)`` -- the paper's "⊒ s": every downstream machine is in ``s``
  or *below* it in ``uninstalled < inactive < active`` -- a dependent
  that was never installed cannot be running, so it must not have to be
  installed merely so its upstream may ``stop [down(inactive)]``.

Figure 3's Tomcat machine is :func:`service_state_machine`:
``install`` (uninstalled -> inactive), ``start [up(active)]``
(inactive -> active), ``stop [down(inactive)]`` (active -> inactive),
``restart [up(active)]`` (active -> active), ``uninstall``
(inactive -> uninstalled).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from repro.core.errors import DriverError

UNINSTALLED = "uninstalled"
INACTIVE = "inactive"
ACTIVE = "active"
BASIC_STATES = (UNINSTALLED, INACTIVE, ACTIVE)


class Direction(Enum):
    """Which neighbourhood a guard predicate quantifies over."""

    UPSTREAM = "up"
    DOWNSTREAM = "down"


@dataclass(frozen=True)
class GuardAtom:
    """``up(s)``: all upstream neighbours are in basic state ``s``;
    ``down(s)``: all downstream neighbours are in ``s`` or below it."""

    direction: Direction
    state: str

    def __post_init__(self) -> None:
        if self.state not in BASIC_STATES:
            raise DriverError(f"guards range over basic states, got {self.state!r}")

    def holds(self, neighbour_states: Iterable[str]) -> bool:
        if self.direction is Direction.DOWNSTREAM:
            allowed = BASIC_STATES[: BASIC_STATES.index(self.state) + 1]
        else:
            allowed = (self.state,)
        return all(state in allowed for state in neighbour_states)

    def __str__(self) -> str:
        return f"{self.direction.value}({self.state})"


def up(state: str) -> GuardAtom:
    return GuardAtom(Direction.UPSTREAM, state)


def down(state: str) -> GuardAtom:
    return GuardAtom(Direction.DOWNSTREAM, state)


@dataclass(frozen=True)
class Transition:
    """A guarded action between two states."""

    action: str
    source: str
    target: str
    guard: tuple[GuardAtom, ...] = ()

    def guard_holds(
        self,
        upstream_states: Iterable[str],
        downstream_states: Iterable[str],
    ) -> bool:
        upstream = list(upstream_states)
        downstream = list(downstream_states)
        for atom in self.guard:
            neighbours = (
                upstream if atom.direction == Direction.UPSTREAM else downstream
            )
            if not atom.holds(neighbours):
                return False
        return True

    def __str__(self) -> str:
        guard = (
            " [" + " & ".join(str(a) for a in self.guard) + "]"
            if self.guard
            else ""
        )
        return f"{self.source} --{self.action}{guard}--> {self.target}"


class StateMachineSpec:
    """The set of states and guarded transitions of one driver."""

    def __init__(
        self,
        transitions: Iterable[Transition],
        *,
        initial: str = UNINSTALLED,
    ) -> None:
        self._transitions = list(transitions)
        self.initial = initial
        self.states: set[str] = set(BASIC_STATES)
        for transition in self._transitions:
            self.states.add(transition.source)
            self.states.add(transition.target)
        if initial not in self.states:
            raise DriverError(f"initial state {initial!r} has no transitions")
        # Reject nondeterminism: (state, action) picks one transition.
        seen: set[tuple[str, str]] = set()
        for transition in self._transitions:
            pair = (transition.source, transition.action)
            if pair in seen:
                raise DriverError(
                    f"duplicate transition {transition.action!r} from "
                    f"{transition.source!r}"
                )
            seen.add(pair)

    def transitions(self) -> list[Transition]:
        return list(self._transitions)

    def transitions_from(self, state: str) -> list[Transition]:
        return [t for t in self._transitions if t.source == state]

    def find(self, state: str, action: str) -> Transition:
        for transition in self._transitions:
            if transition.source == state and transition.action == action:
                return transition
        raise DriverError(
            f"no transition {action!r} from state {state!r}"
        )

    def has(self, state: str, action: str) -> bool:
        return any(
            t.source == state and t.action == action for t in self._transitions
        )

    def path_to(self, source: str, target: str) -> list[Transition]:
        """A shortest action sequence from ``source`` to ``target``.

        Used by the deployment engine to plan how to drive an instance to
        ``active`` (or back).  BFS over the transition relation.
        """
        if source == target:
            return []
        frontier: list[tuple[str, list[Transition]]] = [(source, [])]
        visited = {source}
        while frontier:
            state, path = frontier.pop(0)
            for transition in self.transitions_from(state):
                if transition.target in visited:
                    continue
                extended = path + [transition]
                if transition.target == target:
                    return extended
                visited.add(transition.target)
                frontier.append((transition.target, extended))
        raise DriverError(f"no path from {source!r} to {target!r}")


def service_state_machine() -> StateMachineSpec:
    """Figure 3: the lifecycle of a long-running service."""
    return StateMachineSpec(
        [
            Transition("install", UNINSTALLED, INACTIVE),
            Transition("start", INACTIVE, ACTIVE, (up(ACTIVE),)),
            Transition("restart", ACTIVE, ACTIVE, (up(ACTIVE),)),
            Transition("stop", ACTIVE, INACTIVE, (down(INACTIVE),)),
            Transition("uninstall", INACTIVE, UNINSTALLED),
        ]
    )


def package_state_machine() -> StateMachineSpec:
    """A passive package (library, archive): no daemon, so activation is
    immediate -- but still requires upstream components active, keeping
    the dependency discipline uniform."""
    return StateMachineSpec(
        [
            Transition("install", UNINSTALLED, INACTIVE),
            Transition("start", INACTIVE, ACTIVE, (up(ACTIVE),)),
            Transition("stop", ACTIVE, INACTIVE, (down(INACTIVE),)),
            Transition("uninstall", INACTIVE, UNINSTALLED),
        ]
    )


def machine_state_machine() -> StateMachineSpec:
    """A machine: installation is provisioning, performed before
    deployment, so install/start are unguarded no-op bookkeeping."""
    return StateMachineSpec(
        [
            Transition("install", UNINSTALLED, INACTIVE),
            Transition("start", INACTIVE, ACTIVE),
            Transition("stop", ACTIVE, INACTIVE, (down(INACTIVE),)),
            Transition("uninstall", INACTIVE, UNINSTALLED),
        ]
    )
