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

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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
    """The set of states and guarded transitions of one driver.

    Immutable -- ``states`` is a frozenset, the transitions a tuple, and
    assigning any attribute raises -- because every driver of one kind
    shares the one spec its lifecycle function returns.  Shortest paths
    are memoised on it: the engine asks each driver for the same few.
    """

    __slots__ = ("_transitions", "initial", "states", "_by_pair", "_paths")

    def __init__(self, transitions: Iterable[Transition]) -> None:
        transitions = tuple(transitions)
        states = set(BASIC_STATES)
        for transition in transitions:
            states.add(transition.source)
            states.add(transition.target)
        # Reject nondeterminism: (state, action) picks one transition.
        by_pair: dict[tuple[str, str], Transition] = {}
        for transition in transitions:
            pair = (transition.source, transition.action)
            if pair in by_pair:
                raise DriverError(
                    f"duplicate transition {transition.action!r} from "
                    f"{transition.source!r}"
                )
            by_pair[pair] = transition
        for name, value in (
            ("_transitions", transitions), ("initial", UNINSTALLED),
            ("states", frozenset(states)), ("_by_pair", by_pair),
            ("_paths", {}),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"StateMachineSpec is immutable: {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"StateMachineSpec is immutable: {name!r}")

    def transitions(self) -> list[Transition]:
        return list(self._transitions)

    def transitions_from(self, state: str) -> list[Transition]:
        return [t for t in self._transitions if t.source == state]

    def find(self, state: str, action: str) -> Transition:
        transition = self._by_pair.get((state, action))
        if transition is None:
            raise DriverError(
                f"no transition {action!r} from state {state!r}"
            )
        return transition

    def has(self, state: str, action: str) -> bool:
        return (state, action) in self._by_pair

    def path_to(self, source: str, target: str) -> list[Transition]:
        """A shortest action sequence from ``source`` to ``target``.

        Used by the deployment engine to plan how to drive an instance to
        ``active`` (or back).  BFS over the transition relation, once
        per (source, target).
        """
        path = self._paths.get((source, target))
        if path is None:
            path = self._paths[source, target] = self._search(source, target)
        return list(path)

    def _search(self, source: str, target: str) -> tuple[Transition, ...]:
        if source == target:
            return ()
        frontier: list[tuple[str, tuple[Transition, ...]]] = [(source, ())]
        visited = {source}
        while frontier:
            state, path = frontier.pop(0)
            for transition in self.transitions_from(state):
                if transition.target in visited:
                    continue
                extended = path + (transition,)
                if transition.target == target:
                    return extended
                visited.add(transition.target)
                frontier.append((transition.target, extended))
        raise DriverError(f"no path from {source!r} to {target!r}")


# One spec per driver kind, built on first use: every driver of the kind
# points at it (ResourceDriver.__init__ asks state_machine() per driver).


@functools.cache
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


@functools.cache
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


@functools.cache
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
