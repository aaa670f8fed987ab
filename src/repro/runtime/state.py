"""Persistent deployment state.

"Given that Engage has a full description of the deployed system,
multiple upgrade strategies are possible" (S5.2) -- the real Engage kept
that description on disk so a later invocation could manage (stop,
upgrade, monitor) a system it did not itself deploy.  This module is
that persistence: :func:`save_system` serialises a deployed system's
specification, driver states and write-ahead journal;
:func:`load_system` re-adopts it against the same infrastructure,
reattaching service drivers to their still-running processes by name.

One format is written: ``engage-state-2`` -- spec, states and the
system's :class:`~repro.runtime.journal.DeploymentJournal`, so every
saved system is resumable with :meth:`DeploymentEngine.resume` and
``load_system(...).journal`` is the journal.  ``engage-state-1`` (spec +
states, written before the journal was part of the system) is still
*read*: such a file loads with the blank journal its system is born
with.  :func:`system_payload` / :func:`system_from_payload` are the same
document as data, which is what a bundle nests.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Optional

from repro.core.collector import collector_paused
from repro.core.errors import RuntimeEngageError, document_section
from repro.core.jsontext import indented
from repro.core.registry import ResourceTypeRegistry
from repro.drivers.base import DriverRegistry
from repro.drivers.library import ServiceDriver
from repro.drivers.state_machine import ACTIVE
from repro.dsl.json_spec import full_from_payload, full_to_payload
from repro.runtime.deploy import DeployedSystem, DeploymentEngine
from repro.runtime.journal import DeploymentJournal
from repro.sim.infrastructure import Infrastructure

#: The journal-less layout older files carry; read, never written.
STATE_FORMAT = "engage-state-1"
#: The format :func:`save_system` writes: v1 plus a "journal" section.
JOURNAL_FORMAT = "engage-state-2"

_section = partial(
    document_section, of="state file", error=RuntimeEngageError
)


def system_payload(system: DeployedSystem) -> dict[str, Any]:
    """A deployed system as JSON-ready data: spec, per-instance driver
    states, and the write-ahead journal."""
    return {
        "format": JOURNAL_FORMAT,
        "spec": full_to_payload(system.spec),
        "states": system.states(),
        "journal": system.journal.to_payload(),
    }


@collector_paused
def save_system(
    system: DeployedSystem,
    journal: Optional[DeploymentJournal] = None,
) -> str:
    """Serialise a deployed system (:func:`system_payload` as text).

    ``journal`` is not a choice: the journal saved is the system's own,
    and naming any other is an error.
    """
    if journal is not None and journal is not system.journal:
        raise RuntimeEngageError(
            "save_system persists system.journal; the journal passed is "
            "not the system's"
        )
    return indented(system_payload(system), 2) + "\n"


def adopt_states(system: DeployedSystem, states: dict[str, str]) -> None:
    """Set each driver in ``states`` to its recorded state, reattaching
    processes; instances absent from ``states`` stay in their driver's
    initial state.

    Service drivers adopted as ``active`` must find the running process
    with their service name on their machine; a missing process is an
    error -- the state claims something the world contradicts.
    """
    for instance_id, state in states.items():
        if instance_id not in system.drivers:
            raise RuntimeEngageError(
                f"state file mentions unknown instance {instance_id!r}"
            )
        driver = system.drivers[instance_id]
        if state not in driver.machine_spec.states:
            raise RuntimeEngageError(
                f"{instance_id}: saved state {state!r} is not a state of "
                "its driver"
            )
        driver.state = state
        if isinstance(driver, ServiceDriver) and state == ACTIVE:
            machine = system.machine_for(instance_id)
            process = machine.find_process(driver.service_name())
            if process is None:
                raise RuntimeEngageError(
                    f"{instance_id}: saved as active but no process "
                    f"{driver.service_name()!r} exists on "
                    f"{machine.hostname}"
                )
            # A dead process is adopted as-is: that is precisely the
            # state the monitor repairs (`engage-sim watch`).
            driver.adopt_process(process)


def system_from_payload(
    registry: ResourceTypeRegistry,
    infrastructure: Infrastructure,
    drivers: DriverRegistry,
    payload: Any,
) -> DeployedSystem:
    """Re-adopt a system from :func:`system_payload` data:
    :meth:`DeploymentEngine.adopt` of the document's journal.

    The machines must still exist on the infrastructure's network (state
    files describe deployments of *this* world; they are not machine
    images).  The ``states`` section must cover every instance; it
    speaks alone where the journal is silent (a v1 file, or a v2 one
    saved from it), and a document whose driver states contradict its
    own journal's frontier is refused: one of the two is not what
    happened.
    """
    if not isinstance(payload, dict):
        raise RuntimeEngageError("state file must be a JSON object")
    if payload.get("format") not in (STATE_FORMAT, JOURNAL_FORMAT):
        raise RuntimeEngageError(
            f"unsupported state format: {payload.get('format')!r}"
        )
    spec = full_from_payload(_section(payload, "spec", list))
    states = _section(payload, "states", dict)
    missing = sorted(set(spec.ids()) - set(states))
    if missing:
        raise RuntimeEngageError(
            f"state file has no driver state for {missing}"
        )
    if payload["format"] == STATE_FORMAT:
        journal = DeploymentJournal(spec)  # v1: as blank as a new system's
    else:
        journal = DeploymentJournal.from_payload(
            spec, payload.get("journal", {})
        )
    system = DeploymentEngine(registry, infrastructure, drivers).adopt(journal)
    # Mid-transition the frontier speaks of the *old* spec's instances
    # (an upgraded id is still installed there while this spec's driver
    # sits at its initial state): nothing to compare.
    frontier = journal.states() if journal.transition is None else {}
    silent = {}
    for instance_id, state in states.items():
        if instance_id not in frontier:
            silent[instance_id] = state
        elif state != frontier[instance_id]:
            raise RuntimeEngageError(
                f"state file contradicts its journal: {instance_id!r} is "
                f"saved as {state!r} but the journal's "
                f"frontier says {frontier[instance_id]!r}"
            )
    adopt_states(system, silent)
    return system


def load_system(
    registry: ResourceTypeRegistry,
    infrastructure: Infrastructure,
    drivers: DriverRegistry,
    text: str,
) -> DeployedSystem:
    """Re-adopt a previously saved system (:func:`system_from_payload`
    of the parsed text)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RuntimeEngageError(f"malformed state file: {exc}") from exc
    return system_from_payload(registry, infrastructure, drivers, payload)
