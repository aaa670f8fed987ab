"""Persistent deployment state.

"Given that Engage has a full description of the deployed system,
multiple upgrade strategies are possible" (S5.2) -- the real Engage kept
that description on disk so a later invocation could manage (stop,
upgrade, monitor) a system it did not itself deploy.  This module is
that persistence: :func:`save_system` serialises a deployed system's
specification, driver states and write-ahead journal;
:func:`load_system` re-adopts it against the same infrastructure,
reattaching service drivers to their still-running processes by name.

One format is written and read: ``engage-state-2`` -- spec, states and
the system's :class:`~repro.runtime.journal.DeploymentJournal`, so every
saved system is resumable with :meth:`DeploymentEngine.resume` and
``load_system(...).journal`` is the journal.  It has one layout,
:func:`system_document`, which :func:`save_system` writes one row at a
time and a bundle nests; :func:`system_from_payload` reads it back
parsed, checked first against :data:`STATE` (see
:func:`repro.core.jsontext.read`), its spec and journal against shapes
of their own.

A document comes from outside (hand-edited, corrupted), so the loader
is where the static checker of §3.3 runs, not the configuration engine,
whose output is well-typed by construction; and where the checks a
shape cannot make run: states against the journal's frontier, the
drivers' states and the world's processes.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.collector import collector_paused
from repro.core.errors import RuntimeEngageError
from repro.core.jsontext import (
    ANY,
    STRING,
    document_text,
    optional,
    parse,
    read,
)
from repro.core.registry import ResourceTypeRegistry
from repro.config.typecheck import check_spec
from repro.drivers.base import DriverRegistry
from repro.drivers.library import ServiceDriver
from repro.drivers.state_machine import ACTIVE
from repro.dsl.json_spec import full_from_payload, full_to_rows
from repro.runtime.deploy import DeployedSystem, DeploymentEngine
from repro.runtime.journal import DeploymentJournal
from repro.sim.infrastructure import Infrastructure

#: The one format :func:`save_system` writes and :func:`system_from_payload`
#: reads: spec, driver states and a "journal" section.
JOURNAL_FORMAT = "engage-state-2"

#: What :func:`system_document` writes; its spec and journal are read as
#: documents of their own.
STATE = {
    "format": STRING, "spec": ANY, "states": {str: STRING},
    "journal": optional(ANY),
}


def system_document(system: DeployedSystem) -> dict[str, Any]:
    """A deployed system as a document: spec, per-instance driver
    states, and the write-ahead journal, the spec's instances and the
    journal's entries as :class:`~repro.core.jsontext.Rows`."""
    return {
        "format": JOURNAL_FORMAT,
        "spec": full_to_rows(system.spec),
        "states": system.states(),
        "journal": system.journal.to_document(),
    }


@collector_paused
def save_system(
    system: DeployedSystem,
    journal: Optional[DeploymentJournal] = None,
) -> str:
    """Serialise a deployed system (:func:`system_document` as text),
    one instance and one journal entry at a time.

    ``journal`` is not a choice: the journal saved is the system's own,
    and naming any other is an error.
    """
    if journal is not None and journal is not system.journal:
        raise RuntimeEngageError(
            "save_system persists system.journal; the journal passed is "
            "not the system's"
        )
    return document_text(system_document(system), 2)


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
        driver.context.machine.generation += 1
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
            # crashed-service drift reconcile repairs.
            driver.adopt_process(process)


def system_from_payload(
    registry: ResourceTypeRegistry,
    infrastructure: Infrastructure,
    drivers: DriverRegistry,
    payload: Any,
) -> DeployedSystem:
    """Re-adopt a system from a parsed :func:`system_document`:
    :meth:`DeploymentEngine.adopt` of the document's journal.

    The machines must still exist on the infrastructure's network (state
    files describe deployments of *this* world; they are not machine
    images).  The spec, and a mid-transition journal's old spec, must
    pass static checking: a :class:`~repro.core.errors.TypecheckError`
    names every faulty instance.  The ``states`` section must cover
    every instance; it speaks alone where the journal is silent (a
    blank journal), and a document whose driver states contradict its
    own journal's frontier is refused: one of the two is not what
    happened.
    """
    read(payload, STATE, of="state file", error=RuntimeEngageError)
    if payload["format"] != JOURNAL_FORMAT:
        raise RuntimeEngageError(
            f"unsupported state format: {payload['format']!r}"
        )
    spec = full_from_payload(payload["spec"], of="state file's spec")
    check_spec(registry, spec)
    states = payload["states"]
    missing = sorted(set(spec.ids()) - set(states))
    if missing:
        raise RuntimeEngageError(
            f"state file has no driver state for {missing}"
        )
    journal = DeploymentJournal.from_payload(
        spec, payload.get("journal", {})
    )
    if journal.transition is not None:
        check_spec(registry, journal.transition.from_spec)
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
    payload = parse(text, ANY, of="state file", error=RuntimeEngageError)
    return system_from_payload(registry, infrastructure, drivers, payload)
