"""The write-ahead deployment journal.

Every transition the deployment engine completes -- in any pass, toward
any state -- is appended to the deployed system's
:class:`DeploymentJournal` *after* the driver action succeeds (the
driver state machine is the authority; the journal records facts, it
does not promise them).  When a deployment fails fatally the journal --
persisted in the ``engage-state-2`` format by
:mod:`repro.runtime.state` -- is everything a later invocation needs to
resume: the full spec, the target basic state, each completed
transition, and the completed/failed/skipped partition of instances.

Folding the entries gives the *frontier*: the per-instance driver state
at the moment the run stopped.  The frontier is consistent by
construction: a failed action never advances its state machine, and the
engine drives instances in dependency order, so no dependent of a
failed instance has been acted on.  ``completed`` holds the instances
*at the journal's target*: a pass toward the target adds to it, a pass
toward any other state (stop, uninstall) and an observed loss take out
of it.

The journal keeps its frontier rather than folding it on demand: each
:meth:`~DeploymentJournal.record` moves its instance's state, a loaded
or merged journal is folded once (``folded`` counts the entries
folded), and a day-2 step that drops an old spec's instances
(:meth:`~DeploymentJournal.finish_transition`) drops just their
frontier states.  Their entries go from the history lazily, in one
pass once they are a sixteenth of the live instances or when the
history is next read, so a step costs what it recorded and what it
dropped, not the journal's length.

A persisted journal is read only if it has the shape :data:`JOURNAL`
(see :func:`repro.core.jsontext.read`), names no instance outside its
spec, keeps the three partitions disjoint and chains each instance's
entries, so that the folded frontier is one the engine could have
left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.core.errors import RuntimeEngageError
from repro.core.instances import InstallSpec
from repro.core.jsontext import ANY, STRING, TIME, Rows, optional, read
from repro.drivers.state_machine import ACTIVE, UNINSTALLED


@dataclass(slots=True)
class JournalEntry:
    """One completed driver transition.  Slotted: a journal holds one
    per action the deployment ever took."""

    instance_id: str
    action: str
    source: str
    target: str
    timestamp: float

    def to_payload(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "action": self.action,
            "source": self.source,
            "target": self.target,
            "timestamp": self.timestamp,
        }


#: What :meth:`JournalEntry.to_payload` writes, in field order.
ENTRY = {
    "instance_id": STRING, "action": STRING, "source": STRING,
    "target": STRING, "timestamp": TIME,
}


@dataclass
class SpecTransition:
    """The in-flight record of a spec-to-spec delta transition.

    A delta transition first drives instances of the *old* spec down
    (stop the dependent closure, uninstall replaced/removed instances,
    retire vacated machines) before the journal's own spec -- the new
    one -- takes over.  While that down phase is running, the journal
    must be able to describe work on instances the new spec has never
    heard of; this record carries everything a resuming engine needs to
    reconstruct the old system and finish the down phase: the full old
    spec, the ids still to be uninstalled (reverse dependency order),
    the ids that only need stopping (the dependent closure), and the
    hostnames to retire from the infrastructure once the down phase is
    done.  :meth:`DeploymentJournal.finish_transition` clears it and
    purges the old-only ids, returning the journal to the invariant
    that it mentions only instances of its own spec.
    """

    from_spec: InstallSpec
    pending: list[str] = field(default_factory=list)
    stop: list[str] = field(default_factory=list)
    retire: list[str] = field(default_factory=list)

    def to_document(self) -> dict:
        """The record as a document whose old spec is written one
        instance at a time (:class:`~repro.core.jsontext.Rows`)."""
        from repro.dsl.json_spec import full_to_rows

        return {
            "from_spec": full_to_rows(self.from_spec),
            "pending": list(self.pending),
            "stop": list(self.stop),
            "retire": list(self.retire),
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "SpecTransition":
        from repro.dsl.json_spec import full_from_payload

        read(
            payload, TRANSITION, of="journal transition",
            error=RuntimeEngageError,
        )
        from_spec = full_from_payload(
            payload["from_spec"], of="journal transition's old spec"
        )
        transition = cls(
            from_spec=from_spec,
            pending=list(payload.get("pending", ())),
            stop=list(payload.get("stop", ())),
            retire=list(payload.get("retire", ())),
        )
        old_ids = set(from_spec.ids())
        unknown = (set(transition.pending) | set(transition.stop)) - old_ids
        if unknown:
            raise RuntimeEngageError(
                "journal transition names instances outside its old "
                f"spec: {sorted(unknown)}"
            )
        return transition


#: What :meth:`SpecTransition.to_document` writes; its old spec is read
#: as a full spec of its own.
TRANSITION = {
    "from_spec": ANY, "pending": optional([STRING]),
    "stop": optional([STRING]), "retire": optional([STRING]),
}


class DeploymentJournal:
    """An append-only record of one deployment pass over a spec."""

    def __init__(self, spec: InstallSpec, target: str = ACTIVE) -> None:
        self.spec = spec
        self.target = target
        self._entries: list[JournalEntry] = []
        #: Last recorded target per instance: the folded entries.
        self._frontier: dict[str, str] = {}
        #: Instances dropped by :meth:`finish_transition` whose entries
        #: are still in ``_entries``: id -> the history's length when it
        #: was dropped (its entries before that index are dead).
        self._dropped: dict[str, int] = {}
        self.completed: set[str] = set()
        self.failed: dict[str, str] = {}  # instance id -> error message
        self.skipped: set[str] = set()
        self.transition: Optional[SpecTransition] = None
        #: Entries folded into the frontier in bulk, by
        #: :meth:`from_payload`, :meth:`merged` and
        #: :meth:`sort_entries_by_time` (a cost, not part of the journal:
        #: left out of the document).
        self.folded = 0

    @property
    def entries(self) -> list[JournalEntry]:
        """Every completed transition, in the order it was recorded
        (append through :meth:`record`, which moves the frontier)."""
        if self._dropped:
            self._compact()
        return self._entries

    def _compact(self) -> None:
        """Take the dropped instances' entries out of the history, in
        place."""
        dropped = self._dropped
        self._entries[:] = [
            entry for index, entry in enumerate(self._entries)
            if dropped.get(entry.instance_id, 0) <= index
        ]
        dropped.clear()

    def _fold(self) -> None:
        """The frontier of the whole history, folded afresh."""
        entries = self.entries
        self._frontier = {entry.instance_id: entry.target for entry in entries}
        self.folded += len(entries)

    # -- Recording -------------------------------------------------------

    def record(self, entry: JournalEntry) -> None:
        self._entries.append(entry)
        self._frontier[entry.instance_id] = entry.target

    def mark_completed(self, instance_id: str) -> None:
        self.completed.add(instance_id)
        self.failed.pop(instance_id, None)
        self.skipped.discard(instance_id)

    def mark_failed(self, instance_id: str, error: str) -> None:
        # Symmetric with mark_completed: an instance that completed in
        # an earlier pass and fails now must not stay in both partitions
        # of the persisted payload.
        self.completed.discard(instance_id)
        self.skipped.discard(instance_id)
        self.failed[instance_id] = error

    def mark_skipped(self, instance_ids: Iterable[str]) -> None:
        # An instance a failed pass never reached may already be at the
        # target (a stop pass skips what is still active; a resume skips
        # what an earlier pass completed): it stays completed, or the
        # persisted partitions overlap and the file refuses to load.
        self.skipped.update(
            iid for iid in instance_ids if iid not in self.completed
        )

    def mark_lost(
        self,
        instance_id: str,
        source: str,
        timestamp: float,
        *,
        reason: str = "machine-lost",
    ) -> None:
        """Record an *observed* regression to ``uninstalled``.

        When drift detection finds that the world moved beneath the
        journal (a machine was lost, taking its instances with it), the
        frontier must follow the facts: a pseudo-action entry
        (``observe:<reason>``, ``source`` -> ``uninstalled``) keeps the
        per-instance entry chain valid, and the instance leaves the
        completed partition."""
        self.record(
            JournalEntry(
                instance_id=instance_id,
                action=f"observe:{reason}",
                source=source,
                target=UNINSTALLED,
                timestamp=timestamp,
            )
        )
        self.completed.discard(instance_id)

    # -- Spec-to-spec transitions ----------------------------------------

    def begin_transition(self, transition: SpecTransition) -> None:
        """Arm the journal for a delta down phase on ``transition``'s
        old spec.  Persisted with the journal, so a crash anywhere in
        the down phase leaves enough to resume it."""
        if self.transition is not None:
            raise RuntimeEngageError(
                "a spec transition is already in progress"
            )
        self.transition = transition

    def finish_transition(self) -> None:
        """The down phase is done: drop the transition record and purge
        every mention of instances the journal's own spec does not
        know, restoring the single-spec invariant ``from_payload``
        checks.  Such an instance can only come from a part of the old
        spec the new one does not share; its frontier state goes now,
        its entries at the next compaction."""
        if self.transition is None:
            raise RuntimeEngageError("no spec transition is in progress")
        spec = self.spec
        # Only the old spec's parts the new one does not share can hold
        # an id it does not know.
        unknown = [
            iid for iid in self.transition.from_spec.unshared_ids(spec)
            if iid not in spec
        ]
        frontier, dropped = self._frontier, self._dropped
        for iid in unknown:
            if frontier.pop(iid, None) is not None:
                dropped[iid] = len(self._entries)
            self.failed.pop(iid, None)
        self.completed.difference_update(unknown)
        self.skipped.difference_update(unknown)
        self.transition = None
        if 16 * len(dropped) > len(frontier):
            self._compact()

    def reset_frontier(self) -> None:
        """Forget failure bookkeeping before a resume re-drives the
        remaining work (completed entries stay, of course)."""
        self.failed.clear()
        self.skipped.clear()

    def sort_entries_by_time(self) -> None:
        """Order entries by completion timestamp.

        A parallel pass appends entries in dispatch order, which
        interleaves worker timelines arbitrarily; sorting by timestamp
        (stable, so each instance's per-entry order survives) restores
        the global completion order the serial engine produces
        naturally.  The frontier is folded again from the sorted
        history.
        """
        self.entries.sort(key=lambda entry: entry.timestamp)
        self._fold()

    # -- Merging (multi-host fleets) -------------------------------------

    @classmethod
    def merged(
        cls,
        spec: InstallSpec,
        journals: Iterable["DeploymentJournal"],
        target: str = ACTIVE,
    ) -> "DeploymentJournal":
        """One fleet journal from per-slave journals.

        Each slave journals its own sub-spec; since every instance lives
        on exactly one slave, concatenating the entries and stable-
        sorting by timestamp preserves each instance's chain while
        restoring the global completion order.  The completed/failed/
        skipped partitions union (disjoint across slaves for the same
        reason).
        """
        journal = cls(spec, target=target)
        for source in journals:
            journal._entries.extend(source.entries)
            journal.completed |= source.completed
            journal.failed.update(source.failed)
            journal.skipped |= source.skipped
        journal.sort_entries_by_time()
        return journal

    # -- Derived views ---------------------------------------------------

    def states(self) -> dict[str, str]:
        """The frontier: last recorded target per instance; instances
        never journalled are still in their driver's initial state.  A
        copy of the kept fold, not a fold of the history."""
        return dict(self._frontier)

    # -- Persistence payload (embedded by repro.runtime.state) -----------

    def to_document(self) -> dict:
        """The journal as a document written one entry at a time
        (:class:`~repro.core.jsontext.Rows`); :meth:`from_payload`
        reads it back parsed."""
        document = {
            "target": self.target,
            "entries": Rows(self.entries, JournalEntry.to_payload),
            "completed": sorted(self.completed),
            "failed": dict(sorted(self.failed.items())),
            "skipped": sorted(self.skipped),
        }
        if self.transition is not None:
            document["transition"] = self.transition.to_document()
        return document

    @classmethod
    def from_payload(
        cls, spec: InstallSpec, payload: Any
    ) -> "DeploymentJournal":
        read(payload, JOURNAL, of="journal", error=RuntimeEngageError)
        journal = cls(spec, target=payload.get("target", ACTIVE))
        journal._entries = [
            JournalEntry(*map(entry.__getitem__, ENTRY))
            for entry in payload.get("entries", ())
        ]
        journal.completed = set(payload.get("completed", ()))
        journal.failed = dict(payload.get("failed", {}))
        journal.skipped = set(payload.get("skipped", ()))
        if "transition" in payload:
            journal.transition = SpecTransition.from_payload(
                payload["transition"]
            )
        # While a delta down phase is in flight the journal legitimately
        # records work on instances only the *old* spec knows; those ids
        # are purged by finish_transition, so outside a transition the
        # journal must mention its own spec's instances only.
        known = set(spec.ids())
        if journal.transition is not None:
            known |= set(journal.transition.from_spec.ids())
        unknown = (
            set(journal.completed)
            | set(journal.failed)
            | journal.skipped
            | {entry.instance_id for entry in journal.entries}
        ) - known
        if unknown:
            raise RuntimeEngageError(
                f"journal mentions unknown instances: {sorted(unknown)}"
            )
        # An instance may live in at most one of the three partitions.
        # mark_completed/mark_failed keep them disjoint at runtime, so a
        # payload violating this was hand-edited or corrupted -- and a
        # silent last-write-wins here would fabricate a frontier.
        overlap = (
            (journal.completed & set(journal.failed))
            | (journal.completed & journal.skipped)
            | (set(journal.failed) & journal.skipped)
        )
        if overlap:
            raise RuntimeEngageError(
                "journal instances in more than one of completed/failed/"
                f"skipped: {sorted(overlap)}"
            )
        # Per-instance entries must chain: each transition starts where
        # the previous one left off, or the folded frontier is a lie.
        # The walk folds the frontier as it goes.
        last_target = journal._frontier
        for entry in journal._entries:
            previous = last_target.get(entry.instance_id)
            if previous is not None and entry.source != previous:
                raise RuntimeEngageError(
                    f"journal entries for {entry.instance_id!r} do not "
                    f"chain: {entry.action!r} starts from {entry.source!r} "
                    f"but the previous entry left it in {previous!r}"
                )
            last_target[entry.instance_id] = entry.target
        journal.folded = len(journal._entries)
        return journal


#: What :meth:`DeploymentJournal.to_document` writes; a transition is
#: read as a document of its own.
JOURNAL = {
    "target": optional(STRING), "entries": optional([ENTRY]),
    "completed": optional([STRING]), "failed": optional({str: STRING}),
    "skipped": optional([STRING]), "transition": optional({}),
}
