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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.errors import RuntimeEngageError, document_section
from repro.core.instances import InstallSpec
from repro.drivers.state_machine import ACTIVE, UNINSTALLED


def _require_lists(payload: dict, of: str, *names: str) -> None:
    """The optional list sections of a persisted record really are
    lists (iterating a number or string would die, or worse, work)."""
    for name in names:
        if name in payload:
            document_section(
                payload, name, list, of=of, error=RuntimeEngageError
            )


@dataclass
class JournalEntry:
    """One completed driver transition."""

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

    @classmethod
    def from_payload(cls, payload: dict) -> "JournalEntry":
        try:
            entry = cls(
                instance_id=payload["instance_id"],
                action=payload["action"],
                source=payload["source"],
                target=payload["target"],
                timestamp=float(payload["timestamp"]),
            )
            # float() above rejects bad timestamps; the string fields
            # must be checked explicitly or a None/int instance id
            # round-trips straight into the resume frontier.
            for value in (
                entry.instance_id, entry.action, entry.source, entry.target
            ):
                if not isinstance(value, str):
                    raise TypeError(f"expected string, got {value!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise RuntimeEngageError(
                f"malformed journal entry: {payload!r}"
            ) from exc
        return entry


@dataclass
class JournalDiff:
    """How the journal's record diverges from a goal specification.

    ``missing`` lists goal instances never completed (in goal order),
    ``extra`` lists journalled instances absent from the goal, and
    ``failed``/``skipped`` echo the journal's failure partition
    restricted to the goal.  An all-empty diff means the journal claims
    the goal is met -- a *record-level* statement; :mod:`reconcile
    <repro.runtime.reconcile>` checks the live world on top of it.
    """

    missing: list[str] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.missing or self.extra or self.failed or self.skipped)

    def to_payload(self) -> dict:
        return {
            "missing": list(self.missing),
            "extra": list(self.extra),
            "failed": list(self.failed),
            "skipped": list(self.skipped),
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

    def to_payload(self) -> dict:
        from repro.dsl.json_spec import full_to_payload

        return {
            "from_spec": full_to_payload(self.from_spec),
            "pending": list(self.pending),
            "stop": list(self.stop),
            "retire": list(self.retire),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SpecTransition":
        from repro.dsl.json_spec import full_from_payload

        if not isinstance(payload, dict):
            raise RuntimeEngageError(
                "journal 'transition' must be an object"
            )
        if "from_spec" not in payload:
            raise RuntimeEngageError(
                "journal transition is missing 'from_spec'"
            )
        _require_lists(
            payload, "journal transition", "pending", "stop", "retire"
        )
        from_spec = full_from_payload(payload["from_spec"])
        transition = cls(
            from_spec=from_spec,
            pending=[str(iid) for iid in payload.get("pending", ())],
            stop=[str(iid) for iid in payload.get("stop", ())],
            retire=[str(host) for host in payload.get("retire", ())],
        )
        old_ids = set(from_spec.ids())
        unknown = (set(transition.pending) | set(transition.stop)) - old_ids
        if unknown:
            raise RuntimeEngageError(
                "journal transition names instances outside its old "
                f"spec: {sorted(unknown)}"
            )
        return transition


class DeploymentJournal:
    """An append-only record of one deployment pass over a spec."""

    def __init__(self, spec: InstallSpec, target: str = ACTIVE) -> None:
        self.spec = spec
        self.target = target
        self.entries: list[JournalEntry] = []
        self.completed: set[str] = set()
        self.failed: dict[str, str] = {}  # instance id -> error message
        self.skipped: set[str] = set()
        self.transition: Optional[SpecTransition] = None

    # -- Recording -------------------------------------------------------

    def record(self, entry: JournalEntry) -> None:
        self.entries.append(entry)

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
        completed partition so :meth:`remaining` re-includes it."""
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
        checks."""
        if self.transition is None:
            raise RuntimeEngageError("no spec transition is in progress")
        known = set(self.spec.ids())
        self.entries = [
            entry for entry in self.entries if entry.instance_id in known
        ]
        self.completed &= known
        self.failed = {
            iid: error for iid, error in self.failed.items() if iid in known
        }
        self.skipped &= known
        self.transition = None

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
        naturally.  :meth:`states` folds per instance, so the frontier
        is unchanged either way.
        """
        self.entries.sort(key=lambda entry: entry.timestamp)

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
            journal.entries.extend(source.entries)
            journal.completed |= source.completed
            journal.failed.update(source.failed)
            journal.skipped |= source.skipped
        journal.sort_entries_by_time()
        return journal

    # -- Derived views ---------------------------------------------------

    def states(self) -> dict[str, str]:
        """The frontier: last recorded target per instance; instances
        never journalled are still in their driver's initial state."""
        states: dict[str, str] = {}
        for entry in self.entries:
            states[entry.instance_id] = entry.target
        return states

    def remaining(self) -> list[str]:
        """Instance ids that have not reached the target state."""
        return [
            instance.id
            for instance in self.spec.topological_order()
            if instance.id not in self.completed
        ]

    def diff(self, goal_spec: InstallSpec) -> JournalDiff:
        """Diff this journal's record against ``goal_spec``.

        ``missing`` follows the goal's dependency order (it is a valid
        work list); ``extra`` collects every journalled instance the
        goal no longer wants, sorted."""
        goal_ids = set(goal_spec.ids())
        journalled = (
            self.completed
            | set(self.failed)
            | self.skipped
            | {entry.instance_id for entry in self.entries}
        )
        return JournalDiff(
            missing=[
                instance.id
                for instance in goal_spec.topological_order()
                if instance.id not in self.completed
            ],
            extra=sorted(journalled - goal_ids),
            failed=sorted(iid for iid in self.failed if iid in goal_ids),
            skipped=sorted(iid for iid in self.skipped if iid in goal_ids),
        )

    def is_complete(self) -> bool:
        return not self.remaining()

    # -- Persistence payload (embedded by repro.runtime.state) -----------

    def to_payload(self) -> dict:
        payload = {
            "target": self.target,
            "entries": [entry.to_payload() for entry in self.entries],
            "completed": sorted(self.completed),
            "failed": dict(sorted(self.failed.items())),
            "skipped": sorted(self.skipped),
        }
        if self.transition is not None:
            payload["transition"] = self.transition.to_payload()
        return payload

    @classmethod
    def from_payload(
        cls, spec: InstallSpec, payload: dict
    ) -> "DeploymentJournal":
        if not isinstance(payload, dict):
            raise RuntimeEngageError("journal payload must be an object")
        _require_lists(payload, "journal", "entries", "completed", "skipped")
        journal = cls(spec, target=payload.get("target", ACTIVE))
        for entry_payload in payload.get("entries", ()):
            journal.record(JournalEntry.from_payload(entry_payload))
        journal.completed = set(payload.get("completed", ()))
        failed = payload.get("failed", {})
        if not isinstance(failed, dict):
            raise RuntimeEngageError("journal 'failed' must be an object")
        journal.failed = dict(failed)
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
        last_target: dict[str, str] = {}
        for entry in journal.entries:
            previous = last_target.get(entry.instance_id)
            if previous is not None and entry.source != previous:
                raise RuntimeEngageError(
                    f"journal entries for {entry.instance_id!r} do not "
                    f"chain: {entry.action!r} starts from {entry.source!r} "
                    f"but the previous entry left it in {previous!r}"
                )
            last_target[entry.instance_id] = entry.target
        return journal
