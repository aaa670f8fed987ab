"""Delta deployment planning: spec-to-spec transitions for live fleets.

The paper's upgrade protocol stops everything, replaces everything, and
restarts everything -- "all upgrades using this approach experience the
worst case upgrade time" (S5.2).  This module treats reconfiguration as
plan synthesis instead: diff the *live* system (drivers + journal +
world) against a newly configured full spec and emit a minimal,
dependency-ordered :class:`~repro.runtime.reconcile.TransitionPlan`
covering the changed-goal case that PR 7's repair planner refuses:

* ``INSTALL`` for instances only the new spec contains (machines
  included -- new hosts register on first touch);
* ``UPGRADE`` / ``RECONFIGURE`` for instances whose key, config, or
  placement changed -- torn down and re-deployed in place;
* ``UNINSTALL`` for instances only the old spec contains, in reverse
  dependency order, and ``RETIRE`` for the machines they vacate;
* ``RESTART`` for unchanged dependents in the stop closure (their
  upstream comes back with fresh endpoints) and for services found
  crashed.

Execution runs through :meth:`DeploymentEngine.drive_instances`, so a
delta transition gets the DAG scheduler, :class:`RetryPolicy`, and a
write-ahead journal it can resume from.  The journal carries a
:class:`~repro.runtime.journal.SpecTransition` record while the old
spec's down phase is in flight, so a crash *anywhere* in the transition
resumes with ``deploy --resume`` -- the down phase finishes under the
old spec's drivers, the machines retire, and the up phase completes
under the new spec, exactly where it left off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.collector import collector_paused
from repro.core.errors import DeploymentFailure, RuntimeEngageError
from repro.core.instances import InstallSpec
from repro.drivers.state_machine import ACTIVE
from repro.runtime.deploy import (
    DeployedSystem,
    DeploymentEngine,
    DeploymentReport,
    machine_hostname,
)
from repro.runtime.journal import (
    DeploymentJournal,
    JournalEntry,
    SpecTransition,
)
from repro.runtime.reconcile import (
    RepairOp,
    RepairStep,
    TransitionPlan,
    detect_drift,
)
from repro.sim.infrastructure import Infrastructure


@dataclass
class SpecDiff:
    """Instance-level difference between the old and new full specs."""

    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    upgraded: list[str] = field(default_factory=list)  # same id, new key
    reconfigured: list[str] = field(default_factory=list)  # same key, new config
    moved: list[str] = field(default_factory=list)  # same key/config, new host
    unchanged: list[str] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "upgraded": list(self.upgraded),
            "reconfigured": list(self.reconfigured),
            "moved": list(self.moved),
            "unchanged": len(self.unchanged),
        }


def diff_specs(old: InstallSpec, new: InstallSpec) -> SpecDiff:
    diff = SpecDiff()
    old_ids = set(old.ids())
    new_ids = set(new.ids())
    diff.added = sorted(new_ids - old_ids)
    diff.removed = sorted(old_ids - new_ids)
    for instance_id in sorted(old_ids & new_ids):
        before = old[instance_id]
        after = new[instance_id]
        if before.key != after.key:
            diff.upgraded.append(instance_id)
        elif before.config != after.config:
            diff.reconfigured.append(instance_id)
        elif (
            not before.is_machine()
            and old.machine_of(instance_id) != new.machine_of(instance_id)
        ):
            # Same key, same config -- but relocated: the old host must
            # lose the instance and the new host gain it.  Comparing
            # key/config alone used to classify this "unchanged" and
            # leave the instance running on the old machine.
            diff.moved.append(instance_id)
        else:
            diff.unchanged.append(instance_id)
    return diff


def retired_hostnames(
    old_spec: InstallSpec, new_spec: InstallSpec
) -> list[str]:
    """Hosts only the old spec wants: deregistered once the down phase
    has emptied them."""
    kept = {machine_hostname(instance) for instance in new_spec.machines()}
    return sorted(
        hostname
        for instance in old_spec.machines()
        if instance.id not in new_spec
        and (hostname := machine_hostname(instance)) is not None
        and hostname not in kept
    )


def retire_machines(
    infrastructure: Infrastructure, hostnames: Iterable[str]
) -> None:
    """Deregister whichever of ``hostnames`` is still on the network."""
    for hostname in hostnames:
        if infrastructure.network.has_machine(hostname):
            infrastructure.remove_machine(hostname)


@dataclass
class DeltaPlan:
    """A planned spec-to-spec transition, phase by phase.

    ``plan`` is the shared :class:`TransitionPlan` presentation (one
    step per instance, execution order); the phase lists below are what
    :func:`execute_delta` actually drives:

    * ``stop_down`` -- reverse old-spec order: every instance that must
      leave ``active`` before teardown (replaced + removed + their
      dependent closure);
    * ``uninstall_down`` -- reverse old-spec order: replaced + removed;
    * ``retire_hostnames`` -- machines only the old spec wants,
      deregistered after the down phase empties them;
    * ``up`` -- new-spec order: everything not already converged
      (added + replaced + stopped closure + stragglers);
    * ``restart`` -- services whose journal record says converged but
      whose process died: bounced inside the up pass.

    ``len(plan)`` counts steps; the elasticity benchmark compares it to
    the fleet size to assert the plan scales with the *diff*.
    """

    plan: TransitionPlan
    old_spec: InstallSpec
    new_spec: InstallSpec
    diff: SpecDiff
    target: str = ACTIVE
    stop_down: list[str] = field(default_factory=list)
    uninstall_down: list[str] = field(default_factory=list)
    retire_hostnames: list[str] = field(default_factory=list)
    up: list[str] = field(default_factory=list)
    restart: list[str] = field(default_factory=list)
    #: Instances re-derived through the warm constraint solver (0 when
    #: planning without a session).
    revalidated: int = 0

    @property
    def is_noop(self) -> bool:
        return self.plan.is_noop

    def __len__(self) -> int:
        return len(self.plan)

    def to_payload(self) -> dict:
        return {
            "target": self.target,
            "noop": self.is_noop,
            "fleet_size": len(self.new_spec),
            "diff": self.diff.to_payload(),
            "plan": self.plan.to_payload(),
            "phases": {
                "stop": list(self.stop_down),
                "uninstall": list(self.uninstall_down),
                "retire": list(self.retire_hostnames),
                "up": list(self.up),
                "restart": list(self.restart),
            },
            "revalidated": self.revalidated,
        }


@dataclass
class DeltaResult:
    """The outcome of an executed delta transition."""

    system: DeployedSystem
    journal: DeploymentJournal
    plan: DeltaPlan
    report: DeploymentReport


def plan_delta(
    system: DeployedSystem,
    new_spec: InstallSpec,
    *,
    target: str = ACTIVE,
    session=None,
    new_partial=None,
) -> DeltaPlan:
    """Diff the live ``system`` against ``new_spec`` and plan the
    minimal transition.

    The definition-level diff (:func:`diff_specs`) decides what is
    added/replaced/removed; the live drift report
    (:func:`detect_drift` with the subset restriction lifted) folds in
    what the world actually looks like -- unchanged instances that
    never converged are re-driven, crashed services restarted.  Lost
    machines are *not* delta work: reconcile repairs the world first,
    then the delta moves it.

    With a ``session``/``new_partial`` pair, every instance the plan
    deploys is first re-derived through the warm per-component solver
    and checked against ``new_spec``
    (:meth:`ConfigurationSession.revalidate_instances`) -- the same
    goal-drift guard the reconcile loop runs before repairing.
    """
    old_spec = system.spec
    diff = diff_specs(old_spec, new_spec)
    drift = detect_drift(system, goal=new_spec, target=target, allow_new=True)
    if drift.lost_machines:
        raise RuntimeEngageError(
            "cannot plan a delta transition over lost machines "
            f"{drift.lost_machines}: reconcile the fleet first "
            "(see repro.runtime.reconcile)"
        )

    old_order = {
        instance.id: index
        for index, instance in enumerate(old_spec.topological_order())
    }
    new_order = {
        instance.id: index
        for index, instance in enumerate(new_spec.topological_order())
    }

    replaced = set(diff.upgraded) | set(diff.reconfigured) | set(diff.moved)
    removed = set(diff.removed)
    teardown = replaced | removed

    # Downstream closure over the OLD spec: stopping a replaced/removed
    # instance requires every dependent inactive first (guards), even
    # dependents that are themselves unchanged.
    closure = old_spec.downstream_closure(teardown)
    stop_only = closure - teardown

    stop_down = sorted(closure, key=lambda iid: old_order[iid], reverse=True)
    uninstall_down = sorted(
        teardown, key=lambda iid: old_order[iid], reverse=True
    )

    retire_hostnames = retired_hostnames(old_spec, new_spec)

    # Live stragglers: unchanged instances drift says never converged
    # (an interrupted earlier deploy), and crashed-but-converged
    # services.  Replaced/added instances are already planned above.
    missing = set(drift.missing_instances)
    added = set(diff.added)
    stragglers = (missing - added - replaced) - stop_only
    restart_live = sorted(
        iid
        for iid in drift.crashed_services
        if iid not in closure and iid not in added and iid not in missing
    )

    up = sorted(
        added | replaced | stop_only | stragglers,
        key=lambda iid: new_order[iid],
    )

    steps: list[RepairStep] = []
    for iid in uninstall_down:
        if iid in replaced:
            continue  # one UPGRADE/RECONFIGURE step covers the teardown
        if old_spec[iid].is_machine():
            steps.append(
                RepairStep(RepairOp.RETIRE, iid, "machine removed from spec")
            )
        else:
            steps.append(
                RepairStep(RepairOp.UNINSTALL, iid, "removed from spec")
            )
    upgraded = set(diff.upgraded)
    moved = set(diff.moved)
    for iid in sorted(replaced, key=lambda iid: new_order[iid]):
        if iid in upgraded:
            steps.append(
                RepairStep(
                    RepairOp.UPGRADE, iid,
                    f"key changed: {old_spec[iid].key} -> {new_spec[iid].key}",
                )
            )
        elif iid in moved:
            steps.append(
                RepairStep(
                    RepairOp.UPGRADE, iid,
                    "moved: "
                    f"{old_spec.machine_of(iid)} -> "
                    f"{new_spec.machine_of(iid)}",
                )
            )
        else:
            steps.append(
                RepairStep(RepairOp.RECONFIGURE, iid, "config changed")
            )
    for iid in sorted(added, key=lambda iid: new_order[iid]):
        reason = (
            "new machine" if new_spec[iid].is_machine() else "added to spec"
        )
        steps.append(RepairStep(RepairOp.INSTALL, iid, reason))
    for iid in sorted(stragglers, key=lambda iid: new_order[iid]):
        steps.append(RepairStep(RepairOp.REDEPLOY, iid, "not at target"))
    for iid in sorted(stop_only, key=lambda iid: new_order[iid]):
        steps.append(RepairStep(RepairOp.RESTART, iid, "upstream replaced"))
    for iid in restart_live:
        steps.append(RepairStep(RepairOp.RESTART, iid, "process died"))

    delta = DeltaPlan(
        plan=TransitionPlan(steps=steps, target=target),
        old_spec=old_spec,
        new_spec=new_spec,
        diff=diff,
        target=target,
        stop_down=stop_down,
        uninstall_down=uninstall_down,
        retire_hostnames=retire_hostnames,
        up=up,
        restart=restart_live,
    )

    if session is not None or new_partial is not None:
        if session is None or new_partial is None:
            raise RuntimeEngageError(
                "delta revalidation needs both a ConfigurationSession and "
                "the new goal's partial spec (or neither)"
            )
        affected = sorted(
            (added | replaced | stragglers), key=lambda iid: new_order[iid]
        )
        delta.revalidated = session.revalidate_instances(
            new_partial, new_spec, affected
        )

    return delta


def rebase_journal(
    system: DeployedSystem, delta: DeltaPlan
) -> DeploymentJournal:
    """Build the transition's write-ahead journal, bound to the *new*
    spec.

    Every entry of the system's journal that concerns an old-spec
    instance is carried over (per-instance chains stay intact); where
    the carried record disagrees with -- or is silent about -- the live
    driver state, an ``observe:adopted`` entry pins the frontier to the
    facts, so a resume after a crash reconstructs exactly the states the
    transition started from.  Unchanged instances already at the target
    that the down phase will not touch are marked completed: the up
    phase skips them, which is what makes the plan O(diff).
    """
    journal = DeploymentJournal(delta.new_spec, target=delta.target)
    old_ids = set(delta.old_spec.ids())
    for entry in system.journal.entries:
        if entry.instance_id in old_ids:
            journal.record(entry)
    frontier = journal.states()
    clock = system.infrastructure.clock
    for instance in delta.old_spec.topological_order():
        iid = instance.id
        if iid not in system.drivers:
            continue
        live = system.state_of(iid)
        recorded = frontier.get(iid)
        if recorded is None:
            if live != system.driver(iid).machine_spec.initial:
                journal.record(
                    JournalEntry(iid, "observe:adopted", live, live, clock.now)
                )
        elif recorded != live:
            journal.record(
                JournalEntry(iid, "observe:adopted", recorded, live, clock.now)
            )
    stop_set = set(delta.stop_down)
    for iid in delta.diff.unchanged:
        if iid in stop_set or iid not in system.drivers:
            continue
        if system.state_of(iid) == delta.target:
            journal.mark_completed(iid)
    return journal


def finish_down_phase(
    engine: DeploymentEngine, old_system: DeployedSystem
) -> DeploymentReport:
    """Run what is left of a transition's down phase on the old spec's
    system: stop the closure, uninstall the teardown set (journalled, so
    each completed action survives a crash), retire the vacated machines
    and close the transition record -- from there on the journal speaks
    only the new spec's language.

    ``old_system.journal`` is the transition's journal -- the *new*
    spec's -- for the length of the phase: that is what a
    :class:`SpecTransition` is, a journal that legitimately speaks about
    old-spec instances.  :func:`execute_delta` runs this on the live
    system, :meth:`DeploymentEngine.resume` on the one it adopted from
    the journal and ``transition.from_spec``; the phase is filtered by
    live state, so finished work no-ops.

    A failure is raised holding a *new*-spec system: the resumable
    bundle must be keyed by the journal's spec, or reloading would
    rebind the journal to the wrong one."""
    journal = old_system.journal
    transition = journal.transition
    try:
        report = engine.drive_down(
            old_system, transition.stop, transition.pending
        )
    except DeploymentFailure as failure:
        new_system = _carry_over(
            engine, old_system, journal.spec, transition.pending
        )
        new_system.journal = journal
        raise DeploymentFailure(
            f"delta down phase failed: {failure}",
            journal=journal,
            completed=set(journal.completed),
            failed=dict(journal.failed),
            skipped=set(journal.skipped),
            report=failure.report,
            system=new_system,
        ) from failure
    retire_machines(engine.infrastructure, transition.retire)
    journal.finish_transition()
    return report


def _carry_over(
    engine: DeploymentEngine,
    old_system: DeployedSystem,
    new_spec: InstallSpec,
    torn_down: Iterable[str],
) -> DeployedSystem:
    """The new spec's system with every driver the down phase leaves
    installed carried over live; everything else sits at its initial
    state, which is exactly what is still to be deployed."""
    torn_down = set(torn_down)
    return engine.prepare(
        new_spec,
        reuse_drivers={
            iid: driver
            for iid, driver in old_system.drivers.items()
            if iid not in torn_down
        },
    )


@collector_paused
def execute_delta(
    engine: DeploymentEngine,
    system: DeployedSystem,
    delta: DeltaPlan,
) -> DeltaResult:
    """Execute a planned delta transition on the live ``system``.

    A composition of the engine's transition primitives: journal rebase
    + transition record, *down* on the old spec (stop closure, uninstall
    teardown), machine retirement + transition close, ``prepare`` of the
    new spec over the surviving drivers, and one *up* pass
    (:meth:`DeploymentEngine.drive_instances`) in which crashed-but-
    converged services are restart nodes, bounced before any dependent
    in the pass starts.  On failure in any phase the raised
    :class:`DeploymentFailure` carries the new-spec system and the
    transition journal: persist them with the world and ``deploy
    --resume`` finishes the transition.
    """
    journal = rebase_journal(system, delta)
    report = DeploymentReport(jobs=engine.jobs)

    if delta.stop_down or delta.uninstall_down or delta.retire_hostnames:
        journal.begin_transition(
            SpecTransition(
                from_spec=delta.old_spec,
                pending=list(delta.uninstall_down),
                stop=list(delta.stop_down),
                retire=list(delta.retire_hostnames),
            )
        )
        system.journal = journal
        report.merge(finish_down_phase(engine, system))

    new_system = _carry_over(
        engine, system, delta.new_spec, delta.uninstall_down
    )
    new_system.journal = journal
    journal.reset_frontier()
    up_ids = [
        instance.id
        for instance in delta.new_spec.topological_order()
        if instance.id not in journal.completed
    ]
    if up_ids or delta.restart:
        report.merge(
            engine.drive_instances(
                new_system, up_ids, delta.target, restart=delta.restart
            )
        )

    journal.sort_entries_by_time()
    new_system.report = report
    return DeltaResult(
        system=new_system, journal=journal, plan=delta, report=report
    )
