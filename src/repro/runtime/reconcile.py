"""Self-healing reconciliation: drift detection, minimal delta repair
plans, and the autonomic loop that converges a fleet under churn.

The paper's runtime reacts to individual process failures through the
monit plugin; here that reflex is one case of a goal-seeking control
loop, the pattern every modern deployment manager converged on.  A
round whose only drift is crashed services is exactly a monit pass, and
this loop is the only code that restarts a service of a live system
(:mod:`repro.runtime.monitor` only scans):

1. :func:`detect_drift` diffs the *live world* -- driver states, the
   process table, network membership -- against the deployed
   specification and produces a structured :class:`DriftReport`
   (crashed services, lost machines, missing instances).
2. :func:`plan_repair` turns a drift report into a *minimal*
   dependency-ordered :class:`TransitionPlan`: restart a dead process,
   redeploy the subtree a lost machine took down -- never a full
   redeploy.  Plan size is proportional to the damage, not the fleet.
3. :func:`execute_plan` runs the plan through the regular deployment
   machinery: redeploys and restarts are one dependency-ordered up pass
   (:meth:`DeploymentEngine.drive_instances`), so repairs get the same
   guard checking, retry policy, and write-ahead journalling as first
   deployments, and :meth:`DeploymentJournal.mark_lost` keeps the
   journal's frontier honest about regressions it observed.
4. :class:`ReconcileController` closes the loop on the simulated
   clock: poll, plan, repair, re-check, round after round.

Repair has one goal, the deployed spec (``system.spec``), as monit's
restarts do in the paper (S5.2): what died comes back as it was.
Changing the goal is an upgrade -- a new full spec the delta planner
(:mod:`repro.runtime.delta`) moves the system to and journals.

Everything is deterministic: same seed, same churn, same rounds --
bit-identical plans and journals.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Optional

from repro.core.collector import collector_paused
from repro.core.errors import DeploymentError, RuntimeEngageError
from repro.core.instances import InstallSpec
from repro.drivers.library import ServiceDriver
from repro.drivers.state_machine import ACTIVE, UNINSTALLED
from repro.runtime.deploy import (
    DeployedSystem,
    DeploymentEngine,
    DeploymentReport,
)
from repro.runtime.monitor import drift_index


class DriftKind(Enum):
    """Why an instance diverges from the goal."""

    CRASHED_SERVICE = "crashed-service"
    LOST_MACHINE = "lost-machine"
    MISSING_INSTANCE = "missing-instance"
    #: An instance of the old spec an unfinished delta transition has
    #: still to drive down (only ``deploy --resume`` finishes it).
    UNFINISHED_TRANSITION = "unfinished-transition"


@dataclass(frozen=True)
class DriftItem:
    """One instance out of its goal state.

    ``detail`` carries the kind-specific context: the machine instance
    that was lost, or the state the instance is stuck in (for an
    unfinished transition, the state its journal last recorded).
    """

    kind: DriftKind
    instance_id: str
    detail: str = ""

    def to_payload(self) -> dict:
        return {
            "kind": self.kind.value,
            "instance_id": self.instance_id,
            "detail": self.detail,
        }


@dataclass
class DriftReport:
    """The structured diff between the live world and the goal."""

    timestamp: float
    target: str
    items: list[DriftItem] = field(default_factory=list)
    #: Instances whose driver and process the check read, where the
    #: system's drift index found their machine had moved (a cost, not
    #: part of the diff: left out of the payload and of equality).
    examined: int = field(default=0, compare=False)

    @property
    def is_converged(self) -> bool:
        return not self.items

    def _ids(self, kind: DriftKind) -> list[str]:
        return [item.instance_id for item in self.items if item.kind is kind]

    @property
    def crashed_services(self) -> list[str]:
        return self._ids(DriftKind.CRASHED_SERVICE)

    @property
    def lost_instances(self) -> list[str]:
        """Every instance that went down with a lost machine (the
        machine instance itself included)."""
        return self._ids(DriftKind.LOST_MACHINE)

    @property
    def lost_machines(self) -> list[str]:
        """The lost machine *instances*, deduplicated, sorted."""
        return sorted({
            item.detail
            for item in self.items
            if item.kind is DriftKind.LOST_MACHINE
        })

    @property
    def missing_instances(self) -> list[str]:
        return self._ids(DriftKind.MISSING_INSTANCE)

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for item in self.items:
            counts[item.kind.value] = counts.get(item.kind.value, 0) + 1
        return counts

    def to_payload(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "target": self.target,
            "converged": self.is_converged,
            "by_kind": self.by_kind(),
            "items": [item.to_payload() for item in self.items],
        }


def detect_drift(
    system: DeployedSystem, *, goal: Optional[InstallSpec] = None
) -> DriftReport:
    """Diff the live world against ``goal`` (default: the deployed spec)
    at the journal's target state.

    Checks, in severity order:

    * **an unfinished delta transition** -- every instance its down
      phase has still to uninstall is an ``UNFINISHED_TRANSITION``
      item: until ``deploy --resume`` finishes that phase, the world
      still runs what the old spec had, whatever the new one's drivers
      say;
    * **lost machines** -- a machine instance whose simulated host has
      dropped off the network (or was replaced behind its back); every
      instance physically on it becomes a ``LOST_MACHINE`` item whose
      detail names the machine instance;
    * **crashed services** -- watched processes that died on machines
      still alive (:meth:`ProcessMonitor.crashed_services`);
    * **missing instances** -- goal instances whose driver is not at
      the target.

    Only the delta planner (:mod:`repro.runtime.delta`) passes a
    ``goal``: the new spec, whose instances the deployed spec has never
    heard of are reported as ``MISSING_INSTANCE`` items in the
    ``uninstalled`` state, which is exactly what they are from the live
    world's point of view.

    The lost-machine check looks at every spec machine; crashed and
    off-target instances come from the system's
    :class:`~repro.runtime.monitor.DriftIndex`, which re-reads only the
    live machines whose generation moved since the last check
    (``examined`` counts what it read).
    """
    spec = system.spec
    goal_spec = goal if goal is not None else spec
    target = system.journal.target
    network = system.infrastructure.network
    items: list[DriftItem] = []

    transition = system.journal.transition
    if transition is not None:
        frontier = system.journal.states()
        items.extend(
            DriftItem(
                DriftKind.UNFINISHED_TRANSITION, instance_id,
                frontier.get(instance_id, UNINSTALLED),
            )
            for instance_id in transition.pending
        )

    live: list[str] = []
    for instance in spec.machines():
        machine = system.machines[instance.id]
        if (
            network.has_machine(machine.hostname)
            and network.machine(machine.hostname) is machine
        ):
            live.append(instance.id)
            continue
        items.extend(
            DriftItem(DriftKind.LOST_MACHINE, lost.id, instance.id)
            for lost in spec.instances_on_machine(instance.id)
        )

    index = drift_index(system)
    seen = index.refresh(system, live)
    items.extend(
        DriftItem(
            DriftKind.CRASHED_SERVICE, instance_id,
            system.state_of(instance_id),
        )
        for instance_id in sorted(
            chain.from_iterable(entry.crashed for entry in seen)
        )
    )

    missing = list(chain.from_iterable(entry.off_target for entry in seen))
    if goal is not None:
        missing = [iid for iid in missing if iid in goal]
        if target != UNINSTALLED:
            missing.extend(set(goal.ids()).difference(spec.ids()))
    missing.sort(key=goal_spec.position)
    items.extend(
        DriftItem(
            DriftKind.MISSING_INSTANCE, instance_id,
            system.state_of(instance_id)
            if instance_id in system.drivers else UNINSTALLED,
        )
        for instance_id in missing
    )

    return DriftReport(
        timestamp=system.infrastructure.clock.now,
        target=target,
        items=items,
        examined=index.examined,
    )


class RepairOp(Enum):
    """What a repair or delta-transition step does to its instance."""

    #: Bounce the dead process of a still-installed service.
    RESTART = "restart"
    #: Re-register a replacement host for a lost machine and reset the
    #: drivers of everything that lived on it.
    REPROVISION = "reprovision"
    #: Drive the instance back to the goal state through its normal
    #: state-machine path (install and/or start, whatever is missing).
    REDEPLOY = "redeploy"
    #: Stop and remove an instance the new spec no longer wants (delta
    #: only).
    UNINSTALL = "uninstall"
    #: Deploy an instance the old spec never contained (delta only).
    INSTALL = "install"
    #: Tear the old version down and deploy the new one in its place --
    #: the instance's key changed, or it moved to another machine.
    UPGRADE = "upgrade"
    #: Same mechanics as UPGRADE, but driven by a config-only change.
    RECONFIGURE = "reconfigure"
    #: Deregister a machine the new spec no longer wants (delta only).
    RETIRE = "retire"


@dataclass(frozen=True)
class RepairStep:
    """One planned repair action."""

    op: RepairOp
    instance_id: str
    reason: str = ""

    def to_payload(self) -> dict:
        return {
            "op": self.op.value,
            "instance_id": self.instance_id,
            "reason": self.reason,
        }


@dataclass
class TransitionPlan:
    """A minimal, dependency-ordered repair plan.

    A repair's steps are grouped by phase: machine reprovisioning, then
    redeploys and restarts, each in dependency order -- the last two run
    as one up pass, interleaved along the dependency edges.  ``__len__``
    counts steps, which tests compare against the fleet size to assert
    minimality.
    """

    steps: list[RepairStep] = field(default_factory=list)
    target: str = ACTIVE

    @property
    def is_noop(self) -> bool:
        return not self.steps

    def __len__(self) -> int:
        return len(self.steps)

    def by_op(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for step in self.steps:
            counts[step.op.value] = counts.get(step.op.value, 0) + 1
        return counts

    def instances(self, op: RepairOp) -> list[str]:
        return [step.instance_id for step in self.steps if step.op is op]

    def to_payload(self) -> dict:
        return {
            "target": self.target,
            "noop": self.is_noop,
            "by_op": self.by_op(),
            "steps": [step.to_payload() for step in self.steps],
        }


def plan_repair(system: DeployedSystem, drift: DriftReport) -> TransitionPlan:
    """Compute the minimal repair for ``drift``.

    * each lost machine gets one ``REPROVISION`` step;
    * lost and missing instances are redeployed in
      dependency order (drivers on a replaced machine restart from
      ``uninstalled``, so the normal path re-installs exactly what the
      machine lost -- instances elsewhere are untouched);
    * crashed services are restarted, together with any *active*
      downstream service of a redeployed instance (its upstream comes
      back with fresh endpoints, so it must reconnect).

    No drift, empty plan: the no-op property the controller relies on.
    A system whose delta transition is unfinished is refused
    (:func:`require_no_transition`): its repair is the resume.
    """
    require_no_transition(system)
    spec = system.spec
    steps: list[RepairStep] = []

    lost_machines = drift.lost_machines
    for machine_id in sorted(lost_machines, key=spec.position):
        steps.append(
            RepairStep(RepairOp.REPROVISION, machine_id, "machine lost")
        )

    lost = set(drift.lost_instances)
    redeploy = lost | set(drift.missing_instances)
    reasons = {
        iid: "machine lost" if iid in lost else "not at target"
        for iid in redeploy
    }
    for instance_id in sorted(redeploy, key=spec.position):
        steps.append(
            RepairStep(RepairOp.REDEPLOY, instance_id, reasons[instance_id])
        )

    restarts = {iid: "process died" for iid in drift.crashed_services}
    dependents = spec.downstream_closure(redeploy) - redeploy
    for instance_id in sorted(dependents):
        if instance_id in restarts:
            continue
        driver = system.drivers.get(instance_id)
        if isinstance(driver, ServiceDriver) and driver.state == ACTIVE:
            restarts.setdefault(instance_id, "upstream redeployed")
    for instance_id in sorted(restarts, key=spec.position):
        steps.append(
            RepairStep(
                RepairOp.RESTART, instance_id, restarts[instance_id]
            )
        )

    return TransitionPlan(steps=steps, target=drift.target)


def require_no_transition(system: DeployedSystem) -> None:
    """Refuse to plan over a delta transition still in flight: a new
    goal would re-target its journal and drop the unfinished down phase,
    and a repair toward the new spec would leave whatever that phase had
    yet to remove running outside any spec."""
    if system.journal.transition is not None:
        raise RuntimeEngageError(
            "the deployment has an unfinished delta transition: run "
            "`deploy --resume` on its bundle to finish it first"
        )


def _replace_machine(
    system: DeployedSystem, machine_instance_id: str
) -> None:
    """Stand up a replacement host for a lost machine instance.

    The fresh machine copies the dead one's identity (hostname, OS,
    address, sizing), every driver that pointed at the old object is
    re-aimed at it, and each affected driver drops back to its initial
    state -- the world-side truth the subsequent redeploy drives from.
    The journal records the observed regression per instance
    (:meth:`DeploymentJournal.mark_lost`), keeping its frontier honest.
    """
    infrastructure = system.infrastructure
    network = infrastructure.network
    old = system.machines[machine_instance_id]
    if network.has_machine(old.hostname):
        fresh = network.machine(old.hostname)
        if fresh is old:  # not actually lost: nothing to replace
            return
    else:
        fresh = infrastructure.add_machine(
            old.hostname,
            old.os.name,
            old.os.version,
            ip_address=old.ip_address,
            cpu_cores=old.cpu_cores,
            memory_mb=old.memory_mb,
            os_user_name=old.os_user_name,
        )
    for instance_id, machine in system.machines.items():
        if machine is old:
            system.machines[instance_id] = fresh
    clock = infrastructure.clock
    for instance in system.spec.instances_on_machine(machine_instance_id):
        driver = system.drivers[instance.id]
        previous = driver.state
        driver.state = driver.machine_spec.initial
        # Bumped before the re-aim: drift checks watched the lost one.
        driver.context.machine.generation += 1
        driver.context.machine = fresh
        if isinstance(driver, ServiceDriver):
            driver.discard_process()
        if previous != driver.machine_spec.initial:
            system.journal.mark_lost(instance.id, previous, clock.now)
    tracer = infrastructure.tracer
    if tracer is not None:
        tracer.instant(
            "machine-replaced", category="reconcile",
            timestamp=clock.now, lane=old.hostname,
            machine=machine_instance_id,
        )
        tracer.metrics.counter("reconcile.machines_replaced").inc()


def execute_plan(
    engine: DeploymentEngine,
    system: DeployedSystem,
    plan: TransitionPlan,
) -> DeploymentReport:
    """Execute a repair plan: machine replacement, then one up pass over
    redeploys and restarts -- the engine's transition primitives, so
    repairs get the same guards, retries and write-ahead journalling
    (into ``system.journal``) as first deployments.  A restart is a node
    of the up pass with its dependency edges, so a crashed upstream is
    bounced before a redeployed dependent starts against it.
    """
    report = DeploymentReport(jobs=engine.jobs)
    for machine_id in plan.instances(RepairOp.REPROVISION):
        _replace_machine(system, machine_id)

    redeploy = plan.instances(RepairOp.REDEPLOY)
    restart = plan.instances(RepairOp.RESTART)
    if redeploy or restart:
        report.merge(
            engine.drive_instances(
                system, redeploy, plan.target, restart=restart
            )
        )
    return report


@dataclass
class ReconcileRound:
    """What one poll-plan-repair round observed and did."""

    index: int
    started_at: float
    finished_at: float
    drift_items: int
    drift_by_kind: dict[str, int]
    plan_size: int
    plan_by_op: dict[str, int]
    repaired: bool
    converged: bool
    error: Optional[str] = None

    @property
    def time_to_repair(self) -> float:
        """Simulated seconds from drift observation to repaired world
        (0.0 for rounds that found no drift)."""
        return self.finished_at - self.started_at if self.drift_items else 0.0

    def to_payload(self) -> dict:
        return {
            "index": self.index,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "drift_items": self.drift_items,
            "drift_by_kind": dict(self.drift_by_kind),
            "plan_size": self.plan_size,
            "plan_by_op": dict(self.plan_by_op),
            "repaired": self.repaired,
            "converged": self.converged,
            "error": self.error,
            "time_to_repair_s": self.time_to_repair,
        }


@dataclass
class ReconcileResult:
    """The outcome of a multi-round reconcile run."""

    rounds: list[ReconcileRound]

    @property
    def converged(self) -> bool:
        return bool(self.rounds) and self.rounds[-1].converged

    @property
    def rounds_with_drift(self) -> int:
        return sum(1 for r in self.rounds if r.drift_items)

    @property
    def median_time_to_repair(self) -> float:
        samples = [r.time_to_repair for r in self.rounds if r.drift_items]
        return statistics.median(samples) if samples else 0.0

    def to_payload(self) -> dict:
        return {
            "converged": self.converged,
            "rounds_with_drift": self.rounds_with_drift,
            "median_time_to_repair_s": self.median_time_to_repair,
            "rounds": [r.to_payload() for r in self.rounds],
        }


class ReconcileController:
    """The autonomic loop: poll for drift, plan minimally, repair,
    re-check -- on the simulated clock, round after round, toward the
    deployed spec.  A system with an unfinished delta transition is
    refused (:func:`require_no_transition`)."""

    def __init__(
        self,
        engine: DeploymentEngine,
        system: DeployedSystem,
        *,
        interval: float = 30.0,
    ) -> None:
        if interval < 0:
            raise RuntimeEngageError("reconcile interval must be >= 0")
        require_no_transition(system)
        self.engine = engine
        self.system = system
        self.interval = interval
        self.rounds: list[ReconcileRound] = []

    # -- One round -------------------------------------------------------

    def poll(self) -> ReconcileRound:
        """One reconcile round: detect, plan, repair, re-detect.
        Execution failures are captured on the round (the loop keeps
        running; the next round re-plans from the journal's consistent
        frontier)."""
        clock = self.system.infrastructure.clock
        tracer = self.system.infrastructure.tracer
        index = len(self.rounds)
        started = clock.now
        drift = detect_drift(self.system)
        plan = plan_repair(self.system, drift)
        error: Optional[str] = None
        repaired = False
        if not plan.is_noop:
            try:
                execute_plan(self.engine, self.system, plan)
                repaired = True
            except DeploymentError as exc:
                error = str(exc)
        if plan.is_noop and error is None:
            after = drift
        else:
            after = detect_drift(self.system)
        finished = clock.now
        round_ = ReconcileRound(
            index=index,
            started_at=started,
            finished_at=finished,
            drift_items=len(drift.items),
            drift_by_kind=drift.by_kind(),
            plan_size=len(plan),
            plan_by_op=plan.by_op(),
            repaired=repaired,
            converged=after.is_converged,
            error=error,
        )
        self.rounds.append(round_)
        if tracer is not None:
            tracer.span(
                f"round[{index}]", category="reconcile",
                start=started, duration=finished - started,
                lane="reconcile", drift=len(drift.items),
                plan=len(plan), converged=after.is_converged,
                **({"error": error} if error else {}),
            )
            metrics = tracer.metrics
            metrics.counter("reconcile.rounds").inc()
            if drift.items:
                metrics.counter("reconcile.drift_items").inc(
                    len(drift.items)
                )
                metrics.counter("reconcile.repairs").inc(len(plan))
                metrics.histogram("reconcile.time_to_repair_s").observe(
                    round_.time_to_repair
                )
        return round_

    # -- The loop --------------------------------------------------------

    @collector_paused
    def run(self, *, rounds: int = 1, churn=None) -> ReconcileResult:
        """Run ``rounds`` polls, ``interval`` simulated seconds apart.

        ``churn`` is an optional :class:`~repro.sim.faults.MachineChurn`
        whose :meth:`round <repro.sim.faults.MachineChurn.round>` fires
        between the wait and the poll -- the chaos-soak entry point.
        """
        for _ in range(rounds):
            clock = self.system.infrastructure.clock
            if self.interval:
                clock.advance(self.interval)
            if churn is not None:
                churn.round(len(self.rounds))
            self.poll()
        return ReconcileResult(list(self.rounds))
