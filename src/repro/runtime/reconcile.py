"""Self-healing reconciliation: drift detection, minimal delta repair
plans, and the autonomic loop that converges a fleet under churn.

The paper's runtime reacts to individual process failures through the
monit plugin (:mod:`repro.runtime.monitor`); this module generalises
that reflex into a goal-seeking control loop, the pattern every modern
deployment manager converged on:

1. :func:`detect_drift` diffs the *live world* -- driver states, the
   process table, network membership -- against the configured goal
   specification and produces a structured :class:`DriftReport`
   (crashed services, lost machines, missing and extra instances).
2. :func:`plan_repair` turns a drift report into a *minimal*
   dependency-ordered :class:`TransitionPlan`: restart a dead process,
   redeploy the subtree a lost machine took down, uninstall instances
   the goal no longer wants -- never a full redeploy.  Plan size is
   proportional to the damage, not the fleet.
3. :func:`execute_plan` runs the plan through the regular deployment
   machinery (:meth:`DeploymentEngine.drive_instances`), so repairs get
   the same guard checking, retry policy, and write-ahead journalling
   as first deployments, and :meth:`DeploymentJournal.mark_lost` keeps
   the journal's frontier honest about regressions it observed.
4. :class:`ReconcileController` closes the loop on the simulated
   clock: poll, plan, repair, re-check, round after round -- optionally
   re-validating the repair set against the constraint solver via
   :meth:`ConfigurationSession.reconfigure_components
   <repro.config.session.ConfigurationSession.reconfigure_components>`,
   so what gets redeployed is provably the configured goal, not a stale
   copy of it.

Everything is deterministic: same seed, same churn, same rounds --
bit-identical plans and journals.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.core.collector import collector_paused
from repro.core.errors import (
    ConfigurationError,
    DeploymentError,
    RuntimeEngageError,
)
from repro.core.instances import InstallSpec
from repro.drivers.library import ServiceDriver
from repro.drivers.state_machine import ACTIVE, UNINSTALLED
from repro.runtime.deploy import (
    DeployedSystem,
    DeploymentEngine,
    DeploymentReport,
)
from repro.runtime.monitor import ProcessMonitor


class DriftKind(Enum):
    """Why an instance diverges from the goal."""

    CRASHED_SERVICE = "crashed-service"
    LOST_MACHINE = "lost-machine"
    MISSING_INSTANCE = "missing-instance"
    EXTRA_INSTANCE = "extra-instance"


@dataclass(frozen=True)
class DriftItem:
    """One instance out of its goal state.

    ``detail`` carries the kind-specific context: the machine instance
    that was lost, or the state the instance is stuck in.
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

    @property
    def extra_instances(self) -> list[str]:
        return self._ids(DriftKind.EXTRA_INSTANCE)

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
    system: DeployedSystem,
    *,
    goal: Optional[InstallSpec] = None,
    target: str = ACTIVE,
    allow_new: bool = False,
) -> DriftReport:
    """Diff the live world against ``goal`` (default: the deployed spec).

    Checks, in severity order:

    * **lost machines** -- a machine instance whose simulated host has
      dropped off the network (or was replaced behind its back); every
      instance physically on it becomes a ``LOST_MACHINE`` item whose
      detail names the machine instance;
    * **crashed services** -- watched processes that died on machines
      still alive (:meth:`ProcessMonitor.crashed_services`);
    * **missing instances** -- goal instances whose driver is not at
      ``target``;
    * **extra instances** -- deployed instances the goal no longer
      contains, still materialised (state ≠ ``uninstalled``).

    By default ``goal`` must be a subset of the deployed spec: growing
    the goal is an upgrade (see :mod:`repro.runtime.upgrade`), not a
    repair.  The delta planner (:mod:`repro.runtime.delta`) passes
    ``allow_new=True`` to lift that restriction -- goal instances the
    deployed spec has never heard of are then reported as
    ``MISSING_INSTANCE`` items in the ``uninstalled`` state, which is
    exactly what they are from the live world's point of view.
    """
    goal_spec = goal if goal is not None else system.spec
    deployed_ids = set(system.spec.ids())
    unknown = set(goal_spec.ids()) - deployed_ids
    if unknown and not allow_new:
        raise RuntimeEngageError(
            "reconcile goal mentions instances the deployed spec does not "
            f"contain (growing the goal is an upgrade): {sorted(unknown)}"
        )
    network = system.infrastructure.network
    items: list[DriftItem] = []

    lost_machine_ids = [
        instance.id
        for instance in system.spec.machines()
        if instance.id in system.machines
        and (
            not network.has_machine(system.machines[instance.id].hostname)
            or network.machine(system.machines[instance.id].hostname)
            is not system.machines[instance.id]
        )
    ]
    lost_ids: set[str] = set()
    for machine_id in lost_machine_ids:
        for instance in system.spec.instances_on_machine(machine_id):
            lost_ids.add(instance.id)
            items.append(
                DriftItem(DriftKind.LOST_MACHINE, instance.id, machine_id)
            )

    for instance_id in ProcessMonitor(system).crashed_services():
        if instance_id not in lost_ids:
            items.append(
                DriftItem(
                    DriftKind.CRASHED_SERVICE,
                    instance_id,
                    system.state_of(instance_id),
                )
            )

    goal_ids = set(goal_spec.ids())
    for instance in goal_spec.topological_order():
        if instance.id in lost_ids:
            continue
        state = (
            system.state_of(instance.id)
            if instance.id in deployed_ids
            else UNINSTALLED
        )
        if state != target:
            items.append(
                DriftItem(DriftKind.MISSING_INSTANCE, instance.id, state)
            )

    for instance in system.spec.topological_order():
        if instance.id in goal_ids or instance.id in lost_ids:
            continue
        state = system.state_of(instance.id)
        if state != UNINSTALLED:
            items.append(
                DriftItem(DriftKind.EXTRA_INSTANCE, instance.id, state)
            )

    return DriftReport(
        timestamp=system.infrastructure.clock.now,
        target=target,
        items=items,
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
    #: Stop and remove an instance the goal no longer wants.
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

    Steps are already ordered for execution: uninstalls (reverse
    dependency order), machine reprovisioning, redeploys (dependency
    order), then restarts.  ``__len__`` counts steps, which tests
    compare against the fleet size to assert minimality.
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


def plan_repair(
    system: DeployedSystem,
    drift: DriftReport,
    *,
    goal: Optional[InstallSpec] = None,
) -> TransitionPlan:
    """Compute the minimal repair for ``drift``.

    * extras are uninstalled in reverse dependency order;
    * each lost machine gets one ``REPROVISION`` step;
    * lost-and-wanted plus missing instances are redeployed in
      dependency order (drivers on a replaced machine restart from
      ``uninstalled``, so the normal path re-installs exactly what the
      machine lost -- instances elsewhere are untouched);
    * crashed services are restarted, together with any *active*
      downstream service of a redeployed instance (its upstream comes
      back with fresh endpoints, so it must reconnect).

    No drift, empty plan: the no-op property the controller relies on.
    """
    goal_spec = goal if goal is not None else system.spec
    goal_ids = set(goal_spec.ids())
    spec = system.spec
    order = {
        instance.id: index
        for index, instance in enumerate(spec.topological_order())
    }
    steps: list[RepairStep] = []

    extras = set(drift.extra_instances)
    for instance_id in sorted(
        extras, key=lambda iid: order[iid], reverse=True
    ):
        steps.append(
            RepairStep(RepairOp.UNINSTALL, instance_id, "not in goal")
        )

    lost_machines = drift.lost_machines
    for machine_id in sorted(lost_machines, key=lambda iid: order[iid]):
        steps.append(
            RepairStep(RepairOp.REPROVISION, machine_id, "machine lost")
        )

    lost = set(drift.lost_instances)
    redeploy = (lost & goal_ids) | set(drift.missing_instances)
    reasons = {
        iid: "machine lost" if iid in lost else "not at target"
        for iid in redeploy
    }
    for instance_id in sorted(redeploy, key=lambda iid: order[iid]):
        steps.append(
            RepairStep(RepairOp.REDEPLOY, instance_id, reasons[instance_id])
        )

    restarts = {iid: "process died" for iid in drift.crashed_services}
    dependents = spec.downstream_closure(redeploy) - redeploy
    for instance_id in sorted(dependents):
        if instance_id in extras or instance_id in restarts:
            continue
        driver = system.drivers.get(instance_id)
        if isinstance(driver, ServiceDriver) and driver.state == ACTIVE:
            restarts.setdefault(instance_id, "upstream redeployed")
    for instance_id in sorted(restarts, key=lambda iid: order[iid]):
        steps.append(
            RepairStep(
                RepairOp.RESTART, instance_id, restarts[instance_id]
            )
        )

    return TransitionPlan(steps=steps, target=drift.target)


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
        driver.context.machine = fresh
        driver.state = driver.machine_spec.initial
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
    """Execute a repair plan: down (extras), machine replacement, up
    (redeploys), restart -- the engine's transition primitives, so
    repairs get the same guards, retries and write-ahead journalling
    (into ``system.journal``) as first deployments.  Extras are
    journalled like everything else: the journal is bound to the
    *deployed* spec, which still contains them -- a shrunk goal does not
    change what is deployed, and an uninstall left off the record would
    be resumed as ``active``.
    """
    report = DeploymentReport(jobs=engine.jobs)

    extras = plan.instances(RepairOp.UNINSTALL)
    report.merge(engine.drive_down(system, extras, extras))

    for machine_id in plan.instances(RepairOp.REPROVISION):
        _replace_machine(system, machine_id)

    redeploy = plan.instances(RepairOp.REDEPLOY)
    if redeploy:
        report.merge(engine.drive_instances(system, redeploy, plan.target))

    report.merge(
        engine.restart_instances(system, plan.instances(RepairOp.RESTART))
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
    #: Instances re-derived through the constraint solver this round.
    reconfigured: int = 0

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
            "reconfigured": self.reconfigured,
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
    re-check -- on the simulated clock, round after round.

    ``goal`` defaults to the deployed spec.  When a ``session``/
    ``goal_partial`` pair is given, every round with redeploys first
    re-derives the affected hypergraph components through the cached
    incremental solver and insists the result still matches the goal --
    catching configuration drift (a mutated goal spec) before acting on
    it.
    """

    def __init__(
        self,
        engine: DeploymentEngine,
        system: DeployedSystem,
        *,
        goal: Optional[InstallSpec] = None,
        interval: float = 30.0,
        session=None,
        goal_partial=None,
    ) -> None:
        if (session is None) != (goal_partial is None):
            raise RuntimeEngageError(
                "goal revalidation needs both a ConfigurationSession and "
                "the goal's partial spec (or neither)"
            )
        if interval < 0:
            raise RuntimeEngageError("reconcile interval must be >= 0")
        self.engine = engine
        self.system = system
        self.goal = goal if goal is not None else system.spec
        self.interval = interval
        self.session = session
        self.goal_partial = goal_partial
        self.target = system.journal.target
        self.rounds: list[ReconcileRound] = []

    # -- One round -------------------------------------------------------

    def _revalidate_goal(self, plan: TransitionPlan) -> int:
        """Re-derive the components behind this round's redeploys and
        check them against the goal; returns how many instances were
        re-validated.  A mismatch means the goal spec was corrupted
        since configuration -- repairing toward it would deploy a
        system the solver never approved, so fail loudly instead."""
        affected = plan.instances(RepairOp.REDEPLOY)
        if self.session is None or not affected:
            return 0
        try:
            return self.session.revalidate_instances(
                self.goal_partial, self.goal, affected
            )
        except ConfigurationError as exc:
            if "goal drift" not in str(exc):
                raise
            raise RuntimeEngageError(str(exc)) from exc

    def poll(self) -> ReconcileRound:
        """One reconcile round: detect, plan, (re-validate,) repair,
        re-detect.  Execution failures are captured on the round (the
        loop keeps running; the next round re-plans from the journal's
        consistent frontier) -- goal drift raises."""
        clock = self.system.infrastructure.clock
        tracer = self.system.infrastructure.tracer
        index = len(self.rounds)
        started = clock.now
        drift = detect_drift(self.system, goal=self.goal, target=self.target)
        plan = plan_repair(self.system, drift, goal=self.goal)
        reconfigured = self._revalidate_goal(plan)
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
            after = detect_drift(
                self.system, goal=self.goal, target=self.target
            )
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
            reconfigured=reconfigured,
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
                clock.advance(self.interval, "reconcile-wait")
            if churn is not None:
                churn.round(len(self.rounds))
            self.poll()
        return ReconcileResult(list(self.rounds))
