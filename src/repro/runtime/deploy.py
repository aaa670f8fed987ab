"""The deployment engine (S5.2).

"Given a full installation specification, the deployment engine executes
commands on the resource drivers for each resource instance in the
specification such that every driver state machine is in its active
state.  At this point, the system is defined to be deployed."

Instances are processed in dependency order; before every transition the
engine checks the transition's guard against the tracked states of the
upstream and downstream neighbours, exactly as the runtime system of the
paper does.  Execution is delegated to
:class:`~repro.runtime.scheduler.DagScheduler`: a ready queue in pass
order dispatched to ``jobs`` simulated workers (one by default), so
"the process can be performed in parallel, as long as the dependency
ordering is met" is a worker count, and the makespan is measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.collector import collector_paused
from repro.core.errors import (
    ActionTimeout,
    DeploymentError,
    GuardError,
    RuntimeEngageError,
    TransientError,
)
from repro.core.instances import InstallSpec, ResourceInstance
from repro.core.registry import ResourceTypeRegistry
from repro.drivers.base import DriverContext, DriverRegistry, ResourceDriver
from repro.drivers.library import MachineDriver, NullDriver
from repro.drivers.state_machine import ACTIVE, INACTIVE, UNINSTALLED
from repro.runtime.journal import DeploymentJournal, JournalEntry
from repro.runtime.retry import RetryPolicy
from repro.sim.infrastructure import Infrastructure
from repro.sim.machine import Machine, OsIdentity


def standard_driver_registry() -> DriverRegistry:
    """A registry pre-loaded with the generic drivers."""
    from repro.drivers.library import ArchiveDriver, PackageDriver, ServiceDriver

    registry = DriverRegistry()
    registry.register("null", NullDriver)
    registry.register("machine", MachineDriver)
    registry.register("package", PackageDriver)
    registry.register("archive", ArchiveDriver)
    registry.register("service", ServiceDriver)
    return registry


def machine_hostname(instance: ResourceInstance) -> Optional[str]:
    """The hostname a machine instance is bound to: its config port
    first, then the provisioner's ``host`` output record."""
    hostname = instance.config.get("hostname")
    if not hostname:
        host_record = instance.outputs.get("host")
        if isinstance(host_record, dict):
            hostname = host_record.get("hostname")
    return str(hostname) if hostname else None


@dataclass
class ActionRecord:
    """One driver action *attempt* executed during deployment.

    With a retry policy in force an action may appear several times for
    the same (instance, action) pair: one record per attempt, each
    carrying the attempt number, its outcome (``"ok"``,
    ``"transient-error"``, ``"timeout"``, or ``"error"``), the backoff
    the engine waited after a retryable failure, and the error text --
    so reports show exactly what recovery cost.
    """

    instance_id: str
    action: str
    started_at: float
    duration: float
    attempt: int = 1
    outcome: str = "ok"
    backoff_seconds: float = 0.0
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.outcome == "ok"


@dataclass
class DeploymentReport:
    """What a deploy/stop/uninstall pass did and what it cost.

    ``makespan_seconds`` is the *measured* simulated wall-time of the
    pass; ``critical_path_seconds`` is the bound unbounded workers would
    have needed, from the same per-instance elapsed times, so the two
    are directly comparable.
    """

    actions: list[ActionRecord] = field(default_factory=list)
    sequential_seconds: float = 0.0
    makespan_seconds: float = 0.0
    critical_path_seconds: float = 0.0
    #: Worker bound of the pass: 1 = serial, 0 = unbounded.
    jobs: int = 1

    def __post_init__(self) -> None:
        self._indexed_count = -1
        self._by_instance: dict[str, list[ActionRecord]] = {}
        self._failed_attempts = 0
        self._backoff_total = 0.0

    def _reindex(self) -> None:
        """(Re)build the per-instance index and the attempt counters.

        Keyed on ``len(actions)`` so appends (including merged reports)
        invalidate lazily; repeated reads between mutations are O(1)
        instead of rescanning the action list per call.
        """
        if self._indexed_count == len(self.actions):
            return
        by_instance: dict[str, list[ActionRecord]] = {}
        failed = 0
        backoff = 0.0
        for action in self.actions:
            by_instance.setdefault(action.instance_id, []).append(action)
            if not action.succeeded:
                failed += 1
            backoff += action.backoff_seconds
        self._by_instance = by_instance
        self._failed_attempts = failed
        self._backoff_total = backoff
        self._indexed_count = len(self.actions)

    def invalidate_caches(self) -> None:
        """Force a reindex after in-place mutation (e.g. sorting)."""
        self._indexed_count = -1

    def merge(self, part: "DeploymentReport") -> None:
        """Fold a pass that ran after this one into it: actions
        appended, costs summed."""
        self.actions.extend(part.actions)
        self.sequential_seconds += part.sequential_seconds
        self.makespan_seconds += part.makespan_seconds
        self.critical_path_seconds += part.critical_path_seconds

    def actions_for(self, instance_id: str) -> list[ActionRecord]:
        self._reindex()
        return list(self._by_instance.get(instance_id, ()))

    @property
    def retries(self) -> int:
        """How many action attempts failed (and so were retried or
        aborted the run)."""
        self._reindex()
        return self._failed_attempts

    @property
    def total_backoff_seconds(self) -> float:
        self._reindex()
        return self._backoff_total


class DeployedSystem:
    """A deployed application: the spec, live driver state, and the
    write-ahead journal every pass over it records into."""

    def __init__(
        self,
        spec: InstallSpec,
        registry: ResourceTypeRegistry,
        infrastructure: Infrastructure,
        drivers: dict[str, ResourceDriver],
        machines: dict[str, Machine],
    ) -> None:
        self.spec = spec
        self.registry = registry
        self.infrastructure = infrastructure
        self.drivers = drivers
        self.machines = machines
        self.report: Optional[DeploymentReport] = None
        self.journal: DeploymentJournal = DeploymentJournal(spec)

    def driver(self, instance_id: str) -> ResourceDriver:
        return self.drivers[instance_id]

    def state_of(self, instance_id: str) -> str:
        return self.drivers[instance_id].state

    def states(self) -> dict[str, str]:
        return {iid: d.state for iid, d in self.drivers.items()}

    def is_deployed(self) -> bool:
        return all(d.state == ACTIVE for d in self.drivers.values())

    def machine_for(self, instance_id: str) -> Machine:
        return self.machines[self.spec.machine_of(instance_id)]

    def describe(self) -> str:
        """A human-readable status report (the `engage status` view)."""
        lines = ["instance          type                         state"]
        for instance in self.spec.topological_order():
            lines.append(
                f"{instance.id:<17} {str(instance.key):<28} "
                f"{self.state_of(instance.id)}"
            )
        processes = sum(
            len(machine.running_processes())
            for machine in set(self.machines.values())
        )
        lines.append(
            f"-- {len(self.spec)} instances on "
            f"{len(set(self.machines.values()))} machine(s), "
            f"{processes} running process(es)"
        )
        return "\n".join(lines)


class DeploymentEngine:
    """Drives every resource driver to its target basic state in
    dependency order, with guard checking.

    *How* a pass executes is the engine's, set once here and read by
    every pass it runs: ``policy`` governs retries of failing driver
    actions (``None`` = one attempt); ``jobs`` is the number of
    simulated workers (``1``, the default, drives one instance at a
    time; ``0`` = unbounded) and ``jobs_per_host`` additionally bounds
    concurrency per target machine (``None`` = no per-host cap).
    """

    def __init__(
        self,
        registry: ResourceTypeRegistry,
        infrastructure: Infrastructure,
        driver_registry: Optional[DriverRegistry] = None,
        *,
        policy: Optional[RetryPolicy] = None,
        jobs: int = 1,
        jobs_per_host: Optional[int] = None,
    ) -> None:
        for name, bound in (
            ("jobs", jobs), ("jobs_per_host", jobs_per_host or 0),
        ):
            if not isinstance(bound, int) or bound < 0:
                raise RuntimeEngageError(
                    f"{name} must be 0 (unbounded) or a positive worker "
                    f"count, got {bound!r}"
                )
        self.registry = registry
        self.infrastructure = infrastructure
        self.driver_registry = driver_registry or standard_driver_registry()
        self.policy = policy
        self.jobs = jobs
        self.jobs_per_host = jobs_per_host

    # -- Deploy ------------------------------------------------------------

    def deploy(
        self,
        spec: InstallSpec,
        *,
        journal: Optional[DeploymentJournal] = None,
    ) -> DeployedSystem:
        """Install, configure, and start everything; returns the deployed
        system with every driver in ``active``.

        A first deployment is the degenerate resume: :meth:`resume` of a
        blank journal -- ``journal`` when the caller already keeps one
        for this spec, else a new one.  Every completed transition is
        appended to it; on fatal failure the run stops at a consistent
        frontier and raises :class:`~repro.core.errors.DeploymentFailure`
        carrying the journal, from which :meth:`resume` finishes the job.
        """
        if journal is None:
            journal = DeploymentJournal(spec)
        elif journal.spec is not spec:
            raise DeploymentError(
                "the journal passed to deploy records another spec"
            )
        return self.resume(journal)

    def adopt(
        self,
        journal: DeploymentJournal,
        spec: Optional[InstallSpec] = None,
    ) -> DeployedSystem:
        """The live system ``journal`` describes, with no action
        performed: drivers for ``spec`` (the journal's own by default)
        at the journal's frontier, already-active services reattached to
        their running processes, and ``journal`` as the system's
        journal.  Instances the frontier is silent about stay in their
        driver's initial state.

        While a delta transition's down phase is in flight the journal
        speaks about two specs, and ``spec`` says which system is meant:
        ``journal.transition.from_spec`` is the old one being torn down;
        the journal's own is what that phase leaves standing, where the
        instances awaiting teardown are still to be deployed.
        """
        from repro.runtime.state import adopt_states

        if spec is None:
            spec = journal.spec
        frontier = {
            instance_id: state
            for instance_id, state in journal.states().items()
            if instance_id in spec
        }
        if journal.transition is not None and spec is journal.spec:
            for instance_id in journal.transition.pending:
                frontier.pop(instance_id, None)
        system = self.prepare(spec)
        adopt_states(system, frontier)
        system.journal = journal
        return system

    @collector_paused
    def resume(self, journal: DeploymentJournal) -> DeployedSystem:
        """Finish an interrupted deployment from its journal.

        The system is :meth:`adopt` ed from the journal against this
        engine's infrastructure and only the remaining work is driven;
        already-completed instances no-op.  A failed pass's frontier is
        completed instances scattered across independent branches, not
        a topological prefix, and re-adopts like any other.  Raises
        :class:`DeploymentFailure` again if the remaining work fails too.

        A journal carrying a :class:`~repro.runtime.journal
        .SpecTransition` record was interrupted mid-way through a delta
        transition's down phase: the old spec's remaining stop/
        uninstall work is completed first (under the old spec's own
        drivers -- uninstalling the *old* version, not the new one),
        the vacated machines retire, and only then does the up phase
        resume under the journal's spec.
        """
        journal.reset_frontier()
        if journal.transition is not None:
            from repro.runtime.delta import finish_down_phase

            finish_down_phase(
                self, self.adopt(journal, journal.transition.from_spec)
            )
        system = self.adopt(journal)
        system.report = self._drive(system, journal.target, reverse=False)
        return system

    def resolve_machine(self, instance: ResourceInstance) -> Machine:
        """The simulated machine behind a machine instance, created on
        first touch when provisioning has not already placed it on the
        network."""
        hostname = machine_hostname(instance)
        if hostname is None:
            raise DeploymentError(
                f"machine instance {instance.id!r} has no hostname; "
                "run provisioning first"
            )
        network = self.infrastructure.network
        if network.has_machine(hostname):
            return network.machine(hostname)
        return self.infrastructure.add_machine(
            hostname,
            str(instance.config.get("os_name", "ubuntu-linux")),
            str(instance.config.get("os_version", "10.04")),
        )

    def _resolve_machines(self, spec: InstallSpec) -> dict[str, Machine]:
        return {
            instance.id: self.resolve_machine(instance)
            for instance in spec.machines()
        }

    def _create_drivers(
        self,
        spec: InstallSpec,
        machines: dict[str, Machine],
        reuse_drivers: Optional[dict[str, ResourceDriver]] = None,
    ) -> dict[str, ResourceDriver]:
        """One driver per instance, in spec order: the live one from
        ``reuse_drivers`` when it carries the instance over, a new one
        otherwise."""
        carried = reuse_drivers or {}
        drivers: dict[str, ResourceDriver] = {}
        for instance in spec:
            kept = carried.get(instance.id)
            if kept is not None:
                # Keep the old driver's state/process but point it at
                # the fresh instance and spec.
                kept.context.instance = instance
                kept.context.spec = spec
                drivers[instance.id] = kept
                continue
            resource_type = self.registry.effective(instance.key)
            machine = machines[spec.machine_of(instance.id)]
            context = DriverContext(
                instance=instance,
                resource_type=resource_type,
                machine=machine,
                infrastructure=self.infrastructure,
                spec=spec,
            )
            if instance.is_machine():
                driver: ResourceDriver = MachineDriver(context)
            else:
                driver = self.driver_registry.create(
                    resource_type.driver_name, context
                )
            drivers[instance.id] = driver
        return drivers

    # -- State transitions ---------------------------------------------------

    def _drive(
        self,
        system: DeployedSystem,
        target: str,
        *,
        reverse: bool,
        only: Optional[set[str]] = None,
        restart: frozenset[str] = frozenset(),
    ) -> DeploymentReport:
        """Drive instances (all, or just ``only``) to ``target`` in
        (reverse) dependency order, through the one scheduler; the
        ``restart`` nodes among them are bounced instead."""
        from repro.runtime.scheduler import DagScheduler

        return DagScheduler(
            self, system, target, reverse=reverse, only=only, restart=restart
        ).run()

    def _drive_instance(
        self,
        system: DeployedSystem,
        instance_id: str,
        target: str,
        report: DeploymentReport,
        restart: bool = False,
    ) -> None:
        """One node of a pass: its path to ``target``, or a restart
        node's bounce -- none once it has left ``active``."""
        driver = system.driver(instance_id)
        if not restart:
            path = driver.machine_spec.path_to(driver.state, target)
        elif driver.state == ACTIVE:
            path = [driver.machine_spec.find(ACTIVE, "restart")]
            target = ACTIVE
        else:
            return
        for transition in path:
            self._check_guard(system, instance_id, transition)
            self._perform_with_retry(system, instance_id, transition, report)
        journal = system.journal
        if journal.target == target:
            journal.mark_completed(instance_id)
            tracer = self.infrastructure.tracer
            if tracer is not None:
                tracer.instant(
                    "completed", category="journal",
                    timestamp=self.infrastructure.clock.now,
                    lane=system.machine_for(instance_id).hostname,
                    instance=instance_id,
                )
        else:
            # ``completed`` means *at the journal's target*: a pass that
            # drives elsewhere (stop, uninstall) takes the instance out.
            journal.completed.discard(instance_id)

    def _perform_with_retry(
        self,
        system: DeployedSystem,
        instance_id: str,
        transition,
        report: DeploymentReport,
    ) -> None:
        """One transition, up to ``self.policy.max_attempts`` times, with
        exponential backoff between retryable failures.  Appends one
        :class:`ActionRecord` per attempt; journals only success."""
        policy = self.policy
        driver = system.driver(instance_id)
        clock = self.infrastructure.clock
        tracer = self.infrastructure.tracer
        attempts = policy.max_attempts if policy is not None else 1
        timeout = policy.action_timeout if policy is not None else None
        for attempt in range(1, attempts + 1):
            started = clock.now
            try:
                driver.perform(transition.action, timeout=timeout)
            except Exception as exc:
                duration = clock.now - started
                if isinstance(exc, ActionTimeout):
                    outcome = "timeout"
                elif isinstance(exc, TransientError):
                    outcome = "transient-error"
                else:
                    outcome = "error"
                retrying = (
                    policy is not None
                    and attempt < attempts
                    and policy.is_retryable(exc)
                )
                backoff = 0.0
                if retrying:
                    backoff = policy.backoff_seconds(
                        attempt, instance_id, transition.action
                    )
                    if backoff > 0.0:
                        clock.advance(
                            backoff,
                            f"backoff:{instance_id}:{transition.action}",
                        )
                record = ActionRecord(
                    instance_id=instance_id,
                    action=transition.action,
                    started_at=started,
                    duration=duration,
                    attempt=attempt,
                    outcome=outcome,
                    backoff_seconds=backoff,
                    error=str(exc),
                )
                report.actions.append(record)
                if tracer is not None:
                    self._trace_attempt(tracer, system, record)
                if retrying:
                    continue
                raise DeploymentError(
                    f"action {transition.action!r} failed on "
                    f"{instance_id!r} (attempt {attempt} of {attempts}): "
                    f"{exc}"
                ) from exc
            record = ActionRecord(
                instance_id=instance_id,
                action=transition.action,
                started_at=started,
                duration=clock.now - started,
                attempt=attempt,
            )
            report.actions.append(record)
            if tracer is not None:
                self._trace_attempt(tracer, system, record)
            system.journal.record(
                JournalEntry(
                    instance_id=instance_id,
                    action=transition.action,
                    source=transition.source,
                    target=transition.target,
                    timestamp=clock.now,
                )
            )
            if tracer is not None:
                tracer.instant(
                    "record", category="journal", timestamp=clock.now,
                    lane=system.machine_for(instance_id).hostname,
                    instance=instance_id, action=transition.action,
                    target=transition.target,
                )
            return

    def _trace_attempt(
        self, tracer, system: DeployedSystem, record: ActionRecord
    ) -> None:
        """One span per action attempt (plus a backoff span when the
        policy waited), on the target machine's lane, mirroring the
        :class:`ActionRecord` one-to-one."""
        lane = system.machine_for(record.instance_id).hostname
        args = {
            "instance": record.instance_id,
            "attempt": record.attempt,
            "outcome": record.outcome,
        }
        if record.error is not None:
            args["error"] = record.error
        tracer.span(
            record.action, category="action", start=record.started_at,
            duration=record.duration, lane=lane, **args,
        )
        metrics = tracer.metrics
        metrics.counter("deploy.actions").inc()
        if not record.succeeded:
            metrics.counter("deploy.failed_attempts").inc()
        if record.backoff_seconds > 0.0:
            metrics.histogram("deploy.backoff_seconds").observe(
                record.backoff_seconds
            )
            tracer.span(
                "backoff", category="backoff",
                start=record.started_at + record.duration,
                duration=record.backoff_seconds, lane=lane,
                instance=record.instance_id, action=record.action,
                attempt=record.attempt,
            )

    def _check_guard(
        self, system: DeployedSystem, instance_id: str, transition
    ) -> None:
        upstream = [
            system.state_of(u) for u in system.spec.upstream_ids(instance_id)
        ]
        downstream = [
            system.state_of(d)
            for d in system.spec.downstream_ids(instance_id)
        ]
        if not transition.guard_holds(upstream, downstream):
            raise GuardError(
                f"guard of {transition} not satisfied for {instance_id!r} "
                f"(upstream={upstream}, downstream={downstream})"
            )

    # -- Transition primitives ---------------------------------------------
    #
    # Every live transition -- repair, delta, upgrade, shutdown -- is a
    # composition of these two plus :meth:`prepare`: down
    # (:meth:`drive_down`) and up (:meth:`drive_instances`, restarts
    # included).

    def drive_instances(
        self,
        system: DeployedSystem,
        instance_ids: Iterable[str],
        target: str,
        *,
        reverse: bool = False,
        restart: Iterable[str] = (),
    ) -> DeploymentReport:
        """Drive just ``instance_ids`` to ``target`` through the regular
        scheduler -- guards, retries, and write-ahead
        journalling included.  Guards are checked against the *global*
        state, so instances outside the set safely anchor the guards of
        those inside it.

        ``restart`` ids join the pass as restart nodes: same dependency
        edges, same ready queue, but a dispatched one that is still
        ``active`` performs its ``restart`` transition, so a bounced
        upstream is back before any dependent in the pass starts."""
        restart = frozenset(restart)
        return self._drive(
            system, target, reverse=reverse,
            only=set(instance_ids) | restart, restart=restart,
        )

    def drive_down(
        self,
        system: DeployedSystem,
        stop: Iterable[str],
        uninstall: Iterable[str] = (),
    ) -> DeploymentReport:
        """Drive ``stop`` down to ``inactive``, then ``uninstall`` to
        ``uninstalled``, each in reverse dependency order.

        Filtered by live state, so finished work no-ops (a resumed down
        phase picks up where it stopped) and nothing is installed merely
        to be removed again."""
        report = DeploymentReport(jobs=self.jobs)
        for ids, target, done in (
            (stop, INACTIVE, (INACTIVE, UNINSTALLED)),
            (uninstall, UNINSTALLED, (UNINSTALLED,)),
        ):
            pending = [i for i in ids if system.state_of(i) not in done]
            if pending:
                report.merge(
                    self.drive_instances(
                        system, pending, target, reverse=True
                    )
                )
        return report

    def prepare(
        self,
        spec: InstallSpec,
        reuse_drivers: Optional[dict[str, ResourceDriver]] = None,
    ) -> DeployedSystem:
        """Build a :class:`DeployedSystem` without performing any actions.

        ``reuse_drivers`` carries live drivers (with their current state
        and processes) over from a previous system for instances that
        are unchanged -- the heart of delta transitions; a driver is
        constructed only for an instance it does not cover.
        """
        machines = self._resolve_machines(spec)
        drivers = self._create_drivers(spec, machines, reuse_drivers)
        return DeployedSystem(
            spec, self.registry, self.infrastructure, drivers, machines
        )

    # -- Management operations --------------------------------------------------

    def shutdown(self, system: DeployedSystem) -> DeploymentReport:
        """Stop all services in reverse dependency order (S5.2)."""
        return self.drive_down(system, system.spec.ids())

    def start(self, system: DeployedSystem) -> DeploymentReport:
        """(Re)start everything in dependency order."""
        return self._drive(system, ACTIVE, reverse=False)

    def uninstall(self, system: DeployedSystem) -> DeploymentReport:
        """Stop and uninstall everything, reverse dependency order."""
        ids = system.spec.ids()
        return self.drive_down(system, ids, ids)
