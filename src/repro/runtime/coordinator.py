"""Multi-host deployment coordination (S5.2).

"The implementation of a multi-host install can be simplified if one can
partially order the machines ... In this case, we can break the overall
install specification into per-node specifications and run a slave
instance of Engage on each target host.  The entire deployment is then
coordinated from a master host, with each slave running with no awareness
of the others.  Slave deployments can run in parallel when the slaves
have no inter-dependencies."

The master groups the machines into dependency waves
(:func:`machine_waves`), splits the full spec into per-node specs
(cross-machine links are dropped -- port values were already propagated
globally, so slaves need no awareness of remote instances), and deploys
wave by wave.  Machines in the same *wave* (no cross-dependency between
them) deploy **concurrently** on the shared simulated clock: each slave
agent executes its work item inside an overlapping
:class:`~repro.sim.clock.ClockSpan` anchored at the instant the work
arrived, and the report's ``parallel_makespan_seconds`` is the
measured wall-clock of the whole deployment.  The coordinator's
``policy`` / ``jobs`` / ``jobs_per_host`` are those of its one
:class:`DeploymentEngine`, which every slave agent derives its own from,
so intra-machine parallelism composes with the inter-machine waves.

What comes back is a :class:`DeployedSystem` over the full spec -- the
slaves' own drivers, their journals merged, a :class:`BusReport` -- so
everything that manages a directly deployed system manages this one.

:meth:`BusCoordinator.deploy` drives master and agents from one
discrete-event loop.  At each instant it applies due chaos events,
delivers due mail, and steps only the nodes that have mail or a due
timer -- the master first, then agents in sorted machine order, which
fixes the send order and with it every delivery tie-break -- then moves
the clock to the earliest of: the next delivery, the master's next
wake, the agents' timer heap, the next chaos event.
``docs/INTERNALS.md`` ("The control loop") has the argument for why a
skipped step is a no-op.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.core.collector import collector_paused
from repro.core.errors import (
    DeploymentError,
    DeploymentFailure,
    RuntimeEngageError,
    SimulationError,
)
from repro.core.instances import InstallSpec, ResourceInstance
from repro.core.registry import ResourceTypeRegistry
from repro.drivers.base import DriverRegistry, ResourceDriver
from repro.runtime import bus as busmod
from repro.runtime.bus import MessageBus
from repro.runtime.deploy import (
    DeployedSystem,
    DeploymentEngine,
    DeploymentReport,
)
from repro.runtime.journal import DeploymentJournal
from repro.runtime.retry import RetryPolicy
from repro.sim.infrastructure import Infrastructure


def split_spec(spec: InstallSpec) -> dict[str, InstallSpec]:
    """Per-node installation specifications, keyed by machine instance id.

    Each sub-spec contains exactly the instances whose physical context is
    that machine, with links to instances on *other* machines removed
    (their configuration influence already flowed during propagation).
    """
    per_node: dict[str, list[ResourceInstance]] = {}
    machine_of = {inst.id: spec.machine_of(inst.id) for inst in spec}
    for instance in spec:
        machine_id = machine_of[instance.id]
        local = lambda link: machine_of[link.target.id] == machine_id
        trimmed = replace(
            instance,
            environment=tuple(l for l in instance.environment if local(l)),
            peers=tuple(l for l in instance.peers if local(l)),
        )
        per_node.setdefault(machine_id, []).append(trimmed)
    return {
        machine_id: InstallSpec(instances)
        for machine_id, instances in per_node.items()
    }


def machine_waves(spec: InstallSpec) -> list[list[str]]:
    """Group machines into dependency levels: every machine in wave *i*
    depends only on machines in waves < *i*, so a wave deploys in
    parallel.  A cross-machine dependency cycle (the paper assumes
    none) is a :class:`DeploymentError` naming the machines left
    unplaced."""
    machine_of = {inst.id: spec.machine_of(inst.id) for inst in spec}
    machines = sorted(set(machine_of.values()))
    prerequisites: dict[str, set[str]] = {m: set() for m in machines}
    for instance in spec:
        m2 = machine_of[instance.id]
        for upstream in instance.upstream_ids():
            m1 = machine_of[upstream]
            if m1 != m2:
                prerequisites[m2].add(m1)

    waves: list[list[str]] = []
    placed: set[str] = set()
    remaining = set(machines)
    while remaining:
        wave = sorted(
            m for m in remaining if prerequisites[m] <= placed
        )
        if not wave:
            raise DeploymentError(
                "cross-machine dependency cycle; cannot order machines: "
                + ", ".join(sorted(remaining))
            )
        waves.append(wave)
        placed.update(wave)
        remaining.difference_update(wave)
    return waves


#: The slave-agent package installed on every target host (S5.2: "run a
#: slave instance of Engage on each target host").
AGENT_PACKAGE = ("engage-agent", "1.0")


def install_agent(
    engine: DeploymentEngine, sub_spec: InstallSpec, installed: list[str]
) -> None:
    """Install the Engage slave agent on ``sub_spec``'s target hosts,
    appending the hostnames that needed it to ``installed``.

    Idempotent: the package is published to the index once and installed
    only where missing.
    """
    infrastructure = engine.infrastructure
    name, version = AGENT_PACKAGE
    if not infrastructure.package_index.has(name, version):
        infrastructure.package_index.publish_simple(name, version, 2_000_000)
    for instance in sub_spec.machines():
        machine = engine.resolve_machine(instance)
        manager = infrastructure.package_manager(machine)
        if not manager.is_installed(name):
            manager.install(name, version)
            installed.append(machine.hostname)


class MultiHostDeploymentFailure(DeploymentFailure):
    """A coordinated deployment stopped with one slave failed.

    A :class:`~repro.core.errors.DeploymentFailure` about the *fleet*:
    ``system`` spans every machine (``system.journal`` is ``journal``,
    so no sibling's in-flight entries are orphaned and the whole fleet
    resumes from it), ``completed`` / ``failed`` / ``skipped`` partition
    the full spec; ``failed_machine`` names the culprit and
    ``unstarted`` the machines whose work never arrived.
    """

    def __init__(
        self,
        message: str,
        *,
        failed_machine: str,
        unstarted: list[str],
        **kwargs: Any,
    ) -> None:
        super().__init__(message, **kwargs)
        self.failed_machine = failed_machine
        self.unstarted = list(unstarted)


# ---------------------------------------------------------------------------
# The message-bus control plane.
#
# Every hand-off crosses a simulated
# :class:`~repro.runtime.bus.MessageBus`: the master enqueues one
# idempotent *work item* per (wave, machine) and retransmits until
# acked; slave agents consume work, execute it through the ordinary
# deployment engine (DAG scheduler, retries, write-ahead journal), and
# ack when it is done (the fleet's frontier is read from the agents'
# journals at the end).  Because delivery is at-least-once and chaotic
# (drops, duplicates, reorders, partitions), everything is keyed: a
# work item's dedup key makes re-execution a cache hit, and a re-ack
# replays the cached ack instead of redoing the work --
# at-least-once delivery, exactly-once *effect*.  A direct in-process
# call is the degenerate case: a fault-free bus at zero latency.
# ---------------------------------------------------------------------------


def work_key(wave: int, machine_id: str) -> str:
    """The idempotency key of one work item (a machine deploys in
    exactly one wave, so the key is unique per deployment)."""
    return f"w{wave}:{machine_id}"


def _require_positive(name: str, value: float) -> None:
    """A zero period never advances its timer: ``heartbeat_every=0``
    fills memory with heartbeats for one instant and
    ``retransmit_after=0`` re-sends on every micro-step."""
    if value <= 0:
        raise SimulationError(f"{name} must be > 0, got {value}")


class SlaveCrashed(Exception):
    """The slave agent process died mid-deployment.

    Deliberately *not* an :class:`~repro.core.errors.EngageError`: the
    schedulers convert those into :class:`DeploymentFailure` at a
    consistent frontier, but a crash is not a failed action -- it must
    punch straight through the scheduler to the agent's crash handler,
    leaving the journal exactly as the last completed action wrote it.
    """

    def __init__(self, machine_id: str, at: float) -> None:
        super().__init__(f"slave agent on {machine_id!r} crashed at {at:.3f}")
        self.machine_id = machine_id
        self.at = at


@dataclass
class _CrashFuse:
    """Kills the slave agent after N driver actions (before the N+1th)."""

    after_actions: int
    armed: bool = True
    count: int = 0

    def blown(self) -> bool:
        if not self.armed:
            return False
        self.count += 1
        return self.count > self.after_actions


class _SlaveEngine(DeploymentEngine):
    """A deployment engine wired to a crash fuse.

    The fuse is checked *before* each driver action, modelling a kill
    between actions: the world and the journal stay mutually consistent
    (an action either fully happened and was journalled, or neither).
    """

    def __init__(
        self,
        engine: DeploymentEngine,
        fuse: Optional[_CrashFuse],
        machine_id: str,
    ) -> None:
        # The same engine -- registry, world, retry policy, worker
        # bounds -- plus the fuse.
        self.__dict__.update(vars(engine))
        self.fuse = fuse
        self.machine_id = machine_id

    def _perform_with_retry(self, system, instance_id, transition, report):
        if self.fuse is not None and self.fuse.blown():
            raise SlaveCrashed(self.machine_id, self.infrastructure.clock.now)
        super()._perform_with_retry(system, instance_id, transition, report)


class SlaveAgent:
    """One Engage slave: consumes work from the bus, acks frontiers.

    The split between durable and volatile state is the crash model:
    ``journals`` is the write-ahead journal on the slave's disk and
    survives a crash; ``systems`` (live driver objects) and the inbox
    are process memory and are lost.  ``acks`` caches the final ack per
    work key so a duplicate or retransmitted work item is answered from
    the cache -- the ``redundant_acks`` counter is the proof that
    at-least-once delivery never re-executed completed work.
    """

    def __init__(
        self,
        machine_id: str,
        engine: DeploymentEngine,
        bus: MessageBus,
        *,
        master: str = "master",
        heartbeat_every: float = 5.0,
        crash_after_actions: Optional[int] = None,
        crash_down_for: float = 25.0,
    ) -> None:
        _require_positive("heartbeat_every", heartbeat_every)
        self.machine_id = machine_id
        self.name = machine_id
        self.infrastructure = engine.infrastructure
        self.bus = bus
        self.endpoint = bus.register(self.name)
        self.master = master
        self.heartbeat_every = heartbeat_every
        self.fuse = (
            _CrashFuse(crash_after_actions)
            if crash_after_actions is not None else None
        )
        self.engine = _SlaveEngine(engine, self.fuse, machine_id)
        self.down_for = crash_down_for
        # Durable (survives a crash): the write-ahead journals.
        self.journals: dict[str, DeploymentJournal] = {}
        # Volatile (lost at crash): live systems and the ack cache is
        # rebuilt from the journal on re-execution.
        self.systems: dict[str, DeployedSystem] = {}
        self.acks: dict[str, dict] = {}
        self._ack_attempts: dict[str, int] = {}
        self.agents_installed: list[str] = []
        self.crashed = False
        self.rejoin_at: Optional[float] = None
        self.busy_until = 0.0
        self.next_heartbeat = 0.0
        self.total_seconds = 0.0
        self.work_executions = 0
        self.work_resumes = 0
        self.redundant_acks = 0
        self.crashes = 0
        self.rejoins = 0

    # -- Control loop hooks ----------------------------------------------

    def step(self, now: float) -> None:
        if self.crashed:
            if self.rejoin_at is not None and now >= self.rejoin_at:
                self._rejoin(now)
            return
        for envelope in self.endpoint.drain():
            if envelope.kind == busmod.WORK:
                self._handle_work(envelope, now)
            elif envelope.kind == busmod.ADOPT:
                self.master = envelope.sender
        if not self.crashed and now >= self.next_heartbeat:
            self.bus.send(
                self.name, self.master, busmod.HEARTBEAT,
                {"machine": self.machine_id},
                at=max(now, self.busy_until),
            )
            self.next_heartbeat = max(now, self.busy_until) \
                + self.heartbeat_every

    def next_wake(self, now: float) -> Optional[float]:
        if self.crashed:
            return self.rejoin_at
        return self.next_heartbeat

    # -- Work execution ---------------------------------------------------

    def _handle_work(self, envelope, now: float) -> None:
        key = envelope.dedup_key
        self.master = envelope.sender
        if key in self.acks:
            # Duplicate or retransmitted work for something already
            # done: replay the cached ack, never the work.
            self.redundant_acks += 1
            self._send_ack(self.acks[key], now)
            return
        sub_spec: InstallSpec = envelope.payload["spec"]
        wave: int = envelope.payload["wave"]
        journal = self.journals.get(key)
        if journal is None:
            journal = DeploymentJournal(sub_spec)
            self.journals[key] = journal
        # A first deployment is the resume of a blank journal; the two
        # counters only say which kind of journal the work found.
        if journal.entries or journal.completed:
            self.work_resumes += 1
        else:
            self.work_executions += 1
        span = self.infrastructure.clock.overlapping(now)
        try:
            with span:
                install_agent(self.engine, sub_spec, self.agents_installed)
                system = self.engine.resume(journal)
        except SlaveCrashed:
            # A parallel pass may have journalled a sibling action whose
            # completion lands *after* the instant the fuse blew (the
            # DAG scheduler drives each in-flight action to its simulated
            # end).  The write-ahead journal is the durable truth, so the
            # crash is ordered after its last record -- otherwise the
            # rejoined resume could timestamp new entries before ones
            # that survived, inverting per-instance chains.
            end = max(
                span.end,
                max((e.timestamp for e in journal.entries), default=0.0),
            )
            self.total_seconds += end - now
            self._heartbeat_over(now, end, key)
            self._crash(end)
            return
        except DeploymentFailure as failure:
            self.total_seconds += span.elapsed
            if failure.system is not None:
                self.systems[key] = failure.system
            self.bus.send(
                self.name, self.master, busmod.NACK,
                {"key": key, "machine": self.machine_id,
                 "error": str(failure)},
                at=span.end,
            )
            return
        self.total_seconds += span.elapsed
        self.busy_until = max(self.busy_until, span.end)
        self.systems[key] = system
        ack = {
            "key": key,
            "machine": self.machine_id,
            "wave": wave,
            "seconds": span.elapsed,
            "finished_at": span.end,
        }
        self.acks[key] = ack
        self._heartbeat_over(now, span.end, key)
        self._send_ack(ack, span.end)

    def _send_ack(self, ack: dict, at: float) -> None:
        # Each (re)send is a distinct attempt so the link-fault plan
        # draws independently -- a seed that drops the first ack must
        # not deterministically drop every re-ack.
        attempt = self._ack_attempts.get(ack["key"], 0) + 1
        self._ack_attempts[ack["key"]] = attempt
        self.bus.send(
            self.name, self.master, busmod.ACK, ack,
            dedup_key=f"ack:{ack['key']}", attempt=attempt,
            at=max(at, self.busy_until),
        )

    def _heartbeat_over(self, start: float, end: float, key: str) -> None:
        """Retroactive progress heartbeats covering a long work span.

        Each names the in-flight work key, so the master pushes back
        that item's retransmit timer (and does not suspect a slave that
        is merely busy) instead of re-sending work the slave is already
        executing."""
        t = start + self.heartbeat_every
        while t < end:
            self.bus.send(
                self.name, self.master, busmod.HEARTBEAT,
                {"machine": self.machine_id, "working": [key]}, at=t,
            )
            t += self.heartbeat_every
        self.next_heartbeat = max(self.next_heartbeat, end)

    # -- Crash and rejoin --------------------------------------------------

    def _crash(self, at: float) -> None:
        self.crashed = True
        self.crashes += 1
        if self.fuse is not None:
            self.fuse.armed = False
        self.bus.close(self.name)
        # Process memory is gone; the write-ahead journal is not.
        self.systems.clear()
        self.acks.clear()
        self.rejoin_at = at + self.down_for

    def _rejoin(self, now: float) -> None:
        self.crashed = False
        self.rejoins += 1
        self.bus.open(self.name)
        self.bus.send(
            self.name, self.master, busmod.HELLO,
            {"machine": self.machine_id},
        )
        self.next_heartbeat = now + self.heartbeat_every


@dataclass
class WorkStatus:
    """The master's durable record of one work item."""

    key: str
    machine_id: str
    wave: int
    sent_at: Optional[float] = None
    attempts: int = 0
    acked: bool = False
    ack: Optional[dict] = None
    error: Optional[str] = None


class ControlLog:
    """The master's write-ahead control log: every work item and its
    ack state, plus the wave cursor.  Durable -- a standby master
    adopts a :meth:`clone` at failover and carries on from the acked
    frontier instead of restarting the deployment."""

    def __init__(self) -> None:
        self.statuses: dict[str, WorkStatus] = {}
        self.wave_index = 0

    def clone(self) -> "ControlLog":
        log = ControlLog()
        log.wave_index = self.wave_index
        for key, status in self.statuses.items():
            log.statuses[key] = WorkStatus(
                key=status.key,
                machine_id=status.machine_id,
                wave=status.wave,
                # Unacked work is resent immediately by the adopter:
                # the old master's in-flight transmissions (and any
                # acks addressed to it) are lost with it.
                sent_at=status.sent_at if status.acked else None,
                attempts=status.attempts,
                acked=status.acked,
                ack=dict(status.ack) if status.ack is not None else None,
                error=status.error,
            )
        return log


class MasterNode:
    """The deployment master: dispatches waves of work items over the
    bus, retransmits unacked work, and watches slave heartbeats.

    ``open`` is the current wave's unacked work, in wave order: loaded
    when a wave opens (construction -- a standby's cloned log included
    -- and :meth:`_advance_waves`), shrunk by :meth:`_handle_ack`, and
    all that the per-step checks and :meth:`next_wake` look at.

    The control loop keeps the wake :meth:`next_wake` returned after
    the last step and hands it to the next :meth:`step`, which returns
    early from heartbeat-only mail that comes before it.  The master
    keeps no copy: :meth:`next_wake` only computes.  A step given no
    wake is a full step, and so is a new master's or a standby's
    first, which the loop hands the current instant as its wake.
    """

    def __init__(
        self,
        name: str,
        bus: MessageBus,
        waves: list[list[str]],
        per_node: dict[str, InstallSpec],
        *,
        log: Optional[ControlLog] = None,
        retransmit_after: float = 10.0,
        heartbeat_timeout: float = 15.0,
    ) -> None:
        _require_positive("retransmit_after", retransmit_after)
        _require_positive("heartbeat_timeout", heartbeat_timeout)
        self.name = name
        self.bus = bus
        self.waves = waves
        self.per_node = per_node
        self.endpoint = bus.register(name)
        self.retransmit_after = retransmit_after
        self.heartbeat_timeout = heartbeat_timeout
        self.started_at = bus.clock.now
        if log is None:
            log = ControlLog()
            for wave_index, wave in enumerate(waves):
                for machine_id in wave:
                    key = work_key(wave_index, machine_id)
                    log.statuses[key] = WorkStatus(key, machine_id, wave_index)
        self.log = log
        self.open: list[WorkStatus] = []
        self._open_wave()
        self.last_seen: dict[str, float] = {}
        self.suspected: set[str] = set()
        self.suspects: list[dict] = []
        self.rejoins: list[dict] = []
        self.failures: dict[str, str] = {}
        self.duplicate_acks = 0

    def adopt(self, now: float) -> None:
        """Announce this (standby) master to every slave, so acks and
        heartbeats re-target it."""
        for machine_id in sorted(self.per_node):
            self.bus.send(
                self.name, machine_id, busmod.ADOPT, {"master": self.name}
            )

    # -- Control loop hooks ----------------------------------------------

    def step(self, now: float, wake: Optional[float] = None) -> None:
        """Drain the mail, then check suspects, advance waves and
        dispatch.  ``wake`` is what :meth:`next_wake` returned after the
        previous step, or None."""
        # Heartbeats only move deadlines later, so mail of nothing else
        # before that wake leaves the checks below nothing to do --
        # unless a suspect came back, with a deadline of its own.
        quiet = wake is not None and now < wake - 1e-6
        for envelope in self.endpoint.drain():
            self.last_seen[envelope.sender] = max(
                self.last_seen.get(envelope.sender, 0.0), envelope.deliver_at
            )
            if envelope.sender in self.suspected:
                self.suspected.discard(envelope.sender)
                quiet = False
            if envelope.kind != busmod.HEARTBEAT:
                quiet = False
            if envelope.kind == busmod.ACK:
                self._handle_ack(envelope.payload)
            elif envelope.kind == busmod.NACK:
                self.failures[envelope.payload["key"]] = \
                    envelope.payload["error"]
            elif envelope.kind == busmod.HELLO:
                self._handle_hello(envelope.payload, now)
            elif envelope.kind == busmod.HEARTBEAT:
                # A progress heartbeat names in-flight work: push back
                # its retransmit timer -- the slave has the item and is
                # executing it, re-sending would only burn messages.
                for key in envelope.payload.get("working", ()):
                    status = self.log.statuses.get(key)
                    if status is not None and not status.acked \
                            and status.sent_at is not None:
                        status.sent_at = max(
                            status.sent_at, envelope.deliver_at
                        )
        if quiet:
            return
        self._check_suspects(now)
        self._advance_waves()
        self._dispatch(now)

    def _handle_ack(self, ack: dict) -> None:
        status = self.log.statuses.get(ack["key"])
        if status is None:
            return
        if status.acked:
            self.duplicate_acks += 1
            return
        status.acked = True
        status.ack = ack
        if status.wave == self.log.wave_index:
            self.open.remove(status)
        self.failures.pop(ack["key"], None)

    def _handle_hello(self, payload: dict, now: float) -> None:
        machine_id = payload["machine"]
        self.rejoins.append({"at": now, "machine": machine_id})
        # A rejoining slave lost its process memory: resend its unacked
        # work immediately instead of waiting out the retransmit timer.
        for status in self.log.statuses.values():
            if status.machine_id == machine_id and not status.acked:
                status.sent_at = None

    def _check_suspects(self, now: float) -> None:
        for status in self.open:
            machine_id = status.machine_id
            if machine_id in self.suspected:
                continue
            seen = self.last_seen.get(machine_id, self.started_at)
            if now - seen > self.heartbeat_timeout:
                self.suspected.add(machine_id)
                self.suspects.append(
                    {"at": now, "machine": machine_id, "last_seen": seen}
                )

    def _open_wave(self) -> None:
        index = self.log.wave_index
        statuses = (
            self.log.statuses[work_key(index, machine_id)]
            for machine_id in ([] if self.done() else self.waves[index])
        )
        self.open = [status for status in statuses if not status.acked]

    def _advance_waves(self) -> None:
        while not self.open and not self.done():
            self.log.wave_index += 1
            self._open_wave()

    def _dispatch(self, now: float) -> None:
        for status in self.open:
            if status.key in self.failures:
                continue
            if (
                status.sent_at is not None
                and now - status.sent_at < self.retransmit_after
            ):
                continue
            status.attempts += 1
            status.sent_at = now
            self.bus.send(
                self.name, status.machine_id, busmod.WORK,
                {"wave": status.wave,
                 "spec": self.per_node[status.machine_id]},
                dedup_key=status.key, attempt=status.attempts,
            )

    def done(self) -> bool:
        return self.log.wave_index >= len(self.waves)

    def next_wake(self, now: float) -> Optional[float]:
        """The earliest retransmit or suspect deadline of the open wave:
        the ``wake`` for the next :meth:`step`."""
        wake: Optional[float] = None
        for status in self.open:
            if status.sent_at is None:
                due = now
            else:
                due = status.sent_at + self.retransmit_after
            if wake is None or due < wake:
                wake = due
            if status.machine_id not in self.suspected:
                seen = self.last_seen.get(status.machine_id, self.started_at)
                due = seen + self.heartbeat_timeout
                if due < wake:
                    wake = due
        return wake

    def retransmits(self) -> int:
        return sum(
            max(0, status.attempts - 1)
            for status in self.log.statuses.values()
        )


class _AgentTimers:
    """Every agent's next wake, on a lazy-deletion heap: a heap entry
    counts only while it still is that agent's current wake."""

    def __init__(self) -> None:
        self._wake: dict[str, Optional[float]] = {}
        self._heap: list[tuple[float, str]] = []

    def set(self, machine_id: str, wake: Optional[float]) -> None:
        if wake != self._wake.get(machine_id):
            self._wake[machine_id] = wake
            if wake is not None:
                heapq.heappush(self._heap, (wake, machine_id))

    def pop_due(self, now: float) -> set[str]:
        """The agents whose wake has come.  They are off the heap until
        :meth:`set` again, which the loop does right after their step."""
        due = set()
        while self._heap and self._heap[0][0] <= now:
            wake, machine_id = heapq.heappop(self._heap)
            if self._wake[machine_id] == wake:
                self._wake[machine_id] = None
                due.add(machine_id)
        return due

    def next_time(self) -> Optional[float]:
        while self._heap and (
            self._wake[self._heap[0][1]] != self._heap[0][0]
        ):
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None


@dataclass
class BusChaos:
    """The fault schedule of one bus-coordinated deployment.

    Times are seconds after the deployment starts.  ``partition_slaves``
    limits the partition to a subset of machine ids (``None`` cuts every
    slave off the master); the crash fields arm a
    :class:`_CrashFuse` on one slave agent.
    """

    partition_at: Optional[float] = None
    partition_for: float = 30.0
    partition_slaves: Optional[list[str]] = None
    crash_machine: Optional[str] = None
    crash_after_actions: int = 3
    crash_down_for: float = 25.0
    failover_at: Optional[float] = None

    def check(self, machines: set[str]) -> None:
        """Refuse a schedule no deployment of ``machines`` can honour: a
        machine it does not have, a partition that never heals, or a
        negative time, crash count or downtime."""
        named = [("partition_slaves", m) for m in self.partition_slaves or ()]
        if self.crash_machine is not None:
            named.insert(0, ("crash_machine", self.crash_machine))
        for name, machine in named:
            if machine not in machines:
                raise RuntimeEngageError(
                    f"bus chaos {name}: {machine!r} is not a machine of "
                    "the spec"
                )
        if self.partition_for <= 0:
            raise RuntimeEngageError(
                "bus chaos partition_for must be > 0, got "
                f"{self.partition_for}"
            )
        for name in (
            "partition_at", "failover_at", "crash_after_actions",
            "crash_down_for",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise RuntimeEngageError(
                    f"bus chaos {name} must be >= 0, got {value}"
                )


@dataclass
class BusReport(DeploymentReport):
    """What a bus-coordinated deployment did and cost: the slaves'
    action records in machine order, plus the control-plane accounting.

    ``sequential_seconds`` sums the per-machine wall-clocks,
    ``makespan_seconds`` is the measured wall-clock of the whole
    deployment, and ``critical_path_seconds`` the bound the wave
    barriers set: each wave costs its slowest machine.
    """

    waves: list[list[str]] = field(default_factory=list)
    per_machine_seconds: dict[str, float] = field(default_factory=dict)
    #: Hostnames where a slave installed the Engage agent.
    agents_installed: list[str] = field(default_factory=list)
    bus_stats: dict = field(default_factory=dict)
    retransmits: int = 0
    redundant_acks: int = 0
    duplicate_acks: int = 0
    work_executions: int = 0
    work_resumes: int = 0
    crashes: int = 0
    suspects: list[dict] = field(default_factory=list)
    rejoins: list[dict] = field(default_factory=list)
    masters: list[str] = field(default_factory=list)
    failover: Optional[dict] = None
    partition: Optional[dict] = None
    #: Instants the control loop visited (one ``deliver_due`` each), and
    #: the master + agent steps it ran at them.
    loop_instants: int = 0
    node_steps: int = 0

    @property
    def parallel_makespan_seconds(self) -> float:
        """``makespan_seconds``, under the name multi-host reports have
        always given it."""
        return self.makespan_seconds

    def summary(self) -> dict:
        return {
            "waves": self.waves,
            "parallel_makespan_seconds": self.parallel_makespan_seconds,
            "sequential_seconds": self.sequential_seconds,
            "bus": self.bus_stats,
            "retransmits": self.retransmits,
            "redundant_acks": self.redundant_acks,
            "duplicate_acks": self.duplicate_acks,
            "work_executions": self.work_executions,
            "work_resumes": self.work_resumes,
            "crashes": self.crashes,
            "suspects": self.suspects,
            "rejoins": self.rejoins,
            "masters": self.masters,
            "failover": self.failover,
            "partition": self.partition,
            "loop_instants": self.loop_instants,
            "node_steps": self.node_steps,
        }


class BusCoordinator:
    """Coordinates slave deployments over the message bus.

    Waves, per-node sub-specs, and one ordinary engine per slave doing
    the work -- with every hand-off crossing the bus, so partitions,
    slave crashes, and master failover (a :class:`BusChaos` schedule)
    are scenarios the deployment must survive rather than things it
    cannot express.  ``policy`` / ``jobs`` / ``jobs_per_host`` are those
    of :class:`DeploymentEngine`: the coordinator builds one,
    ``engine``, every slave's engine derives from it, and it is the
    engine to manage the deployed system with afterwards.  ``bus`` is
    the bus of the latest :meth:`deploy` (its delivery log included).
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
        link_faults=None,
        default_latency: float = 0.05,
        heartbeat_every: float = 5.0,
        heartbeat_timeout: float = 15.0,
        max_sim_seconds: float = 14400.0,
    ) -> None:
        _require_positive("heartbeat_every", heartbeat_every)
        _require_positive("heartbeat_timeout", heartbeat_timeout)
        _require_positive("max_sim_seconds", max_sim_seconds)
        self.engine = DeploymentEngine(
            registry, infrastructure, driver_registry,
            policy=policy, jobs=jobs, jobs_per_host=jobs_per_host,
        )
        self.infrastructure = infrastructure
        self.bus: Optional[MessageBus] = None
        self.link_faults = link_faults
        self.default_latency = default_latency
        self.heartbeat_every = heartbeat_every
        self.heartbeat_timeout = heartbeat_timeout
        self.max_sim_seconds = max_sim_seconds

    @collector_paused
    def deploy(
        self,
        spec: InstallSpec,
        *,
        chaos: Optional[BusChaos] = None,
    ) -> DeployedSystem:
        chaos = chaos if chaos is not None else BusChaos()
        per_node = split_spec(spec)
        chaos.check(set(per_node))
        clock = self.infrastructure.clock
        tracer = self.infrastructure.tracer
        waves = machine_waves(spec)
        bus = self.bus = MessageBus(
            clock,
            default_latency=self.default_latency,
            faults=self.link_faults,
            tracer=tracer,
        )
        master = MasterNode(
            "master", bus, waves, per_node,
            heartbeat_timeout=self.heartbeat_timeout,
        )
        masters = [master]
        agents: dict[str, SlaveAgent] = {}
        for machine_id in sorted(per_node):
            crash_after = (
                chaos.crash_after_actions
                if machine_id == chaos.crash_machine else None
            )
            agents[machine_id] = SlaveAgent(
                machine_id, self.engine, bus,
                master=master.name,
                heartbeat_every=self.heartbeat_every,
                crash_after_actions=crash_after,
                crash_down_for=chaos.crash_down_for,
            )
        started_at = clock.now
        deadline = started_at + self.max_sim_seconds
        events: list[tuple[float, str]] = []
        if chaos.partition_at is not None:
            events.append((started_at + chaos.partition_at, "partition"))
            events.append(
                (started_at + chaos.partition_at + chaos.partition_for,
                 "heal"),
            )
        if chaos.failover_at is not None:
            events.append((started_at + chaos.failover_at, "failover"))
        events.sort()
        partitioned = False
        failover: Optional[dict] = None
        partition_record: Optional[dict] = None
        no_progress = 0
        # A node is stepped when it has mail or its timer is due, and at
        # no other instant.  An agent's wake moves only inside its own
        # step, so it is re-read there; the master's is kept beside it
        # and handed to its next step (``started_at``: due at once).
        master_wake: Optional[float] = started_at
        timers = _AgentTimers()
        for machine_id, agent in agents.items():
            timers.set(machine_id, agent.next_wake(started_at))
        instants = steps = 0
        while True:
            now = clock.now
            while events and events[0][0] <= now:
                _, kind = events.pop(0)
                if kind == "partition":
                    partitioned = True
                    partition_record = {
                        "at": now,
                        "slaves": sorted(
                            chaos.partition_slaves or list(agents)
                        ),
                        "for": chaos.partition_for,
                    }
                    self._apply_partition(bus, masters, agents, chaos)
                    self._instant(tracer, "partition", now)
                elif kind == "heal":
                    partitioned = False
                    bus.heal()
                    self._instant(tracer, "heal", now)
                elif kind == "failover":
                    old = masters[-1]
                    bus.close(old.name)
                    standby = MasterNode(
                        f"master-{len(masters) + 1}", bus, waves, per_node,
                        log=old.log.clone(),
                        heartbeat_timeout=self.heartbeat_timeout,
                    )
                    masters.append(standby)
                    master_wake = now
                    standby.adopt(now)
                    failover = {"at": now, "master": standby.name}
                    if partitioned:
                        self._apply_partition(bus, masters, agents, chaos)
                    self._instant(
                        tracer, "failover", now, master=standby.name
                    )
            bus.deliver_due(now)
            instants += 1
            mailed = bus.take_mailed()
            active = masters[-1]
            if active.name in mailed or (
                master_wake is not None and master_wake <= now
            ):
                active.step(now, master_wake)
                master_wake = active.next_wake(now)
                steps += 1
            due = timers.pop_due(now)
            if mailed:
                due |= mailed & agents.keys()
            # Sorted machine order fixes msg_id / _seq, and so every
            # delivery tie-break.
            for machine_id in sorted(due):
                agents[machine_id].step(now)
                timers.set(machine_id, agents[machine_id].next_wake(now))
                steps += 1
            if active.failures or active.done():
                break
            # The earliest of the four sources, any of which may be idle.
            nxt = bus.next_time()
            if master_wake is not None and (nxt is None or master_wake < nxt):
                nxt = master_wake
            timer = timers.next_time()
            if timer is not None and (nxt is None or timer < nxt):
                nxt = timer
            if events and (nxt is None or events[0][0] < nxt):
                nxt = events[0][0]
            if nxt is None:
                raise DeploymentError(
                    "bus control plane stalled: nothing scheduled"
                )
            if now >= deadline:
                raise DeploymentError(
                    "bus deployment did not converge within "
                    f"{self.max_sim_seconds:.0f} simulated seconds"
                )
            if nxt <= now:
                no_progress += 1
                if no_progress > 10_000:
                    raise DeploymentError(
                        "bus control plane made no progress"
                    )
                nxt = now + 0.001
            else:
                no_progress = 0
            clock.advance_to(nxt)
        system = self._finish(
            spec, waves, bus, masters, agents, started_at,
            failover, partition_record, instants, steps,
        )
        if masters[-1].failures:
            raise self._failure(masters[-1], agents, system)
        return system

    def _failure(
        self,
        master: MasterNode,
        agents: dict[str, SlaveAgent],
        system: DeployedSystem,
    ) -> MultiHostDeploymentFailure:
        """The fleet view of a nacked work item: the system over every
        machine, the culprit, and the machines whose work never arrived.
        Whatever neither completed nor failed -- the rest of the failed
        slave's sub-spec, every unstarted machine -- was skipped."""
        key, error = sorted(master.failures.items())[0]
        status = master.log.statuses[key]
        journal = system.journal
        journal.mark_skipped(
            instance_id for instance_id in system.spec.ids()
            if instance_id not in journal.failed
        )
        return MultiHostDeploymentFailure(
            f"slave {status.machine_id!r} failed in wave {status.wave}: "
            f"{error}",
            failed_machine=status.machine_id,
            unstarted=[
                m for wave in master.waves for m in wave
                if not agents[m].journals
            ],
            journal=journal,
            completed=journal.completed,
            failed=journal.failed,
            skipped=journal.skipped,
            report=system.report,
            system=system,
        )

    def _apply_partition(
        self,
        bus: MessageBus,
        masters: list[MasterNode],
        agents: dict[str, SlaveAgent],
        chaos: BusChaos,
    ) -> None:
        affected = set(chaos.partition_slaves or list(agents))
        master_side = [m.name for m in masters] + sorted(
            machine_id for machine_id in agents if machine_id not in affected
        )
        bus.partition(master_side, sorted(affected))

    def _instant(self, tracer, name: str, at: float, **args) -> None:
        if tracer is not None:
            tracer.instant(
                name, category="bus-chaos", timestamp=at,
                lane="coordinator", **args,
            )
            tracer.metrics.counter(f"bus.chaos.{name}").inc()

    def _finish(
        self,
        spec: InstallSpec,
        waves: list[list[str]],
        bus: MessageBus,
        masters: list[MasterNode],
        agents: dict[str, SlaveAgent],
        started_at: float,
        failover: Optional[dict],
        partition_record: Optional[dict],
        loop_instants: int,
        node_steps: int,
    ) -> DeployedSystem:
        """The fleet as one system: every slave's drivers re-pointed at
        the full spec, their journals merged, the report filled in.  A
        slave whose process memory is gone (crashed and still down when
        a sibling's nack ended the run) is adopted from its journal."""
        report = BusReport(
            jobs=self.engine.jobs, waves=waves,
            loop_instants=loop_instants, node_steps=node_steps,
        )
        journals: list[DeploymentJournal] = []
        drivers: dict[str, ResourceDriver] = {}
        for machine_id in sorted(agents):
            agent = agents[machine_id]
            for key, journal in agent.journals.items():
                slave = agent.systems.get(key) or self.engine.adopt(journal)
                journals.append(journal)
                drivers.update(slave.drivers)
                if slave.report is not None:
                    report.actions.extend(slave.report.actions)
            report.per_machine_seconds[machine_id] = agent.total_seconds
            report.agents_installed.extend(agent.agents_installed)
            report.redundant_acks += agent.redundant_acks
            report.work_executions += agent.work_executions
            report.work_resumes += agent.work_resumes
            report.crashes += agent.crashes
        report.sequential_seconds = sum(
            report.per_machine_seconds.values()
        )
        report.makespan_seconds = self.infrastructure.clock.now - started_at
        report.critical_path_seconds = sum(
            max(report.per_machine_seconds[m] for m in wave)
            for wave in waves
        )
        report.bus_stats = bus.stats()
        report.retransmits = masters[-1].retransmits()
        for node in masters:
            report.suspects.extend(node.suspects)
            report.rejoins.extend(node.rejoins)
            report.duplicate_acks += node.duplicate_acks
        report.masters = [node.name for node in masters]
        report.failover = failover
        report.partition = partition_record
        system = self.engine.prepare(spec, reuse_drivers=drivers)
        system.journal = DeploymentJournal.merged(spec, journals)
        system.report = report
        tracer = self.infrastructure.tracer
        if tracer is None:
            return system
        tracer.metrics.counter("bus.loop.instants").inc(loop_instants)
        tracer.metrics.counter("bus.loop.steps").inc(node_steps)
        # The coordinator lane, read off the acks the control log holds:
        # one span per slave, one per completed wave.
        log = masters[-1].log
        for index, wave in enumerate(waves[: log.wave_index]):
            acks = [log.statuses[work_key(index, m)].ack for m in wave]
            for ack in acks:
                tracer.span(
                    f"slave:{ack['machine']}", category="coordinator",
                    start=ack["finished_at"] - ack["seconds"],
                    duration=ack["seconds"], lane="coordinator",
                    wave=index, machine=ack["machine"],
                )
            started = min(a["finished_at"] - a["seconds"] for a in acks)
            tracer.span(
                f"wave-{index}", category="coordinator", start=started,
                duration=max(a["finished_at"] for a in acks) - started,
                lane="coordinator", machines=list(wave),
            )
            tracer.metrics.counter("coordinator.waves").inc()
        return system


# ---------------------------------------------------------------------------
# Equivalence fingerprints.
#
# "Bit-identical modulo pid": two runs are equivalent when their worlds
# and journals agree on everything *observable* -- installed packages,
# process names/states/ports, file trees and contents, per-instance
# transition chains, completion partitions -- while pids, timestamps,
# and restart counters (pure accidents of scheduling) are excluded.
# The chaos corpus asserts faulted runs fingerprint-equal unfaulted
# ones; strict byte-identity (same seed, same chaos) is asserted on the
# bus delivery log itself.
# ---------------------------------------------------------------------------


def _canonical_driver_log(content: str) -> list[str]:
    """Driver-log lines with timestamps stripped, sorted.

    The engage driver log records wall-clock stamps and interleaves
    machines' action orders, both of which legitimately differ between
    a faulted and an unfaulted run; the *set* of transitions must not.
    """
    lines = []
    for line in content.splitlines():
        closing = line.find("]")
        lines.append(line[closing + 1:].strip() if closing >= 0 else line)
    return sorted(lines)


def world_fingerprint(infrastructure: Infrastructure) -> str:
    """A canonical digest of every machine's observable state."""
    from repro.drivers.base import ResourceDriver

    payload: dict[str, Any] = {}
    for machine in infrastructure.network.machines():
        manager = infrastructure.package_manager(machine)
        packages = sorted(
            (package.name, package.version, sorted(package.files))
            for package in manager.installed()
        )
        processes = sorted(
            (
                process.name,
                process.instance_id,
                process.state.value,
                sorted(process.listen_ports),
            )
            for process in machine.processes()
        )
        files: dict[str, Any] = {}
        for path in sorted(machine.fs.walk_files()):
            content = machine.fs.read_file(path)
            if path == ResourceDriver.LOG_PATH:
                files[path] = _canonical_driver_log(content)
            else:
                files[path] = hashlib.sha256(
                    content.encode()
                ).hexdigest()[:16]
        payload[machine.hostname] = {
            "packages": packages,
            "processes": processes,
            "files": files,
        }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def canonical_journal(journal: DeploymentJournal) -> dict:
    """The journal minus timestamps: per-instance transition chains
    (order within an instance is meaningful; global interleaving is
    not) plus the completion partitions."""
    chains: dict[str, list[list[str]]] = {}
    for entry in journal.entries:
        chains.setdefault(entry.instance_id, []).append(
            [entry.action, entry.source, entry.target]
        )
    return {
        "target": journal.target,
        "chains": {key: chains[key] for key in sorted(chains)},
        "completed": sorted(journal.completed),
        "failed": dict(sorted(journal.failed.items())),
        "skipped": sorted(journal.skipped),
    }


def deployment_fingerprint(
    infrastructure: Infrastructure,
    deployment: DeployedSystem,
) -> str:
    """World + driver states + journal of any deployed system,
    canonically digested."""
    payload = {
        "world": world_fingerprint(infrastructure),
        "states": dict(sorted(deployment.states().items())),
        "journal": canonical_journal(deployment.journal),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
