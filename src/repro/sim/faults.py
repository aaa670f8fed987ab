"""Deterministic fault injection.

Two layers of chaos live here.

:class:`FaultInjector` is the original *post-deployment* injector: it
picks running processes of a deployed system at random and fails them so
the monitor ("monit") can be exercised.

:class:`FaultPlan` / :class:`FaultyWorld` inject faults *during*
deployment: every driver action flows through
:meth:`~repro.drivers.base.ResourceDriver.perform`, which consults the
infrastructure's installed plan before running the action's handler, so
every driver is exercised without modification.  Machine-level
operations (OSLPM package installs, which cover archive fetches) consult
the same plan beneath the drivers.  Faults are deterministic: a seeded
plan decides per *site* (for example ``driver:mysql:start``) from a
stable per-site RNG, so the decisions do not depend on call order --
which is what makes crash/resume runs replayable.

Failure modes (:class:`FaultKind`):

* ``TRANSIENT`` -- the operation raises
  :class:`~repro.core.errors.TransientError` without side effects;
* ``HANG`` -- the operation hangs for ``hang_seconds`` of simulated
  time; if that exceeds the caller's timeout budget the clock advances
  only to the budget and :class:`~repro.core.errors.ActionTimeout` is
  raised, otherwise the operation is merely slow and then succeeds;
* ``FLAKY`` -- shorthand for fail-``times``-then-succeed (each failure
  is a ``TransientError``); ``TRANSIENT`` with ``times > 1`` behaves
  identically.
* ``CRASH`` -- *permanent* loss: the site fails on every attempt with a
  non-retryable :class:`~repro.core.errors.DriverError` (retrying a
  lost machine is futile; the reconcile loop repairs by redeploying
  elsewhere or onto a replacement).  ``times`` is ignored.

:class:`MachineChurn` builds on the injector: a deterministic schedule
of permanent machine losses (one crash-or-survive draw per live machine
per round, seeded per ``(seed, round, hostname)`` so the loss schedule
does not depend on visit order or on how earlier rounds were repaired).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.errors import ActionTimeout, DriverError, TransientError
from repro.sim.clock import SimClock
from repro.sim.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.deploy import DeployedSystem
    from repro.runtime.monitor import ProcessMonitor
    from repro.sim.infrastructure import Infrastructure


class FaultKind(Enum):
    """How an injected fault manifests."""

    TRANSIENT = "transient"
    HANG = "hang"
    FLAKY = "flaky"
    CRASH = "crash"  # permanent: every attempt fails, non-retryable


@dataclass
class FaultRule:
    """Inject up to ``times`` faults at every site matching ``pattern``.

    Sites are strings like ``driver:<instance>:<action>`` or
    ``oslpm:<hostname>:install:<package>``; ``pattern`` is matched with
    :func:`fnmatch.fnmatchcase`.
    """

    pattern: str
    kind: FaultKind = FaultKind.TRANSIENT
    times: int = 1
    hang_seconds: float = 0.0


@dataclass
class InjectedFault:
    """One fault the plan actually fired."""

    timestamp: float
    site: str
    kind: FaultKind
    occurrence: int  # 1-based count of faults fired at this site


@dataclass
class _SiteState:
    """Per-site countdown: how many more faults to fire, and how."""

    kind: FaultKind
    remaining: int
    hang_seconds: float
    fired: int = 0


class FaultPlan:
    """A deterministic schedule of faults keyed by operation site.

    Explicit rules are added with :meth:`on`; :meth:`seeded` builds a
    randomized-but-reproducible plan where every site independently
    draws whether (and how) it fails from ``Random(f"{seed}|{site}")``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: list[FaultRule] = []
        self._sites: dict[str, Optional[_SiteState]] = {}
        self._rate = 0.0
        self._random_kinds: tuple[FaultKind, ...] = ()
        self._include: tuple[str, ...] = ("driver:*",)
        self._max_failures = 1
        self._random_hang_seconds = 0.0
        self.records: list[InjectedFault] = []
        #: Optional tracer, set by ``Infrastructure.set_fault_plan`` /
        #: ``set_tracer``; injections emit instant events through it.
        self.tracer = None

    # -- Construction ----------------------------------------------------

    def on(
        self,
        pattern: str,
        *,
        kind: FaultKind = FaultKind.TRANSIENT,
        times: int = 1,
        hang_seconds: float = 0.0,
    ) -> "FaultPlan":
        """Add an explicit rule (chainable)."""
        if kind == FaultKind.HANG and hang_seconds <= 0.0:
            raise ValueError("HANG faults need hang_seconds > 0")
        self._rules.append(FaultRule(pattern, kind, times, hang_seconds))
        return self

    @classmethod
    def seeded(
        cls,
        seed: int,
        rate: float,
        *,
        kinds: Sequence[FaultKind] = (FaultKind.TRANSIENT, FaultKind.FLAKY),
        include: Sequence[str] = ("driver:*",),
        max_failures: int = 2,
        hang_seconds: float = 45.0,
    ) -> "FaultPlan":
        """A plan that fails each matching site with probability ``rate``.

        Each site's decision (fail or not, kind, failure count) comes
        from its own stable RNG, so two runs over the same spec -- or a
        failed run and its resume -- see identical faults at identical
        sites regardless of the order sites are visited in.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        plan = cls(seed)
        plan._rate = rate
        plan._random_kinds = tuple(kinds)
        plan._include = tuple(include)
        plan._max_failures = max(1, max_failures)
        plan._random_hang_seconds = hang_seconds
        return plan

    # -- Decision --------------------------------------------------------

    def _state_for(self, site: str) -> Optional[_SiteState]:
        if site in self._sites:
            return self._sites[site]
        state: Optional[_SiteState] = None
        for rule in self._rules:
            if fnmatchcase(site, rule.pattern):
                state = _SiteState(rule.kind, rule.times, rule.hang_seconds)
                break
        if state is None and self._rate > 0.0:
            if any(fnmatchcase(site, p) for p in self._include):
                rng = random.Random(f"{self.seed}|{site}")
                if rng.random() < self._rate:
                    kind = self._random_kinds[
                        rng.randrange(len(self._random_kinds))
                    ]
                    times = rng.randint(1, self._max_failures)
                    state = _SiteState(kind, times, self._random_hang_seconds)
        self._sites[site] = state
        return state

    def fire(
        self,
        site: str,
        clock: SimClock,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        """Fault ``site`` if the plan says so; otherwise return quietly.

        Raises :class:`TransientError` for transient/flaky faults.  For
        hangs, advances the clock by the hang duration capped at
        ``timeout`` and raises :class:`ActionTimeout` only if the hang
        exceeded the budget (a hang within budget is just slowness).
        """
        state = self._state_for(site)
        if state is None:
            return
        if state.kind == FaultKind.CRASH:
            # Permanent: never decremented, fails every attempt with a
            # non-retryable error so retry policies give up immediately.
            state.fired += 1
            self._record(site, state, clock)
            raise DriverError(f"{site}: permanent fault (site lost)")
        if state.remaining <= 0:
            return
        if state.kind == FaultKind.HANG:
            if timeout is not None and state.hang_seconds > timeout:
                state.remaining -= 1
                state.fired += 1
                clock.advance(timeout, f"fault-hang:{site}")
                self._record(site, state, clock)
                raise ActionTimeout(
                    f"{site}: hung for {timeout:.1f}s "
                    f"(timeout budget exhausted)"
                )
            # Slow but within budget (or no budget): charge the hang
            # and let the operation proceed.
            state.remaining -= 1
            state.fired += 1
            clock.advance(state.hang_seconds, f"fault-slow:{site}")
            self._record(site, state, clock)
            return
        state.remaining -= 1
        state.fired += 1
        self._record(site, state, clock)
        raise TransientError(
            f"{site}: injected transient fault "
            f"({state.fired} of {state.fired + state.remaining})"
        )

    def _record(self, site: str, state: _SiteState, clock: SimClock) -> None:
        self.records.append(
            InjectedFault(clock.now, site, state.kind, state.fired)
        )
        if self.tracer is not None:
            self.tracer.instant(
                site, category="fault", timestamp=clock.now, lane="faults",
                kind=state.kind.value, occurrence=state.fired,
            )
            self.tracer.metrics.counter("faults.injected").inc()

    def pending(self, site: str) -> int:
        """How many more faults this site would still fire (0 if none)."""
        state = self._state_for(site)
        return state.remaining if state is not None else 0


class LinkFaultPlan:
    """Deterministic per-message chaos for the simulated message bus.

    The bus (:mod:`repro.runtime.bus`) asks :meth:`copies` what happens
    to one transmission attempt: the answer is a list of extra-delay
    offsets, one per copy that will actually arrive.  ``[]`` means the
    message is dropped, ``[0.0]`` is a clean delivery, ``[0.0, 0.4]``
    is a duplicate, and non-zero offsets (drawn up to ``jitter``
    seconds) reorder messages relative to their send order.

    Decisions come from ``Random(f"{seed}|{site}|{attempt}")`` (one
    generator per plan, re-seeded with that string) where the
    site is ``<kind>:<src>-><dst>:<dedup key>`` -- a pure function of
    the message, never of call order, which is what makes chaos runs
    (and their retransmissions: each attempt draws independently)
    replayable bit for bit.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        jitter: float = 0.0,
        include: Sequence[str] = ("*",),
    ) -> None:
        for name, rate in (("drop", drop), ("duplicate", duplicate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.seed = seed
        self.drop = drop
        self.duplicate = duplicate
        self.jitter = jitter
        self.include = tuple(include)
        # fnmatchcase(site, "*") holds for every site, so with "*" in
        # ``include`` copies skips the pattern scan.
        self._include_all = "*" in self.include
        # One generator, re-seeded per decision: ``seed(x)`` puts it in
        # exactly the state ``Random(x)`` starts in, without building
        # an object per message.
        self._rng = random.Random()

    def copies(self, site: str, attempt: int) -> list[float]:
        """Extra-delay offsets for each arriving copy of one send."""
        if not self._include_all and not any(
            fnmatchcase(site, p) for p in self.include
        ):
            return [0.0]
        rng = self._rng
        rng.seed(f"{self.seed}|{site}|{attempt}")
        if rng.random() < self.drop:
            return []
        delays = [rng.random() * self.jitter if self.jitter > 0.0 else 0.0]
        if rng.random() < self.duplicate:
            spread = self.jitter if self.jitter > 0.0 else 1.0
            delays.append(rng.random() * spread)
        return delays


class FaultyWorld:
    """Installs a :class:`FaultPlan` onto an infrastructure.

    Usable as a context manager so tests can scope chaos to one block::

        with FaultyWorld(infrastructure, plan):
            engine.deploy(spec, policy=policy)
    """

    def __init__(
        self, infrastructure: "Infrastructure", plan: FaultPlan
    ) -> None:
        self.infrastructure = infrastructure
        self.plan = plan
        self.install()

    def install(self) -> None:
        self.infrastructure.set_fault_plan(self.plan)

    def remove(self) -> None:
        self.infrastructure.set_fault_plan(None)

    def __enter__(self) -> "FaultyWorld":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


@dataclass
class FaultRecord:
    """One injected failure (a process crash or a machine loss)."""

    timestamp: float
    process_name: str
    hostname: str
    instance_id: str = ""
    #: ``"process"`` for the classic injected process failure,
    #: ``"crash"`` (:attr:`FaultKind.CRASH`) for a permanent machine loss.
    kind: str = "process"


class FaultInjector:
    """Fails random running service processes of a deployed system."""

    def __init__(self, system: "DeployedSystem", seed: int = 0) -> None:
        self._system = system
        self._rng = random.Random(seed)
        self.records: list[FaultRecord] = []

    def _running_service_processes(self) -> list[tuple[str, SimProcess]]:
        from repro.drivers.library import ServiceDriver

        candidates: list[tuple[str, SimProcess]] = []
        for instance_id, driver in sorted(self._system.drivers.items()):
            if isinstance(driver, ServiceDriver):
                process = driver.process
                if process is not None and process.is_running():
                    candidates.append((instance_id, process))
        return candidates

    def inject(self, count: int = 1) -> list[FaultRecord]:
        """Fail up to ``count`` random running service processes."""
        candidates = self._running_service_processes()
        if not candidates:
            return []
        picked = self._rng.sample(candidates, min(count, len(candidates)))
        new_records: list[FaultRecord] = []
        for instance_id, process in picked:
            machine = self._system.machine_for(instance_id)
            process.fail()
            record = FaultRecord(
                timestamp=self._system.infrastructure.clock.now,
                process_name=process.name,
                hostname=machine.hostname,
                instance_id=instance_id,
            )
            new_records.append(record)
            self.records.append(record)
        return new_records

    def _live_hostnames(self) -> list[str]:
        """Hostnames of the system's machines still on the network."""
        network = self._system.infrastructure.network
        hostnames = {
            machine.hostname for machine in self._system.machines.values()
        }
        return sorted(h for h in hostnames if network.has_machine(h))

    def crash_machine(self, hostname: str) -> FaultRecord:
        """Permanently lose one machine (:attr:`FaultKind.CRASH`).

        Every process on it dies, the host (with its bound endpoints)
        drops off the network, and its package-manager state is
        forgotten -- from the fleet's point of view the hardware is
        gone.  Repair is the reconcile loop's job, not the monitor's.
        """
        infrastructure = self._system.infrastructure
        machine = infrastructure.network.machine(hostname)
        for process in machine.running_processes():
            process.fail()
        infrastructure.remove_machine(hostname)
        record = FaultRecord(
            timestamp=infrastructure.clock.now,
            process_name="",
            hostname=hostname,
            kind=FaultKind.CRASH.value,
        )
        self.records.append(record)
        tracer = infrastructure.tracer
        if tracer is not None:
            tracer.instant(
                "machine-lost", category="fault",
                timestamp=record.timestamp, lane=hostname,
            )
            tracer.metrics.counter("faults.machines_lost").inc()
        return record

    def crash_machines(self, count: int = 1) -> list[FaultRecord]:
        """Permanently lose up to ``count`` random live machines."""
        candidates = self._live_hostnames()
        picked = self._rng.sample(candidates, min(count, len(candidates)))
        return [self.crash_machine(hostname) for hostname in sorted(picked)]

    def campaign(
        self,
        monitor: "ProcessMonitor",
        rounds: int,
        *,
        max_failures_per_round: int = 2,
        seconds_between_rounds: float = 30.0,
    ) -> dict:
        """Run a kill/poll campaign: each round injects up to
        ``max_failures_per_round`` failures, advances time, and lets the
        monitor repair.  Returns summary counters."""
        clock = self._system.infrastructure.clock
        injected = 0
        restarted = 0
        for _ in range(rounds):
            failures = self.inject(
                self._rng.randint(0, max_failures_per_round)
            )
            injected += len(failures)
            clock.advance(seconds_between_rounds, "fault-campaign")
            restarted += len(monitor.poll())
        return {"injected": injected, "restarted": restarted}


class MachineChurn:
    """A deterministic schedule of permanent machine losses.

    Each round, every *live* machine of the system independently draws
    crash-or-survive from ``Random(f"{seed}|{round}|{hostname}")`` --
    per-site seeding in the :meth:`FaultPlan.seeded` style, so the loss
    schedule depends only on ``(seed, round, hostname)``: not on the
    order machines are visited, and not on how earlier rounds were
    repaired.  Two same-seed runs over the same fleet therefore lose
    the same machines at the same rounds, which is what makes chaos
    soaks replayable.
    """

    def __init__(
        self,
        system: "DeployedSystem",
        *,
        seed: int = 0,
        rate: float = 0.05,
        protect: Sequence[str] = (),
        max_losses_per_round: Optional[int] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.seed = seed
        self.rate = rate
        self.protect = frozenset(protect)
        self.max_losses_per_round = max_losses_per_round
        self.injector = FaultInjector(system, seed=seed)

    @property
    def records(self) -> list[FaultRecord]:
        """Every loss fired so far (shared with the injector)."""
        return self.injector.records

    def round(self, round_index: int) -> list[FaultRecord]:
        """Fire round ``round_index``'s losses; returns their records."""
        losses: list[str] = []
        for hostname in self.injector._live_hostnames():
            if hostname in self.protect:
                continue
            rng = random.Random(f"{self.seed}|{round_index}|{hostname}")
            if rng.random() < self.rate:
                losses.append(hostname)
        if self.max_losses_per_round is not None:
            losses = losses[: self.max_losses_per_round]
        return [self.injector.crash_machine(hostname) for hostname in losses]
