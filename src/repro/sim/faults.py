"""Deterministic fault injection.

Every fault source here decides per *site* from its own seeded RNG, so
no decision depends on call order -- which is what makes crash/resume
runs and chaos soaks replayable.

:class:`FaultPlan` injects faults *during* deployment.  Installed with
:meth:`~repro.sim.infrastructure.Infrastructure.set_fault_plan` (and
removed with ``set_fault_plan(None)``), it is consulted by every driver
action through :meth:`~repro.drivers.base.ResourceDriver.perform`
before the action's handler runs, so every driver is exercised without
modification.  Machine-level operations (OSLPM package installs, which
cover archive fetches) consult the same plan beneath the drivers.  A
seeded plan decides per site (for example ``driver:mysql:start``).

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

:class:`LinkFaultPlan` decides the fate of each message on the
simulated bus, per ``(message, attempt)``.

:func:`lose_machine` permanently loses one machine, and
:class:`MachineChurn` schedules such losses: one crash-or-survive draw
per live machine per round, seeded per ``(seed, round, hostname)`` so
the loss schedule does not depend on visit order or on how earlier
rounds were repaired.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Optional

from repro.core.errors import ActionTimeout, DriverError, TransientError
from repro.sim.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.deploy import DeployedSystem
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


#: The kinds a seeded plan draws from (a seeded site never hangs or
#: crashes).
_SEEDED_KINDS = (FaultKind.TRANSIENT, FaultKind.FLAKY)


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
    def seeded(cls, seed: int, rate: float) -> "FaultPlan":
        """A plan that fails each driver action site with probability
        ``rate``, transiently or flakily, once or twice.

        Each site's decision (fail or not, kind, failure count) comes
        from its own stable RNG, so two runs over the same spec -- or a
        failed run and its resume -- see identical faults at identical
        sites regardless of the order sites are visited in.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        plan = cls(seed)
        plan._rate = rate
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
        if (state is None and self._rate > 0.0
                and site.startswith("driver:")):
            rng = random.Random(f"{self.seed}|{site}")
            if rng.random() < self._rate:
                kind = _SEEDED_KINDS[rng.randrange(len(_SEEDED_KINDS))]
                state = _SiteState(kind, rng.randint(1, 2), 0.0)
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
                clock.advance(timeout)
                self._record(site, state, clock)
                raise ActionTimeout(
                    f"{site}: hung for {timeout:.1f}s "
                    f"(timeout budget exhausted)"
                )
            # Slow but within budget (or no budget): charge the hang
            # and let the operation proceed.
            state.remaining -= 1
            state.fired += 1
            clock.advance(state.hang_seconds)
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
        # One generator, re-seeded per decision: ``seed(x)`` puts it in
        # exactly the state ``Random(x)`` starts in, without building
        # an object per message.
        self._rng = random.Random()

    def copies(self, site: str, attempt: int) -> list[float]:
        """Extra-delay offsets for each arriving copy of one send."""
        rng = self._rng
        rng.seed(f"{self.seed}|{site}|{attempt}")
        if rng.random() < self.drop:
            return []
        delays = [rng.random() * self.jitter if self.jitter > 0.0 else 0.0]
        if rng.random() < self.duplicate:
            spread = self.jitter if self.jitter > 0.0 else 1.0
            delays.append(rng.random() * spread)
        return delays


@dataclass
class FaultRecord:
    """One permanent machine loss."""

    timestamp: float
    hostname: str


def lose_machine(
    infrastructure: "Infrastructure", hostname: str
) -> FaultRecord:
    """Permanently lose one machine (:attr:`FaultKind.CRASH`).

    Every process on it dies, the host (with its bound endpoints) drops
    off the network, and its package-manager state is forgotten -- from
    the fleet's point of view the hardware is gone.  Repair redeploys
    it; restarting a process cannot.
    """
    machine = infrastructure.network.machine(hostname)
    for process in machine.running_processes():
        process.fail()
    infrastructure.remove_machine(hostname)
    record = FaultRecord(infrastructure.clock.now, hostname)
    tracer = infrastructure.tracer
    if tracer is not None:
        tracer.instant(
            "machine-lost", category="fault",
            timestamp=record.timestamp, lane=hostname,
        )
        tracer.metrics.counter("faults.machines_lost").inc()
    return record


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
        self, system: "DeployedSystem", *, seed: int = 0, rate: float = 0.05
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.system = system
        self.seed = seed
        self.rate = rate
        #: Every loss fired so far.
        self.records: list[FaultRecord] = []

    def round(self, round_index: int) -> list[FaultRecord]:
        """Fire round ``round_index``'s losses; returns their records."""
        infrastructure = self.system.infrastructure
        live = sorted({
            machine.hostname for machine in self.system.machines.values()
            if infrastructure.network.has_machine(machine.hostname)
        })
        losses = [
            lose_machine(infrastructure, hostname) for hostname in live
            if random.Random(f"{self.seed}|{round_index}|{hostname}").random()
            < self.rate
        ]
        self.records.extend(losses)
        return losses
