"""A simulated message bus for the distributed control plane.

The bus carries every message between the deployment master and its
slave agents (:mod:`repro.runtime.coordinator`): work items, acks,
heartbeats, rejoin hellos, and failover adoption broadcasts.  It is
built directly on the :class:`~repro.sim.clock.SimClock` and makes the
weakest guarantees a real transport would: **at-least-once** delivery
after one fixed latency, where a seeded :class:`~repro.sim.faults.
LinkFaultPlan` may drop, duplicate, or reorder (jitter) any copy.
Everything above the bus therefore has to be idempotent -- work items
carry dedup keys, acks are cached and replayed, and retransmission is
the master's job, not the bus's.

Determinism is the point.  Latency is one constant of the bus,
chaos decisions are a pure function of ``(seed, site, attempt)``, and
ties in delivery time break on a global send sequence number -- so the
same seed yields a byte-identical :meth:`delivery_log`, which the chaos
tests diff across runs.

Partitions are modelled as reachability groups: :meth:`partition`
splits the node set, :meth:`heal` restores it.  Reachability is checked
both at send time and again at delivery time, so a message in flight
when the partition lands is lost (as it would be on a real wire) and
must be retransmitted after heal.  A :meth:`close`\\ d endpoint (crashed
process) similarly discards everything addressed to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import heapq

from repro.core.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.faults import LinkFaultPlan

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer


#: Message kinds used by the control plane (the bus itself is agnostic).
WORK = "work"
ACK = "ack"
NACK = "nack"
HEARTBEAT = "heartbeat"
HELLO = "hello"
ADOPT = "adopt"

#: Delivery statuses recorded in the log.
DELIVERED = "delivered"
DROPPED = "dropped"
PARTITIONED = "partitioned"
DEAD_ENDPOINT = "dead-endpoint"


@dataclass
class Envelope:
    """One copy of a message in flight (or already resolved).

    ``msg_id`` is globally unique per *send* call; duplicated copies of
    the same send share it, which is how receivers (and the delivery
    log) tell a chaos duplicate from a retransmission (``attempt``).
    ``dedup_key`` is the application-level idempotency key -- the bus
    never interprets it, consumers do.
    """

    msg_id: int
    kind: str
    sender: str
    recipient: str
    payload: dict[str, Any]
    sent_at: float
    deliver_at: float
    dedup_key: Optional[str] = None
    attempt: int = 1
    copy: int = 0


@dataclass
class DeliveryRecord:
    """One line of the delivery log: what happened to one copy."""

    at: float
    status: str
    envelope: Envelope

    def line(self) -> str:
        """Fixed-precision rendering for byte-identical replay diffs."""
        e = self.envelope
        return (
            f"{self.at:.6f} {self.status} #{e.msg_id}.{e.copy}"
            f" {e.kind} {e.sender}->{e.recipient}"
            f" key={e.dedup_key or '-'} attempt={e.attempt}"
            f" sent={e.sent_at:.6f}"
        )


class Endpoint:
    """One addressable node on the bus with an inbox of envelopes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inbox: list[Envelope] = []
        self.closed = False

    def drain(self) -> list[Envelope]:
        """Take everything currently in the inbox (oldest first)."""
        messages, self.inbox = self.inbox, []
        return messages


class MessageBus:
    """At-least-once simulated transport between named endpoints."""

    def __init__(
        self,
        clock: SimClock,
        *,
        default_latency: float = 0.05,
        faults: Optional[LinkFaultPlan] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if default_latency < 0:
            raise SimulationError(
                f"latency must be >= 0, got {default_latency}"
            )
        self.clock = clock
        self.default_latency = default_latency
        self.faults = faults
        self.tracer = tracer
        self._endpoints: dict[str, Endpoint] = {}
        self._groups: Optional[list[frozenset[str]]] = None
        self._pending: list[tuple[float, int, Envelope]] = []
        self._mailed: set[str] = set()
        self._seq = 0
        self._next_msg_id = 1
        self.log: list[DeliveryRecord] = []
        self.sent: dict[str, int] = {}
        self.delivered: dict[str, int] = {}
        self.dropped = 0
        self.duplicated = 0
        self.partition_losses = 0

    # -- Topology --------------------------------------------------------

    def register(self, name: str) -> Endpoint:
        if name in self._endpoints:
            raise SimulationError(f"endpoint already registered: {name}")
        endpoint = Endpoint(name)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise SimulationError(f"unknown endpoint: {name}") from None

    def close(self, name: str) -> None:
        """Mark an endpoint dead (crashed process): its inbox is wiped
        and anything addressed to it while closed is discarded."""
        endpoint = self.endpoint(name)
        endpoint.closed = True
        endpoint.inbox.clear()

    def open(self, name: str) -> None:
        """Re-open a previously closed endpoint (process restarted)."""
        self.endpoint(name).closed = False

    # -- Partitions ------------------------------------------------------

    def partition(self, *groups: list[str]) -> None:
        """Split the network into reachability groups.

        Nodes absent from every group become singletons (reachable by
        nobody but themselves).  Messages already in flight across a
        new partition boundary are lost at delivery time.
        """
        self._groups = [frozenset(group) for group in groups]

    def heal(self) -> None:
        self._groups = None

    def reachable(self, a: str, b: str) -> bool:
        # send and deliver_due test ``_groups is None`` themselves and
        # call this only under a partition: keep that test in step.
        if self._groups is None or a == b:
            return True
        for group in self._groups:
            if a in group and b in group:
                return True
        return False

    # -- Sending and delivery --------------------------------------------

    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Optional[dict[str, Any]] = None,
        *,
        dedup_key: Optional[str] = None,
        attempt: int = 1,
        at: Optional[float] = None,
    ) -> None:
        """Transmit one message.

        ``at`` back- or forward-dates the send instant (used by agents
        emitting retroactive heartbeats over a long work span); delivery
        is scheduled at ``at + latency (+ chaos jitter)`` per copy.  The
        chaos site key is built from the dedup key when present --
        *order-independent*, so adding unrelated traffic does not change
        which work messages a given seed drops.

        Each queued copy is one :class:`Envelope`: copy 0 owns the one
        copy of ``payload`` taken here, and each duplicate gets its own.
        A send lost to a partition or a drop builds one envelope, for
        its log record.
        """
        endpoints = self._endpoints
        if sender not in endpoints:
            self.endpoint(sender)
        if recipient not in endpoints:
            self.endpoint(recipient)
        sent_at = self.clock.now if at is None else at
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        self.sent[kind] = self.sent.get(kind, 0) + 1
        body = dict(payload) if payload else {}
        if self._groups is None or self.reachable(sender, recipient):
            offsets = [0.0]
            if self.faults is not None:
                key = dedup_key if dedup_key is not None else f"#{msg_id}"
                offsets = self.faults.copies(
                    f"{kind}:{sender}->{recipient}:{key}", attempt
                )
            if offsets:
                if len(offsets) > 1:
                    self.duplicated += len(offsets) - 1
                due = sent_at + self.default_latency
                pending = self._pending
                for copy, offset in enumerate(offsets):
                    deliver_at = due + offset
                    heapq.heappush(pending, (deliver_at, self._seq, Envelope(
                        msg_id, kind, sender, recipient,
                        body if copy == 0 else dict(body),
                        sent_at, deliver_at, dedup_key, attempt, copy,
                    )))
                    self._seq += 1
                return
            self.dropped += 1
            status = DROPPED
        else:
            self.partition_losses += 1
            status = PARTITIONED
        self._record(sent_at, status, Envelope(
            msg_id, kind, sender, recipient, body,
            sent_at, sent_at, dedup_key, attempt,
        ))

    def deliver_due(self, now: float) -> int:
        """Move every envelope due at or before ``now`` into its
        recipient's inbox (or the delivery log's loss column); returns
        how many were actually delivered.  The recipients are remembered
        for :meth:`take_mailed`.  Reachability is checked only while a
        partition is in force; :meth:`send` validated every recipient."""
        pending = self._pending
        endpoints = self._endpoints
        mailed = self._mailed
        delivered = self.delivered
        partitioned = self._groups is not None
        count = 0
        while pending and pending[0][0] <= now:
            deliver_at, _, envelope = heapq.heappop(pending)
            if partitioned and not self.reachable(
                envelope.sender, envelope.recipient
            ):
                self.partition_losses += 1
                self._record(deliver_at, PARTITIONED, envelope)
                continue
            recipient = endpoints[envelope.recipient]
            if recipient.closed:
                self._record(deliver_at, DEAD_ENDPOINT, envelope)
                continue
            recipient.inbox.append(envelope)
            mailed.add(envelope.recipient)
            kind = envelope.kind
            delivered[kind] = delivered.get(kind, 0) + 1
            self._record(deliver_at, DELIVERED, envelope)
            count += 1
        return count

    def take_mailed(self) -> set[str]:
        """The endpoints :meth:`deliver_due` has put mail into since the
        last call -- whom a control loop must wake; it need not look at
        the other inboxes."""
        mailed, self._mailed = self._mailed, set()
        return mailed

    def next_time(self) -> Optional[float]:
        """Earliest pending delivery instant (``None`` if quiet)."""
        if not self._pending:
            return None
        return self._pending[0][0]

    def pending(self) -> int:
        return len(self._pending)

    # -- Introspection ---------------------------------------------------

    def _record(
        self, at: float, status: str, envelope: Envelope
    ) -> None:
        self.log.append(DeliveryRecord(at, status, envelope))
        if self.tracer is not None:
            self.tracer.span(
                f"{envelope.kind}:{envelope.sender}->{envelope.recipient}",
                category="bus",
                start=envelope.sent_at,
                duration=max(at - envelope.sent_at, 0.0),
                lane="bus",
                status=status,
                msg_id=envelope.msg_id,
                attempt=envelope.attempt,
            )
            self.tracer.metrics.counter(f"bus.{status}").inc()
            self.tracer.metrics.counter(f"bus.sent.{envelope.kind}").inc()

    def delivery_log(self) -> str:
        """The full log as text -- byte-identical for identical runs."""
        return "\n".join(record.line() for record in self.log)

    def stats(self) -> dict[str, Any]:
        return {
            "sent": dict(sorted(self.sent.items())),
            "delivered": dict(sorted(self.delivered.items())),
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "partition_losses": self.partition_losses,
            "total_sent": sum(self.sent.values()),
            "total_delivered": sum(self.delivered.values()),
        }
