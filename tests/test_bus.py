"""The simulated message bus: at-least-once delivery, exactly-once
effect under dedup keys, heartbeat-timeout detection, and byte-identical
seeded replay.

The property harness below is a miniature of the control plane in
:mod:`repro.runtime.coordinator`: a producer retransmits keyed work
items until acked, a consumer applies each key's effect at most once
and re-acks duplicates from a cache.  Under seeded drops, duplicates,
and reorder jitter, the corpus asserts the one invariant everything
above the bus depends on: **delivery is at-least-once, effect is
exactly-once**.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.runtime import bus as busmod
from repro.runtime.bus import MessageBus
from repro.sim.clock import SimClock
from repro.sim.faults import LinkFaultPlan

SMOKE_SEEDS = range(20)
CORPUS_SEEDS = range(200)

#: Chaos heavy enough that most corpus runs see drops AND duplicates.
CHAOS = dict(drop=0.25, duplicate=0.2, jitter=3.0)


def make_bus(seed=None, **chaos):
    clock = SimClock()
    faults = LinkFaultPlan(seed, **chaos) if seed is not None else None
    bus = MessageBus(clock, faults=faults)
    bus.register("producer")
    bus.register("consumer")
    return clock, bus


def run_effect_harness(seed, keys=12, retransmit_after=5.0, deadline=3600.0):
    """Retransmit keyed work until acked; apply each effect once.

    Returns (applied_counts, bus) -- the counts say how often each
    key's *effect* ran, regardless of how many copies were delivered.
    """
    clock, bus = make_bus(seed, **CHAOS)
    work = [f"item-{i}" for i in range(keys)]
    attempts = {key: 0 for key in work}
    sent_at = {key: None for key in work}
    acked = set()
    applied = {key: 0 for key in work}
    seen = {}
    ack_attempts = {}
    while len(acked) < len(work):
        now = clock.now
        if now > deadline:
            raise AssertionError(f"seed {seed} did not converge")
        bus.deliver_due(now)
        for envelope in bus.endpoint("consumer").drain():
            key = envelope.dedup_key
            if key not in seen:
                applied[key] += 1  # the effect, exactly here
                seen[key] = {"key": key}
            ack_attempts[key] = ack_attempts.get(key, 0) + 1
            bus.send(
                "consumer", "producer", busmod.ACK, seen[key],
                dedup_key=f"ack:{key}", attempt=ack_attempts[key],
            )
        for envelope in bus.endpoint("producer").drain():
            acked.add(envelope.payload["key"])
        for key in work:
            if key in acked:
                continue
            if sent_at[key] is None or now - sent_at[key] >= retransmit_after:
                attempts[key] += 1
                sent_at[key] = now
                bus.send(
                    "producer", "consumer", busmod.WORK, {"key": key},
                    dedup_key=key, attempt=attempts[key],
                )
        if len(acked) == len(work):
            break
        nxt = bus.next_time()
        retry = min(
            (sent_at[k] + retransmit_after for k in work if k not in acked),
            default=None,
        )
        targets = [t for t in (nxt, retry) if t is not None]
        clock.advance_to(max(min(targets), now + 0.001))
    return applied, bus


def assert_exactly_once(seed):
    applied, bus = run_effect_harness(seed)
    assert all(count == 1 for count in applied.values()), applied
    stats = bus.stats()
    # At-least-once: every key's work was delivered at least once.
    assert stats["delivered"].get("work", 0) >= len(applied)


class TestDelivery:
    def test_latency_defers_delivery(self):
        clock, bus = make_bus()
        bus.send("producer", "consumer", "work", {"n": 1})
        assert bus.deliver_due(clock.now) == 0
        assert bus.next_time() == pytest.approx(0.05)
        assert bus.deliver_due(0.05) == 1
        inbox = bus.endpoint("consumer").drain()
        assert [e.payload["n"] for e in inbox] == [1]

    def test_same_instant_delivery_is_send_ordered(self):
        clock, bus = make_bus()
        for n in range(5):
            bus.send("producer", "consumer", "work", {"n": n})
        bus.deliver_due(1.0)
        inbox = bus.endpoint("consumer").drain()
        assert [e.payload["n"] for e in inbox] == [0, 1, 2, 3, 4]

    def test_closed_endpoint_discards(self):
        clock, bus = make_bus()
        bus.send("producer", "consumer", "work")
        bus.close("consumer")
        bus.deliver_due(1.0)
        assert bus.endpoint("consumer").inbox == []
        assert bus.log[-1].status == busmod.DEAD_ENDPOINT
        # Re-opened endpoint receives again.
        bus.open("consumer")
        bus.send("producer", "consumer", "work")
        bus.deliver_due(2.0)
        assert len(bus.endpoint("consumer").inbox) == 1

    def test_unknown_endpoint_rejected(self):
        _, bus = make_bus()
        with pytest.raises(SimulationError, match="unknown endpoint: ghost"):
            bus.send("producer", "ghost", "work")
        with pytest.raises(SimulationError, match="unknown endpoint: ghost"):
            bus.send("ghost", "consumer", "work")
        assert bus.log == [] and bus.pending() == 0 and bus.sent == {}

    def test_duplicate_registration_rejected(self):
        _, bus = make_bus()
        with pytest.raises(SimulationError):
            bus.register("producer")

    def test_negative_latency_rejected(self):
        clock = SimClock()
        with pytest.raises(SimulationError):
            MessageBus(clock, default_latency=-1.0)


class TestPartition:
    def test_partition_blocks_send(self):
        clock, bus = make_bus()
        bus.partition(["producer"], ["consumer"])
        bus.send("producer", "consumer", "work")
        assert bus.pending() == 0
        assert bus.log[-1].status == busmod.PARTITIONED

    def test_in_flight_message_lost_at_partition(self):
        """A message sent before the cut but delivered after it is lost
        -- exactly like a packet on a real severed wire."""
        clock, bus = make_bus()
        bus.send("producer", "consumer", "work")
        bus.partition(["producer"], ["consumer"])
        bus.deliver_due(1.0)
        assert bus.endpoint("consumer").inbox == []
        assert bus.log[-1].status == busmod.PARTITIONED
        assert bus.stats()["partition_losses"] == 1

    def test_heal_restores_delivery(self):
        clock, bus = make_bus()
        bus.partition(["producer"], ["consumer"])
        bus.heal()
        bus.send("producer", "consumer", "work")
        bus.deliver_due(1.0)
        assert len(bus.endpoint("consumer").drain()) == 1

    def test_nodes_absent_from_groups_are_singletons(self):
        clock, bus = make_bus()
        bus.register("third")
        bus.partition(["producer", "consumer"])
        assert bus.reachable("producer", "consumer")
        assert not bus.reachable("producer", "third")
        assert bus.reachable("third", "third")


class TestLinkFaultPlan:
    def test_decisions_are_pure_functions_of_site(self):
        plan = LinkFaultPlan(42, **CHAOS)
        site = "work:producer->consumer:item-3"
        assert plan.copies(site, 1) == plan.copies(site, 1)
        # Different attempts draw independently.
        draws = {tuple(plan.copies(site, a)) for a in range(1, 30)}
        assert len(draws) > 1

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LinkFaultPlan(0, drop=1.5)
        with pytest.raises(ValueError):
            LinkFaultPlan(0, jitter=-1.0)

    def test_reorder_via_jitter(self):
        """With jitter, a later send can arrive first; the receiver
        sees reordered msg_ids."""
        clock, bus = make_bus(9, jitter=5.0)
        for n in range(30):
            bus.send("producer", "consumer", "work", {"n": n})
        bus.deliver_due(100.0)
        order = [e.payload["n"] for e in bus.endpoint("consumer").drain()]
        assert sorted(order) == list(range(30))
        assert order != list(range(30))


def reference_copies(plan, site, attempt):
    """``LinkFaultPlan.copies`` as it was written with a fresh generator
    per decision: the reference the one re-seeded generator must match."""
    rng = random.Random(f"{plan.seed}|{site}|{attempt}")
    if rng.random() < plan.drop:
        return []
    delays = [rng.random() * plan.jitter if plan.jitter > 0.0 else 0.0]
    if rng.random() < plan.duplicate:
        spread = plan.jitter if plan.jitter > 0.0 else 1.0
        delays.append(rng.random() * spread)
    return delays


SITES = st.builds(
    "{}:{}->{}:{}".format,
    st.sampled_from(["work", "ack", "heartbeat", "hello"]),
    st.sampled_from(["master", "host000", "host001"]),
    st.sampled_from(["master", "host000", "host001"]),
    st.one_of(st.text(max_size=6), st.integers(0, 99).map("#{}".format)),
)
RATES = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(-5, 10**6),
    drop=RATES,
    duplicate=RATES,
    jitter=st.sampled_from([0.0, 0.5, 3.0]),
    calls=st.lists(st.tuples(SITES, st.integers(1, 5)), max_size=40),
)
def test_one_generator_draws_what_a_fresh_one_did(
    seed, drop, duplicate, jitter, calls
):
    """Any interleaving of decisions on one plan -- repeats included --
    gives exactly the offsets a fresh ``Random(seed|site|attempt)`` per
    decision gave."""
    plan = LinkFaultPlan(seed, drop=drop, duplicate=duplicate, jitter=jitter)
    for site, attempt in calls:
        assert plan.copies(site, attempt) == reference_copies(
            plan, site, attempt
        )


class TestEnvelopes:
    """``send`` builds an envelope only for what it queues or logs, and
    no two copies share a payload dict."""

    @pytest.fixture
    def built(self, monkeypatch):
        made = []

        class Counted(busmod.Envelope):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(busmod, "Envelope", Counted)
        return made

    def test_one_envelope_per_queued_copy(self, built):
        clock, bus = make_bus()
        bus.send("producer", "consumer", "work", {"n": 1})
        assert len(built) == 1 and bus.pending() == 1
        clock, bus = make_bus(0, duplicate=1.0)
        built.clear()
        bus.send("producer", "consumer", "work", {"n": 1})
        assert len(built) == 2 and bus.pending() == 2
        assert [e.copy for e in built] == [0, 1]

    def test_one_envelope_for_a_lost_send(self, built):
        clock, bus = make_bus(0, drop=1.0)
        bus.send("producer", "consumer", "work", {"n": 1})
        assert len(built) == 1 and bus.pending() == 0
        assert bus.log[-1].status == busmod.DROPPED
        assert bus.log[-1].envelope is built[0]
        clock, bus = make_bus()
        built.clear()
        bus.partition(["producer"], ["consumer"])
        bus.send("producer", "consumer", "work", {"n": 1})
        assert len(built) == 1 and bus.pending() == 0
        assert bus.log[-1].status == busmod.PARTITIONED

    def test_send_returns_nothing(self):
        _, bus = make_bus()
        assert bus.send("producer", "consumer", "work") is None

    def test_payloads_are_copied_once_per_copy(self):
        clock, bus = make_bus(0, duplicate=1.0)
        payload = {"n": 1}
        bus.send("producer", "consumer", "work", payload)
        payload["n"] = 2
        bus.deliver_due(100.0)
        first, second = bus.endpoint("consumer").drain()
        assert first.payload == second.payload == {"n": 1}
        assert first.payload is not payload
        assert first.payload is not second.payload
        first.payload["n"] = 3
        assert second.payload == {"n": 1}


class TestHeartbeatTimeout:
    def test_silent_peer_detected(self):
        """A peer that stops heartbeating is detected after the
        timeout; one that keeps beating never is."""
        clock, bus = make_bus()
        timeout = 15.0
        last_seen = 0.0
        suspected_at = None
        # The consumer heartbeats every 5s until t=20, then goes silent.
        for t in range(0, 20, 5):
            bus.send("consumer", "producer", busmod.HEARTBEAT, at=float(t))
        t = 0.0
        while t < 60.0 and suspected_at is None:
            bus.deliver_due(t)
            for envelope in bus.endpoint("producer").drain():
                last_seen = max(last_seen, envelope.deliver_at)
            if t - last_seen > timeout:
                suspected_at = t
            t += 1.0
        assert suspected_at is not None
        assert suspected_at - last_seen > timeout
        assert suspected_at == pytest.approx(31.0, abs=1.0)


class TestReplay:
    def test_same_seed_byte_identical_log(self):
        _, first = run_effect_harness(seed=123)
        _, second = run_effect_harness(seed=123)
        assert first.delivery_log() == second.delivery_log()
        assert first.delivery_log()  # non-empty

    def test_different_seeds_diverge(self):
        _, a = run_effect_harness(seed=1)
        _, b = run_effect_harness(seed=2)
        assert a.delivery_log() != b.delivery_log()

    def test_log_lines_fixed_precision(self):
        clock, bus = make_bus()
        bus.send("producer", "consumer", "work", dedup_key="k1")
        bus.deliver_due(1.0)
        line = bus.log[-1].line()
        assert line == (
            "0.050000 delivered #1.0 work producer->consumer"
            " key=k1 attempt=1 sent=0.000000"
        )


class TestExactlyOnceSmoke:
    """Tier-1 slice of the corpus (full 200 seeds under the fuzz mark)."""

    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_exactly_once_effect(self, seed):
        assert_exactly_once(seed)

    def test_chaos_actually_fired(self):
        """The smoke corpus exercises drops AND duplicates somewhere --
        otherwise the exactly-once claim is vacuous."""
        dropped = duplicated = 0
        for seed in SMOKE_SEEDS:
            _, bus = run_effect_harness(seed)
            stats = bus.stats()
            dropped += stats["dropped"]
            duplicated += stats["duplicated"]
        assert dropped > 0
        assert duplicated > 0


@pytest.mark.fuzz
class TestExactlyOnceCorpus:
    """The full 200-seed corpus (CI fuzz job; excluded from tier-1)."""

    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_exactly_once_effect(self, seed):
        assert_exactly_once(seed)

    @pytest.mark.parametrize("seed", range(0, 200, 25))
    def test_replay_byte_identical(self, seed):
        _, a = run_effect_harness(seed)
        _, b = run_effect_harness(seed)
        assert a.delivery_log() == b.delivery_log()
