"""Drift checks read only what changed, and report what a full sweep
would.

:func:`detect_drift` and :meth:`ProcessMonitor.crashed_services` read a
machine's drivers and processes again only when its generation moved
(:class:`repro.runtime.monitor.DriftIndex`).  The oracle here is the
full sweep they ran before the index: every instance of the goal and
every watched service, on every check.  Hypothesis draws event
sequences on a 2-12 machine django fleet -- a service's process fails
or is killed, every process of a machine crashes, a machine is lost,
a churn round, a delta step up or down, a repair round, a trip through
the state file, a check toward another target -- and after each event
the index's report must equal the oracle's, item for item, in order.
A generation bump missing anywhere leaves an entry that still looks
current, and the report it gives no longer matches the world.

A delta step reads only what changed as well: :func:`diff_specs`
compares only the parts the two specs do not share,
:func:`rebase_journal` reads only those and the machines whose
generation moved since the journal last agreed with them, and the
journal keeps its frontier instead of folding its history.  The
oracles for those are the step as it was before: the whole-spec diff,
the whole-spec rebase, the purge of the whole history when a
transition finishes, and the fold of every entry.  The machine's delta
events -- grow, shrink, reconfigure a port, upgrade a machine's key,
move a replica -- check each against its oracle while the step runs.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.runtime.delta as delta_module
from repro.config import ConfigurationSession
from repro.core.errors import DeploymentFailure, EngageError
from repro.core.instances import PartialInstallSpec
from repro.core.jsontext import document_text
from repro.core.keys import ResourceKey
from repro.drivers.library import ServiceDriver
from repro.drivers.state_machine import ACTIVE, INACTIVE, UNINSTALLED
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import (
    FleetTopology,
    fleet_partial,
    fleet_spec_entries,
)
from repro.runtime import (
    DeploymentEngine,
    DeploymentJournal,
    ProcessMonitor,
    ReconcileController,
    execute_delta,
    load_system,
    plan_delta,
    save_system,
)
from repro.runtime.delta import SpecDiff
from repro.runtime.journal import JournalEntry
from repro.runtime.reconcile import (
    DriftItem,
    DriftKind,
    DriftReport,
    detect_drift,
    require_no_transition,
)
from repro.sim import FaultPlan, MachineChurn, lose_machine

REGISTRY = standard_registry()
DRIVERS = standard_drivers()
SESSION = ConfigurationSession(REGISTRY, partition=True)


# -- The oracle: the full sweep ---------------------------------------------


def swept_crashed_services(system) -> list[str]:
    """Every watched service whose process died, on a machine still on
    the network, in id order."""
    network = system.infrastructure.network
    crashed = []
    for instance_id in system.service_ids():
        process = system.drivers[instance_id].process
        if process is None or process.is_running():
            continue
        if not network.has_machine(system.machine_for(instance_id).hostname):
            continue
        crashed.append(instance_id)
    return crashed


def full_sweep(system, *, goal=None) -> DriftReport:
    """:func:`detect_drift` as it was before the drift index: every
    machine, every service and every goal instance read on every
    check."""
    goal_spec = goal if goal is not None else system.spec
    target = system.journal.target
    deployed_ids = set(system.spec.ids())
    network = system.infrastructure.network
    items = []

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
    lost_ids = set()
    for machine_id in lost_machine_ids:
        for instance in system.spec.instances_on_machine(machine_id):
            lost_ids.add(instance.id)
            items.append(
                DriftItem(DriftKind.LOST_MACHINE, instance.id, machine_id)
            )

    for instance_id in swept_crashed_services(system):
        if instance_id not in lost_ids:
            items.append(
                DriftItem(
                    DriftKind.CRASHED_SERVICE,
                    instance_id,
                    system.state_of(instance_id),
                )
            )

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

    return DriftReport(
        timestamp=system.infrastructure.clock.now,
        target=target,
        items=items,
    )


# -- The oracles of a delta step: the whole-spec walks ----------------------


def whole_diff(old, new) -> tuple[SpecDiff, list[str]]:
    """:func:`diff_specs` as it was before parts: every common id
    compared.  Returns the diff and its unchanged ids, in order."""
    diff = SpecDiff(new)
    old_ids = set(old.ids())
    new_ids = set(new.ids())
    diff.added = sorted(new_ids - old_ids)
    diff.removed = sorted(old_ids - new_ids)
    unchanged = []
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
            diff.moved.append(instance_id)
        else:
            unchanged.append(instance_id)
    return diff, unchanged


def whole_rebase(system, delta, unchanged):
    """:func:`rebase_journal` as it was before: every old-spec instance
    read, the history folded, ``completed`` cleared and re-marked."""
    require_no_transition(system)
    journal = system.journal
    frontier = fold(journal.entries)
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
    journal.spec = delta.new_spec
    journal.completed.clear()
    journal.reset_frontier()
    stop_set = set(delta.stop_down)
    for iid in unchanged:
        if iid in stop_set or iid not in system.drivers:
            continue
        if system.state_of(iid) == delta.target:
            journal.mark_completed(iid)
    return journal


def whole_purge(journal) -> None:
    """:meth:`DeploymentJournal.finish_transition`'s purge as it was
    before: the whole history filtered."""
    known = set(journal.spec.ids())
    kept = [entry for entry in journal.entries if entry.instance_id in known]
    journal.entries[:] = kept
    journal.completed &= known
    for iid in [iid for iid in journal.failed if iid not in known]:
        del journal.failed[iid]
    journal.skipped &= known


def fold(entries) -> dict[str, str]:
    """The frontier as a fold of the whole history."""
    states = {}
    for entry in entries:
        states[entry.instance_id] = entry.target
    return states


def twin(journal) -> DeploymentJournal:
    """A separate journal with ``journal``'s history and partitions
    (its frontier is left unfolded: the oracles fold the history)."""
    copy = DeploymentJournal(journal.spec, journal.target)
    copy.entries.extend(journal.entries)
    copy.completed = set(journal.completed)
    copy.failed = dict(journal.failed)
    copy.skipped = set(journal.skipped)
    return copy


def same_journal(journal, oracle, after: str) -> None:
    assert journal.entries == oracle.entries, after
    assert journal.completed == oracle.completed, after
    assert journal.failed == oracle.failed, after
    assert journal.skipped == oracle.skipped, after
    assert journal.states() == fold(oracle.entries), after
    assert document_text(journal.to_document(), 2) == document_text(
        oracle.to_document(), 2
    ), after


class Oracles:
    """While a delta step runs, each of its whole-spec walks is checked
    against the oracle on the same state: the rebase on a twin of the
    journal, the purge on a copy of the history taken just before the
    transition finishes."""

    def __init__(self, patch, unchanged) -> None:
        rebase = delta_module.rebase_journal
        finish = DeploymentJournal.finish_transition

        def checked_rebase(system, delta):
            oracle = twin(system.journal)
            kept = system.journal
            system.journal = oracle
            try:
                whole_rebase(system, delta, unchanged)
            finally:
                system.journal = kept
            journal = rebase(system, delta)
            same_journal(journal, oracle, "rebase")
            assert delta.up == [
                instance.id
                for instance in delta.new_spec.topological_order()
                if instance.id not in oracle.completed
            ]
            return journal

        def checked_finish(journal):
            oracle = twin(journal)
            whole_purge(oracle)
            finish(journal)
            same_journal(journal, oracle, "finish_transition")

        patch.setattr(delta_module, "rebase_journal", checked_rebase)
        patch.setattr(DeploymentJournal, "finish_transition", checked_finish)


# -- The fleet and its events -------------------------------------------------


def configure(machines: int, replicas: int):
    return SESSION.configure(fleet_partial(FleetTopology(
        replicas=replicas, machines=machines, stacks=("django",)
    ))).spec


def drawn(data):
    """A ``pick`` that lets Hypothesis choose (and shrink) a victim."""
    return lambda label, options: data.draw(
        st.sampled_from(options), label=label
    )


def first(label, options):
    """A ``pick`` that always chooses the first option."""
    return options[0]


class Fleet:
    """One world, one engine, the current system, and the events; every
    event is followed by :meth:`check`."""

    def __init__(self, machines: int, replicas: int, pick) -> None:
        self.pick = pick
        self.machines = machines
        self.replicas = replicas
        self.infrastructure = standard_infrastructure()
        self.engine = DeploymentEngine(
            REGISTRY, self.infrastructure, DRIVERS
        )
        #: Per pinned instance, the fields the delta events changed.
        self.edits: dict[str, dict] = {}
        self.system = self.engine.deploy(configure(machines, replicas))

    def partial(self, replicas: int, edits: dict) -> PartialInstallSpec:
        entries = []
        for entry in fleet_spec_entries(FleetTopology(
            replicas=replicas, machines=self.machines, stacks=("django",)
        )):
            edit = edits.get(entry.id, {})
            if "config" in edit:
                edit = {**edit, "config": {**entry.config, **edit["config"]}}
            entries.append(dataclasses.replace(entry, **edit))
        return PartialInstallSpec(entries)

    def services(self, running: bool) -> list[str]:
        return sorted(
            instance_id
            for instance_id, driver in self.system.drivers.items()
            if isinstance(driver, ServiceDriver)
            and driver.process is not None
            and (not running or driver.process.is_running())
        )

    def live_hostnames(self) -> list[str]:
        network = self.infrastructure.network
        return sorted({
            machine.hostname for machine in self.system.machines.values()
            if network.has_machine(machine.hostname)
        })

    # -- Events (each takes the Random its own choices come from) ---------

    def fail(self, rng) -> None:
        running = self.services(running=True)
        if running:
            self.system.drivers[self.pick("fail", running)].process.fail()

    def kill_process(self, rng) -> None:
        """A service's process leaves its machine's table (its driver
        still holds it, stopped)."""
        held = [
            instance_id for instance_id in self.services(running=False)
            if self.system.drivers[instance_id].process
            in self.system.drivers[instance_id].process.machine.processes()
        ]
        if held:
            process = self.system.drivers[self.pick("kill", held)].process
            process.machine.kill_process(process.pid)

    def crash_machine(self, rng) -> None:
        """Every process of one machine dies; the machine stays."""
        live = self.live_hostnames()
        if live:
            hostname = self.pick("crash_machine", live)
            machine = self.infrastructure.network.machine(hostname)
            for process in machine.running_processes():
                process.fail()

    def lose_machine(self, rng) -> None:
        live = self.live_hostnames()
        if live:
            lose_machine(self.infrastructure, self.pick("lose", live))

    def churn(self, rng) -> None:
        MachineChurn(self.system, seed=rng.randrange(1 << 16), rate=0.2) \
            .round(0)

    # -- Delta steps (each checked against the whole-spec oracles) -------

    def step(self, replicas: int, edits: dict) -> None:
        """Configure the fleet with ``replicas`` and ``edits`` and move
        the live system there, unless the step cannot be planned (lost
        machines, an unfinished transition)."""
        new_spec = SESSION.configure(self.partial(replicas, edits)).spec
        try:
            delta = plan_delta(self.system, new_spec)
        except EngageError:
            return
        oracle, unchanged = whole_diff(self.system.spec, new_spec)
        for name in ("added", "removed", "upgraded", "reconfigured", "moved"):
            assert getattr(delta.diff, name) == getattr(oracle, name), name
        assert delta.diff.unchanged == set(unchanged)
        assert delta.diff.to_payload()["unchanged"] == len(unchanged)
        self.replicas, self.edits = replicas, edits
        with pytest.MonkeyPatch.context() as patch:
            Oracles(patch, unchanged)
            try:
                self.system = execute_delta(
                    self.engine, self.system, delta
                ).system
            except DeploymentFailure as failure:
                self.system = failure.system

    def grow(self, rng) -> None:
        self.step(min(self.replicas + rng.randint(1, 3), 2 * self.machines),
                  self.edits)

    def shrink(self, rng) -> None:
        self.step(max(self.replicas - rng.randint(1, 3), 1), self.edits)

    def reconfigure(self, rng) -> None:
        """A replica's cache moves to another port."""
        index = self.pick("reconfigure", list(range(self.replicas)))
        cache = f"cache{index:03d}"
        edit = self.edits.get(cache, {})
        port = edit.get("config", {}).get("port", 16379 + index) + 1000
        self.step(self.replicas, {
            **self.edits, cache: {**edit, "config": {"port": port}},
        })

    def upgrade(self, rng) -> None:
        """A machine's key moves to the other Ubuntu release."""
        host = self.pick("upgrade", [
            f"host{machine:03d}" for machine in range(self.machines)
        ])
        edit = self.edits.get(host, {})
        key = ResourceKey.parse(
            "Ubuntu-Linux 10.4" if "key" in edit else "Ubuntu-Linux 10.10"
        )
        kept = {name: value for name, value in edit.items() if name != "key"}
        self.step(self.replicas, {
            **self.edits,
            host: kept if "key" in edit else {**edit, "key": key},
        })

    def move(self, rng) -> None:
        """A whole replica moves to another machine."""
        index = self.pick("move", list(range(self.replicas)))
        host = f"host{rng.randrange(self.machines):03d}"
        edits = dict(self.edits)
        for role in ("web", "worker", "broker", "cache", "monitor"):
            instance_id = f"{role}{index:03d}"
            edits[instance_id] = {
                **edits.get(instance_id, {}), "inside_id": host,
            }
        self.step(self.replicas, edits)

    def repair(self, rng) -> None:
        try:
            controller = ReconcileController(
                self.engine, self.system, interval=0.0
            )
        except EngageError:
            return  # an unfinished transition: its repair is the resume
        controller.run(rounds=1)

    def faulty_repair(self, rng) -> None:
        """A repair round whose driver actions fail at random: what it
        could not redeploy stays where the loss left it."""
        self.infrastructure.set_fault_plan(
            FaultPlan.seeded(rng.randrange(1 << 16), rate=0.5)
        )
        try:
            self.repair(rng)
        finally:
            self.infrastructure.set_fault_plan(None)

    def by_hand(self, rng) -> None:
        """An operator stops a service through its driver, outside the
        engine: the journal does not hear of it."""
        running = [
            instance_id for instance_id in self.services(running=True)
            if self.system.drivers[instance_id].state == ACTIVE
        ]
        if running:
            self.system.drivers[self.pick("by_hand", running)].perform("stop")

    def save_load(self, rng) -> None:
        try:
            self.system = load_system(
                REGISTRY, self.infrastructure, DRIVERS,
                save_system(self.system),
            )
        except EngageError:
            pass  # a lost machine's services cannot be re-adopted

    def retarget(self, rng) -> None:
        """A check toward another target state, then back."""
        journal = self.system.journal
        kept = journal.target
        journal.target = rng.choice((INACTIVE, UNINSTALLED))
        try:
            self.check("retarget")
        finally:
            journal.target = kept

    # -- The invariant -----------------------------------------------------

    def check(self, after: str) -> None:
        system = self.system
        journal = system.journal
        assert journal.states() == fold(journal.entries), after
        assert ProcessMonitor(system).crashed_services() == (
            swept_crashed_services(system)
        ), after
        assert detect_drift(system).items == full_sweep(system).items, after
        goal = configure(self.machines, self.replicas + 1)
        assert detect_drift(system, goal=goal).items == (
            full_sweep(system, goal=goal).items
        ), after
        assert detect_drift(system).examined == 0, after


EVENTS = (
    "fail", "kill_process", "crash_machine", "lose_machine", "churn",
    "grow", "shrink", "reconfigure", "upgrade", "move", "repair",
    "faulty_repair", "by_hand", "save_load", "retarget",
)
#: An event and the seed its own random choices are drawn from.
EVENT_LISTS = st.lists(
    st.tuples(st.sampled_from(EVENTS), st.integers(0, 2**16)), max_size=8
)
FLEETS = st.integers(2, 12).flatmap(
    lambda machines: st.tuples(st.just(machines), st.integers(1, machines + 2))
)


def run_events(fleet_size, events, data) -> None:
    machines, replicas = fleet_size
    fleet = Fleet(machines, replicas, first if data is None else drawn(data))
    fleet.check("deploy")
    for name, seed in events:
        getattr(fleet, name)(random.Random(seed))
        fleet.check(name)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(FLEETS, EVENT_LISTS, st.data())
# Every process of fleet-000 has died when it is lost, so the loss
# moves nothing there; the repair that stands up the replacement must,
# or the crashes seen before would be reported for the new processes.
@example((2, 2), [("crash_machine", 0), ("lose_machine", 0), ("repair", 0),
                  ("fail", 0)], None)
# A failed reload registers a new fleet-000 behind the system's back;
# the repair adopts it.
@example((2, 1), [("lose_machine", 0), ("save_load", 0), ("repair", 0)],
         None)
# An observed loss moves the frontier even when the repair after it
# fails to redeploy what the machine took down.
@example((2, 2), [("lose_machine", 0), ("faulty_repair", 1)], None)
# A service stopped by hand, on a machine the next step leaves alone,
# is adopted by that step's rebase.
@example((8, 1), [("grow", 0), ("by_hand", 0), ("grow", 0)], None)
def test_drift_index_reports_what_a_full_sweep_finds(fleet_size, events, data):
    run_events(fleet_size, events, data)


@pytest.mark.fuzz
@settings(max_examples=1000, deadline=None)
@given(FLEETS, EVENT_LISTS, st.data())
def test_drift_index_reports_what_a_full_sweep_finds_fuzz(
    fleet_size, events, data
):
    run_events(fleet_size, events, data)


def test_a_check_toward_another_target_reads_everything_again():
    """The index is kept toward one target: the first check toward
    another reads every instance, and so does the first one back."""
    system = Fleet(3, 3, first).system
    size = len(system.spec)
    assert detect_drift(system).examined == size  # the first check
    assert detect_drift(system).examined == 0
    system.journal.target = INACTIVE
    report = detect_drift(system)
    assert report.examined == size
    assert report.items == full_sweep(system).items
    system.journal.target = ACTIVE
    assert detect_drift(system).examined == size
    assert detect_drift(system).is_converged


# -- What a step costs: counters on the day-2 walk ----------------------------


@pytest.fixture(scope="module")
def day2_walk():
    """CI's day-2 walk -- a 64-machine django fleet of 640 replicas
    that grows for ten steps and shrinks for ten, by ``Random(11)`` --
    deployed and moved by delta steps, three reconcile rounds under
    machine churn after each, with every check's ``examined`` count, the
    size of every ``kahn_order`` run, and what each delta step's diff and
    rebase read recorded."""
    import repro.config.propagation as propagation
    import repro.core.instances as instances

    kahn_sizes: list[int] = []
    kahn = instances.kahn_order

    def counted(upstream):
        kahn_sizes.append(len(upstream))
        return kahn(upstream)

    rebase = delta_module.rebase_journal
    agreed: dict = {}  # machine id -> (machine, generation) at a rebase

    def watched(system, delta):
        """The old spec's instances on machines that moved since the
        last rebase, noted before this one reads anything."""
        spec = delta.old_spec
        now = {
            machine.id: (system.machines[machine.id],
                         system.machines[machine.id].generation)
            for machine in spec.machines()
        }
        moved = [
            machine_id for machine_id, (machine, generation) in now.items()
            if machine_id not in agreed
            or agreed[machine_id][0] is not machine
            or agreed[machine_id][1] != generation
        ]
        agreed.clear()
        agreed.update(now)
        record["on_moved"] = {
            instance.id for machine_id in moved
            for instance in spec.instances_on_machine(machine_id)
        }
        return rebase(system, delta)

    session = ConfigurationSession(REGISTRY, partition=True)
    engine = DeploymentEngine(REGISTRY, standard_infrastructure(), DRIVERS)
    rng, replicas = random.Random(11), 640
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instances, "kahn_order", counted)
        patch.setattr(propagation, "kahn_order", counted)
        patch.setattr(delta_module, "rebase_journal", watched)
        for step in range(21):
            if step:
                replicas += (1 if step <= 10 else -1) * rng.randint(1, 20)
            kahn_sizes.clear()
            record = {}
            folded = system.journal.folded if step else 0
            result = session.configure(fleet_partial(FleetTopology(
                replicas=replicas, machines=64, stacks=("django",)
            )))
            spec = result.spec
            if step:
                old_spec = system.spec
                delta = plan_delta(system, spec)
                system = execute_delta(engine, system, delta).system
                record["compared"] = delta.diff.compared
                record["unshared"] = len(
                    unshared(old_spec, spec) | unshared(spec, old_spec)
                )
                record["read"] = delta.rebase_read
                record["read_bound"] = len(
                    unshared(old_spec, spec) | record["on_moved"]
                )
            else:
                system = engine.deploy(spec)
                first = detect_drift(system).examined
            record.update({
                "size": len(spec), "first": first if not step else None,
                "largest": result.partition.largest,
                "kahn": max(kahn_sizes, default=0),
            })
            ReconcileController(engine, system, interval=0.0).run(
                rounds=3, churn=MachineChurn(system, seed=step, rate=0.04)
            )
            quiet = detect_drift(system)
            record["quiet"] = quiet.examined
            record["converged"] = quiet.is_converged
            victim = sorted(system.service_ids())[step * 37 % 500]
            system.drivers[victim].process.fail()
            after = detect_drift(system)
            record["after_fail"] = after.examined
            record["on_machine"] = len(system.spec.instances_on_machine(
                system.spec.machine_of(victim)
            ))
            record["crashed"] = after.crashed_services == [victim]
            record["swept"] = after.items == full_sweep(system).items
            ReconcileController(engine, system, interval=0.0).run(rounds=1)
            record["folded"] = system.journal.folded - folded
            steps.append(record)
    return steps


def unshared(spec, other) -> set[str]:
    """The ids of ``spec``'s parts that are not parts of ``other``."""
    return {
        instance_id
        for part in spec.parts()
        if not any(part is theirs for theirs in other.parts())
        for instance_id in part.ids()
    }


def test_the_first_check_reads_the_whole_fleet(day2_walk):
    assert day2_walk[0]["first"] == day2_walk[0]["size"] > 3000


def test_a_quiescent_recheck_reads_no_instance(day2_walk):
    """A full sweep read all ~3,500 instances on every check."""
    assert [step["converged"] for step in day2_walk] == [True] * 21
    assert [step["quiet"] for step in day2_walk] == [0] * 21


def test_a_check_after_one_failure_reads_that_machine(day2_walk):
    assert [step["after_fail"] for step in day2_walk] == [
        step["on_machine"] for step in day2_walk
    ]
    assert all(step["crashed"] and step["swept"] for step in day2_walk)


def test_a_step_orders_no_more_than_its_largest_component(day2_walk):
    """Configure, delta and repair take each component's Kahn order and
    merge them; none runs Kahn over the whole fleet."""
    assert day2_walk[0]["kahn"] > 0  # the cold step propagates
    for step in day2_walk:
        assert step["kahn"] <= step["largest"] < step["size"], step


def test_a_delta_step_compares_only_the_parts_it_does_not_share(day2_walk):
    """The whole-spec diff compared all ~3,500 common instances."""
    steps = day2_walk[1:]
    assert [step["compared"] for step in steps] == [
        step["unshared"] for step in steps
    ]
    assert all(step["compared"] < step["size"] / 2 for step in steps)


def test_a_rebase_reads_what_changed_and_where_the_world_moved(day2_walk):
    """The whole-spec rebase read every old-spec instance."""
    for step in day2_walk[1:]:
        assert step["read"] <= step["read_bound"], step
    assert all(step["read"] < step["size"] for step in day2_walk[2:])


def test_a_step_folds_no_journal_entry(day2_walk):
    """The frontier used to be folded from the whole history -- every
    entry, twice a step -- and the history filtered once a step."""
    assert [step["folded"] for step in day2_walk] == [0] * 21
