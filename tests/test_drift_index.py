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
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ConfigurationSession
from repro.core.errors import DeploymentFailure, EngageError
from repro.drivers.library import ServiceDriver
from repro.drivers.state_machine import ACTIVE, INACTIVE, UNINSTALLED
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import (
    DeploymentEngine,
    ProcessMonitor,
    ReconcileController,
    execute_delta,
    load_system,
    plan_delta,
    save_system,
)
from repro.runtime.reconcile import (
    DriftItem,
    DriftKind,
    DriftReport,
    detect_drift,
)
from repro.sim import MachineChurn, lose_machine

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
        self.system = self.engine.deploy(configure(machines, replicas))

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

    def delta(self, rng) -> None:
        step = rng.choice((-1, 1)) * rng.randint(1, 3)
        replicas = min(max(self.replicas + step, 1), 2 * self.machines)
        new_spec = configure(self.machines, replicas)
        try:
            delta = plan_delta(self.system, new_spec)
        except EngageError:
            return  # lost machines, or an unfinished transition
        self.replicas = replicas
        try:
            self.system = execute_delta(self.engine, self.system, delta).system
        except DeploymentFailure as failure:
            self.system = failure.system

    def repair(self, rng) -> None:
        try:
            controller = ReconcileController(
                self.engine, self.system, interval=0.0
            )
        except EngageError:
            return  # an unfinished transition: its repair is the resume
        controller.run(rounds=1)

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
    "delta", "repair", "save_load", "retarget",
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
    machine churn after each, with every check's ``examined`` count and
    the size of every ``kahn_order`` run recorded."""
    import repro.config.propagation as propagation
    import repro.core.instances as instances

    kahn_sizes: list[int] = []
    kahn = instances.kahn_order

    def counted(upstream):
        kahn_sizes.append(len(upstream))
        return kahn(upstream)

    session = ConfigurationSession(REGISTRY, partition=True)
    engine = DeploymentEngine(REGISTRY, standard_infrastructure(), DRIVERS)
    rng, replicas = random.Random(11), 640
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instances, "kahn_order", counted)
        patch.setattr(propagation, "kahn_order", counted)
        for step in range(21):
            if step:
                replicas += (1 if step <= 10 else -1) * rng.randint(1, 20)
            kahn_sizes.clear()
            result = session.configure(fleet_partial(FleetTopology(
                replicas=replicas, machines=64, stacks=("django",)
            )))
            spec = result.spec
            if step:
                system = execute_delta(
                    engine, system, plan_delta(system, spec)
                ).system
            else:
                system = engine.deploy(spec)
                first = detect_drift(system).examined
            record = {
                "size": len(spec), "first": first if not step else None,
                "largest": result.partition.largest,
                "kahn": max(kahn_sizes, default=0),
            }
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
            steps.append(record)
    return steps


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
