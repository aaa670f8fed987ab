"""The journal is a true record after *every* engine pass.

The system owns its journal, so whatever sequence of passes runs over a
fleet -- shutdown, start, partial teardown, restarts, repair after a
killed process or a lost machine, a delta to another spec, a trip
through the state file -- the journal's frontier must equal the live
driver states and ``completed`` must be exactly the instances at the
journal's target.  A teardown that a fault stops half-way must hand
back one record (``failure.system.journal is failure.journal``) that
still loads and resumes.  And the journal is enough to get the system
back: ``engine.adopt(system.journal)`` is the live system again, same
states, same processes.  Hypothesis searches step sequences for one
that leaves the record stale; a resume from a stale record adopts a
world that does not exist.  The process a step kills and the machine it
loses are Hypothesis draws, so a counterexample shrinks to a named
victim.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigurationEngine
from repro.core.errors import DeploymentFailure
from repro.drivers.library import ServiceDriver
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import (
    DeploymentEngine,
    ReconcileController,
    execute_delta,
    load_system,
    plan_delta,
    save_system,
)
from repro.sim import FaultPlan, lose_machine

MACHINES = 3
REPLICAS = (2, 5)  # the deltas walk between these bounds, one at a time
STEPS = (
    "shutdown", "start", "drive_down", "restart", "kill_process",
    "lose_machine", "delta", "save_load", "faulted_teardown", "adopt",
)
#: A step and the seed its own random choices are drawn from.
STEP_LISTS = st.lists(
    st.tuples(st.sampled_from(STEPS), st.integers(0, 2**16)), max_size=8
)


def configure(registry, replicas):
    topology = FleetTopology(
        replicas=replicas, machines=MACHINES, stacks=("django",)
    )
    return ConfigurationEngine(
        registry, partition=True
    ).configure(fleet_partial(topology)).spec


def drawn(data):
    """A ``pick`` that lets Hypothesis choose (and shrink) a victim."""
    return lambda label, options: data.draw(
        st.sampled_from(options), label=label
    )


def named(victim):
    """A ``pick`` that always chooses ``victim``."""
    def pick(label, options):
        assert victim in options, (label, victim, options)
        return victim
    return pick


class Fleet:
    """One world, one engine, the current system, and the steps.

    ``pick(label, options)`` chooses a fault's victim from a sorted,
    non-empty list."""

    def __init__(self, pick) -> None:
        self.pick = pick
        self.registry = standard_registry()
        self.drivers = standard_drivers()
        self.infrastructure = standard_infrastructure()
        self.engine = DeploymentEngine(
            self.registry, self.infrastructure, self.drivers
        )
        self.replicas = 3
        self.system = self.engine.deploy(
            configure(self.registry, self.replicas)
        )

    def reconcile(self) -> None:
        result = ReconcileController(
            self.engine, self.system, interval=0.0
        ).run(rounds=1)
        assert result.converged

    # -- Steps (each takes the Random its choices come from) -------------

    def shutdown(self, rng) -> None:
        self.engine.shutdown(self.system)

    def start(self, rng) -> None:
        self.engine.start(self.system)

    def drive_down(self, rng) -> None:
        ids = self.system.spec.ids()
        seeds = rng.sample(ids, rng.randint(1, 3))
        closure = sorted(self.system.spec.downstream_closure(seeds))
        uninstall = closure if rng.random() < 0.5 else ()
        self.engine.drive_down(self.system, closure, uninstall)

    def restart(self, rng) -> None:
        services = [
            instance.id
            for instance in self.system.spec.topological_order()
            if isinstance(self.system.drivers[instance.id], ServiceDriver)
        ]
        picked = set(rng.sample(services, rng.randint(1, len(services))))
        self.engine.drive_instances(
            self.system, (), "active",
            restart=[iid for iid in services if iid in picked],
        )

    def kill_process(self, rng) -> None:
        running = sorted(
            iid for iid, driver in self.system.drivers.items()
            if isinstance(driver, ServiceDriver)
            and driver.process is not None and driver.process.is_running()
        )
        if running:
            victim = self.pick("kill_process", running)
            self.system.drivers[victim].process.fail()
        self.reconcile()

    def lose_machine(self, rng) -> None:
        network = self.infrastructure.network
        live = sorted({
            machine.hostname for machine in self.system.machines.values()
            if network.has_machine(machine.hostname)
        })
        if live:
            lose_machine(
                self.infrastructure, self.pick("lose_machine", live)
            )
        self.reconcile()

    def delta(self, rng, step=None) -> None:
        low, high = REPLICAS
        step = step or rng.choice((-1, 1))
        if not low <= self.replicas + step <= high:
            step = -step
        self.replicas += step
        new_spec = configure(self.registry, self.replicas)
        self.system = execute_delta(
            self.engine, self.system, plan_delta(self.system, new_spec)
        ).system

    def faulted_teardown(self, rng) -> None:
        """A shutdown, or a shrinking delta, with one service's stop
        failing for good (if the pass reaches it)."""
        active = [
            iid for iid, driver in sorted(self.system.drivers.items())
            if isinstance(driver, ServiceDriver) and driver.state == "active"
        ]
        if not active:
            return
        plan = FaultPlan().on(f"driver:{rng.choice(active)}:stop", times=1)
        self.infrastructure.set_fault_plan(plan)
        try:
            if rng.random() < 0.5:
                self.shutdown(rng)
            else:
                self.delta(rng, step=-1)
        finally:
            self.infrastructure.set_fault_plan(None)

    def save_load(self, rng) -> None:
        self.system = load_system(
            self.registry, self.infrastructure, self.drivers,
            save_system(self.system),
        )

    def adopt(self, rng) -> None:
        """Back from the journal alone; the steps after this one run on
        what came back."""
        adopted = self.engine.adopt(self.system.journal)
        assert adopted.states() == self.system.states()
        for instance_id, driver in self.system.drivers.items():
            if isinstance(driver, ServiceDriver) and driver.state == "active":
                assert adopted.drivers[instance_id].process is driver.process
        self.system = adopted

    # -- The invariant ---------------------------------------------------

    def check_round_trip(self) -> None:
        text = save_system(self.system)
        loaded = load_system(
            self.registry, self.infrastructure, self.drivers, text
        )
        assert save_system(loaded) == text

    def check_record(self, after: str) -> None:
        system = self.system
        journal = system.journal
        assert journal.spec is system.spec, after
        frontier = journal.states()
        for instance_id, driver in system.drivers.items():
            recorded = frontier.get(instance_id, driver.machine_spec.initial)
            assert recorded == driver.state, (after, instance_id)
        at_target = {
            instance_id for instance_id in system.drivers
            if system.state_of(instance_id) == journal.target
        }
        assert journal.completed == at_target, after
        assert not journal.failed and not journal.skipped, after
        self.check_round_trip()


def run_steps(steps, pick) -> None:
    fleet = Fleet(pick)
    fleet.check_record("deploy")
    for name, seed in steps:
        try:
            getattr(fleet, name)(random.Random(seed))
        except DeploymentFailure as failure:
            # Whatever failed, the pieces it hands back are one record;
            # it still loads, and resuming from it lands on a true one.
            assert failure.system.journal is failure.journal, name
            # ...from which the journal alone gets the same system back,
            # a delta stopped mid-way through its down phase included.
            adopted = fleet.engine.adopt(failure.journal)
            assert adopted.states() == failure.system.states(), name
            fleet.system = failure.system
            fleet.check_round_trip()
            fleet.system = fleet.engine.resume(failure.journal)
            assert fleet.system.is_deployed()
        fleet.check_record(name)


def test_restart_precedes_a_redeployed_dependent():
    """Shrunk by the search: a partial teardown takes ``worker001``, then
    its broker's process dies.  Repair must bounce ``broker001`` before
    it starts ``worker001`` again -- restarting after the redeploys made
    every round fail on a refused connection."""
    run_steps([("drive_down", 0), ("kill_process", 0)], named("broker001"))


def test_restart_precedes_a_redeployed_dependent_on_another_branch():
    """The same shape on ``host002``: the teardown takes ``worker002``
    and then ``broker002``'s process dies."""
    run_steps([("drive_down", 767), ("kill_process", 0)], named("broker002"))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(STEP_LISTS, st.data())
def test_frontier_follows_every_pass(steps, data):
    run_steps(steps, drawn(data))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(STEP_LISTS, st.data())
def test_adopt_gets_the_system_back_after_any_sequence(steps, data):
    run_steps(steps + [("adopt", 0)], drawn(data))


@pytest.mark.fuzz
@settings(max_examples=300, deadline=None)
@given(STEP_LISTS, st.data())
def test_frontier_follows_every_pass_fuzz(steps, data):
    run_steps(steps, drawn(data))
