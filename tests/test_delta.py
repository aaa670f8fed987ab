"""The delta deployment planner: spec-to-spec transitions for live
fleets.

The central property mirrors the chaos matrix: for seeded
(old, new) goal pairs, ``plan_delta`` + ``execute_delta`` must land the
world in the same place as a fresh fault-free ``deploy(new_spec)`` --
same driver states, same running processes (modulo pid: surviving
services keep the pids they already had, which a fresh world cannot
reproduce), same package databases, same machines on the network --
including when a fault interrupts the transition and it finishes
through ``resume``.  Two *identical* delta runs must be bit-identical
down to the persisted world and state files.
"""

from __future__ import annotations

import json

import pytest

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import (
    ConfigurationError,
    DeploymentFailure,
    RuntimeEngageError,
)
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
    ReconcileController,
    RepairOp,
    SpecTransition,
    UpgradeEngine,
    detect_drift,
    diff_specs,
    execute_delta,
    load_system,
    plan_delta,
    save_system,
)
from repro.runtime.upgrade import _describe_exception
from repro.sim import FaultInjector, FaultPlan, FaultyWorld
from repro.sim.persistence import save_world

#: Single-stack fleets keep replica placement stable under growth:
#: replica ``i`` stays on ``host{i % machines}`` as long as the machine
#: count is fixed, so grow/shrink diffs touch only the edge replicas.
TOPOLOGY = FleetTopology(replicas=6, machines=3, stacks=("django",))


def build(partial):
    """Deploy ``partial`` on a fresh world; return the moving parts."""
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    config = ConfigurationEngine(
        registry, partition=True, verify_registry=False
    )
    spec = config.configure(partial).spec
    engine = DeploymentEngine(registry, infrastructure, standard_drivers())
    system = engine.deploy(spec, journal=DeploymentJournal(spec))
    assert system.is_deployed()
    return engine, infrastructure, system, spec


def configure(partial):
    return (
        ConfigurationEngine(
            standard_registry(), partition=True, verify_registry=False
        )
        .configure(partial)
        .spec
    )


def live_fingerprint(system, infrastructure):
    """What must match a fresh deploy of the same spec, modulo pid.

    Stopped process corpses are deliberately excluded: the simulator
    keeps them in the process table (like a real OS keeps log lines),
    and a transition that stopped something a fresh world never started
    is not a divergence.
    """
    machines = sorted(
        set(system.machines.values()), key=lambda m: m.hostname
    )
    return {
        "states": dict(sorted(system.states().items())),
        "running": {
            machine.hostname: sorted(
                (p.name, tuple(p.listen_ports), p.instance_id)
                for p in machine.processes()
                if p.state.value == "running"
            )
            for machine in machines
        },
        "packages": {
            machine.hostname: sorted(
                (record.name, record.version)
                for record in infrastructure.package_manager(
                    machine
                ).installed()
            )
            for machine in machines
        },
        "network": sorted(
            machine.hostname
            for machine in infrastructure.network.machines()
        ),
    }


def fresh_fingerprint(partial):
    """The fault-free reference: deploy ``partial`` on a fresh world."""
    _, infrastructure, system, _ = build(partial)
    return live_fingerprint(system, infrastructure)


# --------------------------------------------------------------------
# Goal mutations: each takes the base topology and returns the new
# partial spec.  These are the corpus generators.
# --------------------------------------------------------------------

def grow(topology, replicas=2):
    return fleet_partial(
        FleetTopology(
            replicas=topology.replicas + replicas,
            machines=topology.machines,
            stacks=topology.stacks,
        )
    )


def shrink(topology, replicas=2):
    return fleet_partial(
        FleetTopology(
            replicas=topology.replicas - replicas,
            machines=topology.machines,
            stacks=topology.stacks,
        )
    )


def reconfigure(topology, index=0):
    """Bump one replica's pinned cache port: a config-only change."""
    entries = fleet_spec_entries(topology)
    for entry in entries:
        if entry.id == f"cache{index:03d}":
            entry.config["port"] += 1000
            break
    else:
        raise AssertionError(f"no cache{index:03d} in fleet")
    return PartialInstallSpec(entries)


def move(topology, index=1):
    """Relocate one whole replica to the next machine over."""
    import dataclasses

    old_host = f"host{index % topology.machines:03d}"
    new_host = f"host{(index + 1) % topology.machines:03d}"
    entries = []
    moved = 0
    for entry in fleet_spec_entries(topology):
        if entry.inside_id == old_host and entry.id.endswith(f"{index:03d}"):
            entry = dataclasses.replace(entry, inside_id=new_host)
            moved += 1
        entries.append(entry)
    assert moved > 0
    return PartialInstallSpec(entries)


MUTATIONS = {
    "grow": grow,
    "shrink": shrink,
    "reconfigure": reconfigure,
    "move": move,
}


class TestPlanning:
    def test_identical_goal_is_a_noop(self):
        _, _, system, spec = build(fleet_partial(TOPOLOGY))
        delta = plan_delta(system, spec)
        assert delta.is_noop
        assert len(delta) == 0
        assert delta.stop_down == []
        assert delta.uninstall_down == []
        assert delta.retire_hostnames == []
        assert delta.up == []
        payload = delta.to_payload()
        assert payload["noop"] is True
        assert payload["diff"]["added"] == []

    def test_grow_plans_only_installs(self):
        _, _, system, spec = build(fleet_partial(TOPOLOGY))
        new_spec = configure(grow(TOPOLOGY))
        delta = plan_delta(system, new_spec)
        assert not delta.is_noop
        assert set(delta.plan.by_op()) == {"install"}
        added = set(new_spec.ids()) - set(spec.ids())
        assert set(delta.plan.instances(RepairOp.INSTALL)) == added
        assert len(delta) == len(added)
        # Growth never touches the live fleet.
        assert delta.stop_down == []
        assert delta.uninstall_down == []
        assert delta.retire_hostnames == []
        # The plan scales with the diff, not the fleet.
        assert len(delta) < len(new_spec) / 2

    def test_shrink_plans_uninstalls_in_reverse_order(self):
        _, _, system, spec = build(fleet_partial(TOPOLOGY))
        new_spec = configure(shrink(TOPOLOGY))
        delta = plan_delta(system, new_spec)
        removed = set(spec.ids()) - set(new_spec.ids())
        assert set(delta.plan.instances(RepairOp.UNINSTALL)) == removed
        assert set(delta.uninstall_down) == removed
        # Reverse dependency order: every instance uninstalls before
        # anything it depends on.
        position = {iid: i for i, iid in enumerate(delta.uninstall_down)}
        for iid in removed:
            for dependency in spec[iid].upstream_ids():
                if dependency in removed:
                    assert position[iid] < position[dependency]
        # Machines all survive a replica-only shrink.
        assert delta.retire_hostnames == []

    def test_machine_removal_plans_retire(self):
        old_partial = two_host_partial("hostA", "hostB")
        engine, infrastructure, system, _ = build(old_partial)
        new_spec = configure(one_host_partial("hostA"))
        delta = plan_delta(system, new_spec)
        assert delta.retire_hostnames == ["beta"]
        assert RepairOp.RETIRE.value in delta.plan.by_op()
        result = execute_delta(engine, system, delta)
        assert result.system.is_deployed()
        assert not infrastructure.network.has_machine("beta")
        assert infrastructure.network.has_machine("alpha")

    def test_lost_machine_refuses_delta(self):
        _, _, system, _ = build(fleet_partial(TOPOLOGY))
        FaultInjector(system, seed=1).crash_machines(1)
        new_spec = configure(grow(TOPOLOGY))
        with pytest.raises(RuntimeEngageError, match="reconcile"):
            plan_delta(system, new_spec)

    def test_detect_drift_allow_new_reports_additions(self):
        _, _, system, spec = build(fleet_partial(TOPOLOGY))
        new_spec = configure(grow(TOPOLOGY))
        drift = detect_drift(system, goal=new_spec, allow_new=True)
        added = set(new_spec.ids()) - set(spec.ids())
        assert added <= set(drift.missing_instances)
        # The strict default still refuses a grown goal.
        with pytest.raises(RuntimeEngageError, match="upgrade"):
            detect_drift(system, goal=new_spec)

    def test_session_revalidation_guards_the_goal(self):
        registry = standard_registry()
        session = ConfigurationSession(
            registry, partition=True, verify_registry=False
        )
        partial = fleet_partial(TOPOLOGY)
        spec = session.configure(partial).spec
        infrastructure = standard_infrastructure()
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        system = engine.deploy(spec, journal=DeploymentJournal(spec))
        new_partial = grow(TOPOLOGY)
        new_spec = session.configure(new_partial).spec
        delta = plan_delta(
            system, new_spec, session=session, new_partial=new_partial
        )
        # Revalidation re-derives whole components, so it covers at
        # least every instance the plan deploys.
        assert delta.revalidated >= len(delta.up)
        # A goal that no longer matches its own partial is refused:
        # hand-editing the configured spec is exactly the drift the
        # warm solver re-derivation catches.
        drifted = session.configure(new_partial).spec
        drifted["cache006"].config["port"] = 9
        with pytest.raises(ConfigurationError, match="goal drift"):
            plan_delta(
                system, drifted, session=session, new_partial=new_partial
            )
        # Half a revalidation request is a usage error.
        with pytest.raises(RuntimeEngageError, match="revalidation"):
            plan_delta(system, new_spec, session=session)


# --------------------------------------------------------------------
# Small hand-built worlds for the relocation / retirement cases.
# --------------------------------------------------------------------

def two_host_partial(*hosts, db_host=None):
    names = {"hostA": ("alpha", "10.0.0.1"), "hostB": ("beta", "10.0.0.2")}
    entries = [
        PartialInstance(
            host,
            as_key("Ubuntu-Linux 10.4"),
            config={
                "hostname": names[host][0],
                "ip_address": names[host][1],
            },
        )
        for host in hosts
    ]
    entries.append(
        PartialInstance(
            "db",
            as_key("MySQL 5.1"),
            inside_id=db_host or hosts[0],
            config={"database_name": "app", "port": 13306},
        )
    )
    return PartialInstallSpec(entries)


def one_host_partial(host):
    return two_host_partial(host)


class TestCarriedDrivers:
    """``execute_delta`` prepares the new system over the live drivers:
    a driver is constructed only for what the plan brings up."""

    @pytest.fixture
    def counted(self, monkeypatch):
        engine, _, system, _ = build(fleet_partial(TOPOLOGY))
        created = []
        create = engine.driver_registry.create

        def counting_create(name, context):
            created.append(context.instance.id)
            return create(name, context)

        monkeypatch.setattr(
            engine.driver_registry, "create", counting_create
        )
        return engine, system, created

    def test_grow_constructs_only_the_new_drivers(self, counted):
        engine, system, created = counted
        new_spec = configure(grow(TOPOLOGY, replicas=1))
        delta = plan_delta(system, new_spec)
        old_drivers = dict(system.drivers)
        new_system = execute_delta(engine, system, delta).system
        assert new_system.is_deployed()
        # No machine joins, so every new driver comes from the registry.
        assert sorted(created) == sorted(delta.up)
        assert len(created) < len(new_spec) / 4
        assert list(new_system.drivers) == list(new_spec.ids())
        for iid, driver in old_drivers.items():
            assert new_system.drivers[iid] is driver
            assert driver.context.spec is new_spec
            assert driver.context.instance is new_spec[iid]

    def test_prepare_without_carry_over_builds_every_driver(self, counted):
        engine, system, created = counted
        spec = system.spec
        rebuilt = engine.prepare(spec)
        services = [i.id for i in spec if not i.is_machine()]
        assert created == services
        assert list(rebuilt.drivers) == list(spec.ids())
        assert all(
            rebuilt.drivers[iid] is not system.drivers[iid]
            for iid in spec.ids()
        )


class TestMovedInstances:
    """Regression: a changed ``inside`` link with identical key and
    config used to diff as *unchanged*, leaving the service running on
    the old machine forever."""

    def test_diff_classifies_relocation_as_moved(self):
        old = configure(two_host_partial("hostA", "hostB"))
        new = configure(
            two_host_partial("hostA", "hostB", db_host="hostB")
        )
        diff = diff_specs(old, new)
        assert diff.moved == ["db"]
        assert diff.upgraded == []
        assert diff.reconfigured == []
        assert "db" not in diff.unchanged
        assert diff.to_payload()["moved"] == ["db"]

    def running_hosts(self, infrastructure):
        return {
            machine.hostname: [
                p.name
                for p in machine.processes()
                if p.state.value == "running"
            ]
            for machine in infrastructure.network.machines()
        }

    def test_delta_relocates_the_process(self):
        engine, infrastructure, system, _ = build(
            two_host_partial("hostA", "hostB")
        )
        new_spec = configure(
            two_host_partial("hostA", "hostB", db_host="hostB")
        )
        delta = plan_delta(system, new_spec)
        upgrades = [
            step
            for step in delta.plan.steps
            if step.op is RepairOp.UPGRADE
        ]
        assert [step.instance_id for step in upgrades] == ["db"]
        assert "moved" in upgrades[0].reason
        result = execute_delta(engine, system, delta)
        assert result.system.is_deployed()
        running = self.running_hosts(infrastructure)
        assert running["alpha"] == []
        assert running["beta"] == ["mysqld-db"]

    def test_in_place_upgrade_relocates_the_process(self):
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        config = ConfigurationEngine(registry, verify_registry=False)
        spec = config.configure(two_host_partial("hostA", "hostB")).spec
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        system = engine.deploy(spec)
        upgrader = UpgradeEngine(config, engine)
        result = upgrader.upgrade(
            system,
            two_host_partial("hostA", "hostB", db_host="hostB"),
            strategy="delta",
        )
        assert result.succeeded, result.error
        assert result.diff.moved == ["db"]
        running = self.running_hosts(infrastructure)
        assert running["alpha"] == []
        assert running["beta"] == ["mysqld-db"]


class TestRollbackGhostHosts:
    """Regression: machines first registered by a failed new-spec
    deploy survived rollback as ghost hosts on the network."""

    #: The rollback redeploy restarts services, so pids and the host
    #: activity log legitimately advance; everything else must restore
    #: to the bit.
    LOG = "/var/log/engage.log"

    def infrastructure_snapshot(self, infrastructure):
        result = {}
        for machine in infrastructure.network.machines():
            snap = machine.snapshot()
            fs = snap["fs"]
            fs["files"] = {
                path: text
                for path, text in fs["files"].items()
                if path != self.LOG
            }
            result[machine.hostname] = {
                "fs": fs,
                "processes": sorted(
                    (name, command, ports, state.value)
                    for name, command, ports, state in snap[
                        "processes"
                    ].values()
                    if state.value == "running"
                ),
                "packages": infrastructure.package_manager(
                    machine
                ).snapshot(),
            }
        return result

    @pytest.mark.parametrize("strategy", ["replace", "delta"])
    def test_failed_grow_upgrade_leaves_no_ghosts(self, strategy):
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        config = ConfigurationEngine(registry, verify_registry=False)
        spec = config.configure(one_host_partial("hostA")).spec
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        system = engine.deploy(spec)
        before = self.infrastructure_snapshot(infrastructure)

        # The new goal adds hostB and a database on it; the database
        # install always fails, so hostB exists only because the failed
        # upgrade registered it.
        new_partial = two_host_partial("hostA", "hostB")
        new_partial.add(
            PartialInstance(
                "db2",
                as_key("MySQL 5.1"),
                inside_id="hostB",
                config={"database_name": "app2", "port": 13307},
            )
        )
        FaultyWorld(
            infrastructure,
            FaultPlan().on("driver:db2:install", times=100),
        )
        upgrader = UpgradeEngine(config, engine)
        result = upgrader.upgrade(system, new_partial, strategy=strategy)
        assert not result.succeeded
        assert result.rolled_back
        assert result.system.is_deployed()
        assert not infrastructure.network.has_machine("beta")
        assert self.infrastructure_snapshot(infrastructure) == before


class TestShrinkRetiresTheHost:
    """Regression: a successful ``"replace"`` upgrade that dropped a
    machine left its host registered on the network; ``"delta"``
    retired it."""

    @pytest.mark.parametrize("strategy", ["replace", "delta"])
    def test_dropped_machine_leaves_the_network(self, strategy):
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        config = ConfigurationEngine(registry, verify_registry=False)
        spec = config.configure(two_host_partial("hostA", "hostB")).spec
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        system = engine.deploy(spec)
        assert infrastructure.network.has_machine("beta")
        result = UpgradeEngine(config, engine).upgrade(
            system, one_host_partial("hostA"), strategy=strategy
        )
        assert result.succeeded, result.error
        assert result.system.is_deployed()
        assert result.system.journal is not None
        assert sorted(
            machine.hostname
            for machine in infrastructure.network.machines()
        ) == ["alpha"]


class TestErrorReporting:
    """Regression: ``UpgradeResult.error`` was ``str(exc)`` -- empty for
    bare exceptions and typeless either way."""

    def test_describe_exception_never_empty(self):
        assert _describe_exception(RuntimeError()) == "RuntimeError"
        assert (
            _describe_exception(ValueError("boom")) == "ValueError: boom"
        )

    def test_failed_upgrade_names_the_exception_class(self):
        registry = standard_registry()
        infrastructure = standard_infrastructure()
        config = ConfigurationEngine(registry, verify_registry=False)
        spec = config.configure(one_host_partial("hostA")).spec
        engine = DeploymentEngine(
            registry, infrastructure, standard_drivers()
        )
        system = engine.deploy(spec)
        # One fault: it fails the upgrade's deploy pass and is spent by
        # the time the rollback redeploys the old system.
        FaultyWorld(
            infrastructure,
            FaultPlan().on("driver:db:start", times=1),
        )
        new = one_host_partial("hostA")
        new["db"].config["port"] = 14306
        result = UpgradeEngine(config, engine).upgrade(system, new)
        assert not result.succeeded
        assert result.error
        assert result.exception is not None
        assert result.error.startswith(type(result.exception).__name__)
        assert type(result.exception).__name__ in result.error


class TestEquivalenceCorpus:
    """delta-plan -> execute must land where a fresh deploy lands."""

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_delta_matches_fresh_deploy(self, mutation):
        engine, infrastructure, system, _ = build(fleet_partial(TOPOLOGY))
        new_partial = MUTATIONS[mutation](TOPOLOGY)
        new_spec = configure(new_partial)
        delta = plan_delta(system, new_spec)
        result = execute_delta(engine, system, delta)
        assert result.system.is_deployed()
        assert result.journal.is_complete()
        assert result.journal.transition is None
        assert live_fingerprint(
            result.system, infrastructure
        ) == fresh_fingerprint(new_partial)

    @pytest.mark.parametrize(
        "seed,mutations",
        [
            (1, ("grow", "reconfigure")),
            (2, ("move", "grow")),
            (3, ("shrink", "reconfigure")),
        ],
    )
    def test_chained_deltas_match_fresh_deploy(self, seed, mutations):
        """Several transitions in sequence stay equivalent; the seed
        varies which replica each mutation touches."""
        engine, infrastructure, system, _ = build(fleet_partial(TOPOLOGY))
        topology = TOPOLOGY
        new_partial = None
        for step, name in enumerate(mutations):
            kwargs = {}
            if name == "reconfigure":
                kwargs["index"] = (seed + step) % topology.replicas
            if name == "move":
                kwargs["index"] = (seed + step) % topology.replicas
            new_partial = MUTATIONS[name](topology, **kwargs)
            new_spec = configure(new_partial)
            result = execute_delta(
                engine, system, plan_delta(system, new_spec)
            )
            system = result.system
            if name == "grow":
                topology = FleetTopology(
                    replicas=topology.replicas + 2,
                    machines=topology.machines,
                    stacks=topology.stacks,
                )
            if name == "shrink":
                topology = FleetTopology(
                    replicas=topology.replicas - 2,
                    machines=topology.machines,
                    stacks=topology.stacks,
                )
        assert live_fingerprint(
            system, infrastructure
        ) == fresh_fingerprint(new_partial)

    def test_identical_runs_are_bit_identical(self):
        """Same world, same goal, twice: the persisted world and state
        files must match byte for byte."""
        def run():
            engine, infrastructure, system, _ = build(
                fleet_partial(TOPOLOGY)
            )
            new_spec = configure(grow(TOPOLOGY))
            result = execute_delta(
                engine, system, plan_delta(system, new_spec)
            )
            return (
                save_world(infrastructure),
                save_system(result.system, result.journal),
            )

        assert run() == run()

    def test_crashed_unchanged_service_is_restarted(self):
        """The live drift report folds into the plan: an unchanged
        service found crashed is bounced as part of the transition."""
        engine, infrastructure, system, _ = build(fleet_partial(TOPOLOGY))
        cache = next(
            iid for iid in sorted(system.drivers)
            if iid.startswith("cache")
        )
        system.drivers[cache].process.fail()
        new_spec = configure(grow(TOPOLOGY))
        delta = plan_delta(system, new_spec)
        assert cache in delta.restart
        restart_steps = {
            step.instance_id
            for step in delta.plan.steps
            if step.op is RepairOp.RESTART
        }
        assert cache in restart_steps
        result = execute_delta(engine, system, delta)
        assert result.system.is_deployed()
        assert result.system.state_of(cache) == "active"

    def test_restart_only_delta_reports_what_it_cost(self):
        """A delta to the same goal with one crashed service is a lone
        restart, and its report totals say what that took."""
        engine, infrastructure, system, spec = build(fleet_partial(TOPOLOGY))
        system.drivers["cache000"].process.fail()
        delta = plan_delta(system, spec)
        assert delta.restart == ["cache000"] and len(delta) == 1
        before = infrastructure.clock.now
        report = execute_delta(engine, system, delta).report
        assert [a.action for a in report.actions] == ["restart"]
        elapsed = infrastructure.clock.now - before
        assert elapsed > 0
        assert report.sequential_seconds == pytest.approx(
            sum(a.duration for a in report.actions)
        )
        assert report.sequential_seconds == pytest.approx(elapsed)
        assert report.makespan_seconds == pytest.approx(elapsed)


class TestFaultedTransitions:
    """A fault mid-transition leaves a resumable journal; ``resume``
    finishes the transition and the equivalence still holds."""

    def test_down_phase_fault_resumes_through_state_file(self):
        engine, infrastructure, system, spec = build(
            fleet_partial(TOPOLOGY)
        )
        new_partial = shrink(TOPOLOGY)
        new_spec = configure(new_partial)
        # web004 belongs to a removed replica: its stop is down-phase
        # work, and the single fault makes that stop fail fatally.
        FaultyWorld(
            infrastructure, FaultPlan().on("driver:web004:stop", times=1)
        )
        with pytest.raises(DeploymentFailure) as excinfo:
            execute_delta(engine, system, plan_delta(system, new_spec))
        failure = excinfo.value
        assert failure.journal is not None
        transition = failure.journal.transition
        assert transition is not None
        assert "web004" in transition.stop
        # The failure bundle speaks the *new* spec's language.
        assert set(failure.system.spec.ids()) == set(new_spec.ids())

        # Round-trip through the persisted state file, then resume.
        text = save_system(failure.system, failure.journal)
        registry = standard_registry()
        drivers = standard_drivers()
        journal = load_system(
            registry, infrastructure, drivers, text
        ).journal
        assert journal.transition is not None
        engine2 = DeploymentEngine(registry, infrastructure, drivers)
        resumed = engine2.resume(journal)
        assert resumed.is_deployed()
        assert journal.is_complete()
        assert journal.transition is None
        assert live_fingerprint(
            resumed, infrastructure
        ) == fresh_fingerprint(new_partial)

    def test_transition_record_round_trips_as_data(self):
        """Mid-down-phase the journal nests the old spec as a payload:
        through JSON and back it is the same spec, and the failure's
        system records into the failure's journal."""
        from repro.dsl import full_to_json

        engine, infrastructure, system, old_spec = build(
            fleet_partial(TOPOLOGY)
        )
        FaultyWorld(
            infrastructure, FaultPlan().on("driver:web004:stop", times=1)
        )
        with pytest.raises(DeploymentFailure) as excinfo:
            execute_delta(
                engine, system, plan_delta(system, configure(shrink(TOPOLOGY)))
            )
        failure = excinfo.value
        assert failure.system.journal is failure.journal
        transition = failure.journal.transition
        restored = SpecTransition.from_payload(
            json.loads(json.dumps(transition.to_payload()))
        )
        assert full_to_json(restored.from_spec) == full_to_json(old_spec)
        assert (restored.pending, restored.stop, restored.retire) == (
            transition.pending, transition.stop, transition.retire
        )
        nested = json.loads(save_system(failure.system))["journal"]
        assert nested["transition"]["from_spec"] == json.loads(
            full_to_json(old_spec)
        )

    def test_up_phase_fault_resumes(self):
        engine, infrastructure, system, _ = build(fleet_partial(TOPOLOGY))
        new_partial = grow(TOPOLOGY)
        new_spec = configure(new_partial)
        FaultyWorld(
            infrastructure,
            FaultPlan().on("driver:web006:install", times=1),
        )
        with pytest.raises(DeploymentFailure) as excinfo:
            execute_delta(engine, system, plan_delta(system, new_spec))
        failure = excinfo.value
        # A pure grow has no down phase, so no transition record.
        assert failure.journal.transition is None
        resumed = engine.resume(failure.journal)
        assert resumed.is_deployed()
        assert live_fingerprint(
            resumed, infrastructure
        ) == fresh_fingerprint(new_partial)

    def test_mixed_transition_fault_then_resume_is_equivalent(self):
        """Shrink + reconfigure with a down-phase fault: resume must
        finish the old spec's teardown *and* the new spec's rollout."""
        engine, infrastructure, system, _ = build(fleet_partial(TOPOLOGY))
        entries = fleet_spec_entries(
            FleetTopology(
                replicas=TOPOLOGY.replicas - 2,
                machines=TOPOLOGY.machines,
                stacks=TOPOLOGY.stacks,
            )
        )
        for entry in entries:
            if entry.id == "cache000":
                entry.config["port"] += 1000
        new_partial = PartialInstallSpec(entries)
        new_spec = configure(new_partial)
        FaultyWorld(
            infrastructure,
            FaultPlan().on("driver:broker005:stop", times=1),
        )
        with pytest.raises(DeploymentFailure) as excinfo:
            execute_delta(engine, system, plan_delta(system, new_spec))
        journal = excinfo.value.journal
        assert journal.transition is not None
        resumed = engine.resume(journal)
        assert resumed.is_deployed()
        assert journal.transition is None
        fresh = fresh_fingerprint(new_partial)
        assert live_fingerprint(resumed, infrastructure) == fresh


    def test_restart_fault_carries_the_transition_journal(self):
        """A restart that fails for good is a :class:`DeploymentFailure`
        like any other phase's -- it used to escape as a bare
        ``DeploymentError``, stranding the journal and the new system."""
        engine, infrastructure, system, _ = build(fleet_partial(TOPOLOGY))
        new_partial = shrink(TOPOLOGY)
        new_spec = configure(new_partial)
        # cache000 survives the shrink unchanged, outside the stop
        # closure: the plan merely bounces its crashed process.
        system.drivers["cache000"].process.fail()
        delta = plan_delta(system, new_spec)
        assert delta.restart == ["cache000"]
        FaultyWorld(
            infrastructure,
            FaultPlan().on("driver:cache000:restart", times=1),
        )
        with pytest.raises(DeploymentFailure) as excinfo:
            execute_delta(engine, system, delta)
        failure = excinfo.value
        assert failure.failed == {"cache000"}
        assert failure.journal.spec is new_spec
        assert failure.journal.transition is None
        assert set(failure.system.spec.ids()) == set(new_spec.ids())
        assert failure.system.is_deployed()
        assert not failure.system.drivers["cache000"].process.is_running()

        # The failure bundle persists, and one reconcile round finishes
        # the job: the fault is spent, the restart goes through.
        text = save_system(failure.system, failure.journal)
        load_system(
            standard_registry(), infrastructure, standard_drivers(), text
        )
        result = ReconcileController(engine, failure.system).run(rounds=1)
        assert result.converged
        assert result.rounds[0].plan_by_op == {"restart": 1}
        assert failure.system.drivers["cache000"].process.is_running()
        assert live_fingerprint(
            failure.system, infrastructure
        ) == fresh_fingerprint(new_partial)


class TestTransitionJournal:
    def test_transition_survives_the_state_file(self):
        old_spec = configure(two_host_partial("hostA", "hostB"))
        new_spec = configure(one_host_partial("hostA"))
        journal = DeploymentJournal(new_spec)
        journal.begin_transition(
            SpecTransition(
                from_spec=old_spec,
                pending=["db", "hostB"],
                stop=["db"],
                retire=["beta"],
            )
        )
        payload = journal.to_payload()
        loaded = DeploymentJournal.from_payload(new_spec, payload)
        assert loaded.transition is not None
        assert loaded.transition.pending == ["db", "hostB"]
        assert loaded.transition.stop == ["db"]
        assert loaded.transition.retire == ["beta"]
        assert set(loaded.transition.from_spec.ids()) == set(
            old_spec.ids()
        )

    def test_one_transition_at_a_time(self):
        spec = configure(one_host_partial("hostA"))
        journal = DeploymentJournal(spec)
        transition = SpecTransition(
            from_spec=spec, pending=[], stop=[], retire=[]
        )
        journal.begin_transition(transition)
        with pytest.raises(RuntimeEngageError, match="transition"):
            journal.begin_transition(transition)

    def test_finish_purges_old_spec_ids(self):
        old_spec = configure(two_host_partial("hostA", "hostB"))
        new_spec = configure(one_host_partial("hostA"))
        journal = DeploymentJournal(new_spec)
        journal.begin_transition(
            SpecTransition(
                from_spec=old_spec,
                pending=["hostB"],
                stop=[],
                retire=["beta"],
            )
        )
        from repro.runtime import JournalEntry

        journal.record(
            JournalEntry("hostB", "observe:adopted", "active", "active", 0.0)
        )
        journal.finish_transition()
        assert journal.transition is None
        assert all(
            entry.instance_id in set(new_spec.ids())
            for entry in journal.entries
        )
        payload = journal.to_payload()
        assert "transition" not in payload


# --------------------------------------------------------------------
# CLI: `engage-sim plan` and `deploy --delta` / `deploy --resume`.
# --------------------------------------------------------------------

CACHE_DSL = """
resource "MiniCache" 1.0 driver "service" {
  inside "Server" { host -> host }
  input host: { hostname: hostname, ip_address: string,
                os_user_name: string }
  config port: tcp_port = 7070
  output kv: { host: hostname, port: tcp_port } =
    { host = input.host.hostname, port = config.port }
}
"""


def run_cli(argv):
    import io

    from repro.cli import main

    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def cli_spec_json(caches):
    return json.dumps(
        [{"id": "box", "key": "Ubuntu-Linux 10.04",
          "config_port": {"hostname": "day2"}}]
        + [
            {"id": name, "key": "MiniCache 1.0",
             "inside": {"id": "box"}, "config_port": {"port": port}}
            for name, port in caches
        ]
    )


@pytest.fixture
def cli_bundle(tmp_path):
    dsl = tmp_path / "stack.engage"
    dsl.write_text(CACHE_DSL)
    spec = tmp_path / "spec.json"
    spec.write_text(cli_spec_json([("cache", 7070)]))
    bundle_path = tmp_path / "bundle.json"
    code, _ = run_cli(
        ["deploy", "--types", str(dsl), str(spec), "--save",
         str(bundle_path)]
    )
    assert code == 0
    return tmp_path, str(bundle_path)


class TestCli:
    def test_plan_is_a_dry_run(self, cli_bundle):
        directory, bundle_path = cli_bundle
        goal = directory / "goal.json"
        goal.write_text(
            cli_spec_json([("cache", 7070), ("cache2", 7071)])
        )
        code, output = run_cli(["plan", bundle_path, str(goal)])
        assert code == 0
        payload = json.loads(output)
        assert payload["noop"] is False
        assert payload["diff"]["added"] == ["cache2"]
        assert payload["bundle"] == bundle_path
        assert [
            step["instance_id"] for step in payload["plan"]["steps"]
        ] == ["cache2"]
        # Dry: the deployed system is untouched.
        code, output = run_cli(["status", bundle_path])
        assert code == 0
        assert "cache2" not in output

    def test_deploy_delta_grows_the_bundle(self, cli_bundle):
        directory, bundle_path = cli_bundle
        goal = directory / "goal.json"
        goal.write_text(
            cli_spec_json([("cache", 7070), ("cache2", 7071)])
        )
        code, output = run_cli(
            ["deploy", "--delta", bundle_path, str(goal)]
        )
        assert code == 0, output
        assert "delta plan: 1 step(s)" in output
        code, output = run_cli(["status", bundle_path])
        assert code == 0
        assert "cache2" in output

    def test_deploy_delta_requires_a_goal(self, cli_bundle):
        _, bundle_path = cli_bundle
        code, output = run_cli(["deploy", "--delta", bundle_path])
        assert code == 2
        assert "partial spec" in output

    def test_faulted_delta_resumes_from_the_saved_bundle(
        self, cli_bundle
    ):
        directory, bundle_path = cli_bundle
        goal = directory / "goal.json"
        goal.write_text(cli_spec_json([("cache2", 7071)]))
        # Full-rate chaos fails the transition on its first action --
        # the stop of the replaced cache, i.e. mid down phase.
        code, output = run_cli(
            ["deploy", "--delta", bundle_path, str(goal),
             "--chaos-rate", "1.0", "--chaos-seed", "3"]
        )
        assert code == 1
        assert "resumable bundle saved" in output
        # The clean resume finishes the transition.
        code, output = run_cli(["deploy", "--resume", bundle_path])
        assert code == 0, output
        code, output = run_cli(["status", bundle_path])
        assert code == 0
        assert "cache2" in output
        assert "cache " not in output
