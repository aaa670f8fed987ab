"""Chaos equivalence for the bus control plane.

The one theorem this file is about: **a deployment driven over the
message bus ends indistinguishable from an unfaulted one** -- same
world (packages, processes, files), same driver states, same journal
chains -- no matter what the chaos schedule did: network partitions
between master and slaves, a slave crash mid-deploy with later rejoin,
or a master failover that re-adopts the control log.  "Indistinguish-
able" is :func:`repro.runtime.coordinator.deployment_fingerprint`:
bit-identical modulo pids and timestamps.

Tier-1 runs a smoke slice of every scenario; the full seed corpus
(100 failover seeds plus partition/crash sweeps, crossed with ``jobs``)
carries the ``fuzz`` mark and runs in the CI ``bus-chaos`` job.
"""

import pytest

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.jsontext import plain
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import (
    BusChaos,
    BusCoordinator,
    DeploymentEngine,
    DeploymentJournal,
    ReconcileController,
    canonical_journal,
    deployment_fingerprint,
    execute_delta,
    plan_delta,
    provision_partial_spec,
    split_spec,
    world_fingerprint,
)
from repro.runtime.coordinator import AGENT_PACKAGE, install_agent
from repro.sim.faults import LinkFaultPlan, MachineChurn

FAILOVER_SEEDS = range(100)
PARTITION_SEEDS = range(50)
CRASH_SEEDS = range(50)

SMOKE_FAILOVER = range(6)
SMOKE_PARTITION = range(4)
SMOKE_CRASH = range(4)


@pytest.fixture(scope="module")
def chaos_registry():
    return standard_registry()


@pytest.fixture(scope="module")
def two_node(chaos_registry):
    """A two-wave spec (db wave, then app wave), configured once; each
    run deploys it into a fresh infrastructure."""
    infrastructure = standard_infrastructure()
    partial = PartialInstallSpec(
        [
            PartialInstance("appnode", as_key("Ubuntu-Linux 10.04"),
                            config={"hostname": "app1"}),
            PartialInstance("dbnode", as_key("Ubuntu-Linux 10.04"),
                            config={"hostname": "db1"}),
            PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                            inside_id="appnode"),
            PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                            inside_id="tomcat"),
            PartialInstance("db", as_key("MySQL 5.1"), inside_id="dbnode"),
        ]
    )
    partial = provision_partial_spec(
        chaos_registry, partial, infrastructure
    )
    return ConfigurationEngine(chaos_registry).configure(partial).spec


def bus_deploy(registry, spec, *, chaos=None, faults=None, jobs=1):
    infrastructure = standard_infrastructure()
    coordinator = BusCoordinator(
        registry, infrastructure, standard_drivers(),
        jobs=jobs, link_faults=faults,
    )
    deployment = coordinator.deploy(spec, chaos=chaos)
    return infrastructure, deployment


@pytest.fixture(scope="module")
def baseline(chaos_registry, two_node):
    """Fingerprint of the unfaulted bus deployment -- what every chaos
    run must converge to."""
    infrastructure, deployment = bus_deploy(chaos_registry, two_node)
    assert deployment.is_deployed()
    return deployment_fingerprint(infrastructure, deployment)


def jobs_for(seed):
    """Cross the corpus with intra-machine parallelism."""
    return 1 if seed % 2 == 0 else 2


def partition_chaos(seed):
    return BusChaos(
        partition_at=1.0 + (seed % 7) * 9.0,
        partition_for=20.0 + (seed % 5) * 35.0,
        partition_slaves=None if seed % 3 else ["dbnode"],
    )


def crash_chaos(seed):
    return BusChaos(
        crash_machine="dbnode" if seed % 2 == 0 else "appnode",
        crash_after_actions=1 + seed % 5,
        crash_down_for=10.0 + (seed % 4) * 20.0,
    )


def failover_chaos(seed):
    return BusChaos(failover_at=2.0 + (seed % 20) * 12.0)


def link_faults(seed):
    """Every third seed also runs under link chaos, so the scenarios
    compose with drops/duplicates/reorders."""
    if seed % 3 != 0:
        return None
    return LinkFaultPlan(seed, drop=0.1, duplicate=0.1, jitter=1.0)


def assert_converged(registry, spec, baseline_fp, *, chaos, seed):
    infrastructure, deployment = bus_deploy(
        registry, spec, chaos=chaos,
        faults=link_faults(seed), jobs=jobs_for(seed),
    )
    assert deployment.is_deployed(), f"seed {seed}"
    assert (
        deployment_fingerprint(infrastructure, deployment) == baseline_fp
    ), f"seed {seed} diverged from the unfaulted run"
    # The fleet journal must survive the strict round-trip validation
    # (chained per-instance entries, disjoint partitions): double
    # applies would break the chains.
    journal = deployment.journal
    DeploymentJournal.from_payload(
        deployment.spec, plain(journal.to_document())
    )
    assert journal.completed == set(journal.spec.ids())
    return deployment


def direct_deploy(registry, infrastructure, spec):
    """The reference the bus is measured against: no bus at all, one
    in-process call on the whole spec -- plus the agent package, which
    is the one thing a slave puts on a host that the engine does not."""
    engine = DeploymentEngine(registry, infrastructure, standard_drivers())
    system = engine.deploy(spec)
    install_agent(engine, spec, [])
    return system


class TestBusMatchesDirect:
    """The bus control plane is a refactor, not a rewrite: its effect
    equals that of calling each slave engine directly."""

    def test_same_fingerprint_as_direct(
        self, chaos_registry, two_node, baseline
    ):
        infrastructure = standard_infrastructure()
        deployment = direct_deploy(chaos_registry, infrastructure, two_node)
        assert deployment.is_deployed()
        assert (
            deployment_fingerprint(infrastructure, deployment) == baseline
        )

    def test_jobs_invariant(self, chaos_registry, two_node, baseline):
        infrastructure, deployment = bus_deploy(
            chaos_registry, two_node, jobs=2
        )
        assert (
            deployment_fingerprint(infrastructure, deployment) == baseline
        )

    def test_exactly_one_execution_per_machine(
        self, chaos_registry, two_node
    ):
        _, deployment = bus_deploy(chaos_registry, two_node)
        report = deployment.report
        assert report.work_executions == len(split_spec(two_node))
        assert report.work_resumes == 0
        assert report.retransmits == 0
        assert report.masters == ["master"]


#: machines -> (the fleet deployed, the fleet it grows into on day 2):
#: the three fleets ``tests/test_bus_schedule.py`` pins schedules on.
DAY_TWO_FLEETS = {
    4: (FleetTopology(replicas=12, machines=4),
        FleetTopology(replicas=14, machines=4)),
    12: (FleetTopology(replicas=40, machines=12),
         FleetTopology(replicas=43, machines=12)),
    32: (FleetTopology(replicas=104, machines=32),
         FleetTopology(replicas=108, machines=32)),
}


def installed_packages(infrastructure):
    return {
        machine.hostname: {
            package.name
            for package in infrastructure.package_manager(machine).installed()
        }
        for machine in infrastructure.network.machines()
    }


def assert_direct_call_is_a_fault_free_bus(registry, machines):
    """ROADMAP aim 2's "direct call = fault-free bus", executable: a
    clean bus deploy and ``DeploymentEngine.deploy`` produce the same
    system, and the same day 2 runs on either with no conversion."""
    topology, grown = DAY_TWO_FLEETS[machines]
    configure = ConfigurationEngine(registry, partition=True).configure
    spec = configure(fleet_partial(topology)).spec
    new_spec = configure(fleet_partial(grown)).spec

    bus_world = standard_infrastructure()
    coordinator = BusCoordinator(registry, bus_world, standard_drivers())
    over_bus = coordinator.deploy(spec)

    direct_world = standard_infrastructure()
    engine = DeploymentEngine(registry, direct_world, standard_drivers())
    direct = engine.deploy(spec)

    assert over_bus.is_deployed() and over_bus.spec is spec
    assert over_bus.states() == direct.states()
    assert canonical_journal(over_bus.journal) == \
        canonical_journal(direct.journal)
    # The worlds differ by exactly the agent package on every host...
    on_bus, on_direct = (
        installed_packages(world) for world in (bus_world, direct_world)
    )
    assert on_bus.keys() == on_direct.keys() and len(on_bus) == machines
    for hostname, packages in on_bus.items():
        assert packages - on_direct[hostname] == {AGENT_PACKAGE[0]}
        assert on_direct[hostname] <= packages
    # ...and by nothing else.
    install_agent(engine, spec, [])
    assert world_fingerprint(bus_world) == world_fingerprint(direct_world)

    fingerprints = []
    for world, runner, system in (
        (bus_world, coordinator.engine, over_bus),
        (direct_world, engine, direct),
    ):
        delta = plan_delta(system, new_spec)
        assert 0 < len(delta) < len(new_spec)
        system = execute_delta(runner, system, delta).system
        result = ReconcileController(runner, system).run(
            rounds=2, churn=MachineChurn(system, seed=machines, rate=0.2),
        )
        assert result.converged and system.is_deployed()
        fingerprints.append(deployment_fingerprint(world, system))
    assert fingerprints[0] == fingerprints[1]


class TestDirectCallIsAFaultFreeBus:
    @pytest.mark.parametrize("machines", [4, 12])
    def test_same_system_and_same_day_two(self, chaos_registry, machines):
        assert_direct_call_is_a_fault_free_bus(chaos_registry, machines)

    @pytest.mark.fuzz
    def test_same_system_and_same_day_two_32_machines(self, chaos_registry):
        assert_direct_call_is_a_fault_free_bus(chaos_registry, 32)


class TestPartitionSmoke:
    @pytest.mark.parametrize("seed", SMOKE_PARTITION)
    def test_partition_converges(
        self, chaos_registry, two_node, baseline, seed
    ):
        deployment = assert_converged(
            chaos_registry, two_node, baseline,
            chaos=partition_chaos(seed), seed=seed,
        )
        assert deployment.report.partition is not None

    def test_partition_stalls_then_resumes_without_double_apply(
        self, chaos_registry, two_node, baseline
    ):
        """A long full partition: work for the second wave cannot cross
        until heal, the master retransmits into the void, and on heal
        the dedup keys make every late duplicate a cache hit."""
        chaos = BusChaos(partition_at=1.0, partition_for=300.0)
        infrastructure, deployment = bus_deploy(
            chaos_registry, two_node, chaos=chaos
        )
        report = deployment.report
        assert report.bus_stats["partition_losses"] > 0
        assert report.retransmits > 0
        # Exactly-once effect: each machine's deploy ran once, no matter
        # how many work copies eventually arrived.
        assert report.work_executions == len(split_spec(two_node))
        assert report.work_resumes == 0
        assert (
            deployment_fingerprint(infrastructure, deployment) == baseline
        )
        # Recovery costs wall-clock: the makespan covers the partition.
        assert report.parallel_makespan_seconds >= 300.0

    def test_partitioned_slave_suspected(self, chaos_registry, two_node):
        chaos = BusChaos(partition_at=1.0, partition_for=120.0)
        _, deployment = bus_deploy(chaos_registry, two_node, chaos=chaos)
        suspected = {s["machine"] for s in deployment.report.suspects}
        assert "dbnode" in suspected


class TestSlaveCrashSmoke:
    @pytest.mark.parametrize("seed", SMOKE_CRASH)
    def test_crash_rejoin_converges(
        self, chaos_registry, two_node, baseline, seed
    ):
        deployment = assert_converged(
            chaos_registry, two_node, baseline,
            chaos=crash_chaos(seed), seed=seed,
        )
        report = deployment.report
        assert report.crashes == 1
        assert report.work_resumes >= 1
        assert report.rejoins

    def test_master_redrives_only_unacked_frontier(
        self, chaos_registry, two_node, baseline
    ):
        """The crashed slave resumes from its write-ahead journal: the
        resumed pass re-drives only what the journal's frontier lacks,
        and the other slave's completed work is never re-sent as new
        executions."""
        chaos = BusChaos(
            crash_machine="dbnode", crash_after_actions=2,
            crash_down_for=30.0,
        )
        infrastructure, deployment = bus_deploy(
            chaos_registry, two_node, chaos=chaos
        )
        report = deployment.report
        # dbnode: one aborted execution + one resume; appnode: one.
        assert report.work_executions == 2
        assert report.work_resumes == 1
        journal = deployment.journal
        # The resumed journal kept the pre-crash entries: entry chains
        # validate and nothing was journalled twice.
        DeploymentJournal.from_payload(
            journal.spec, plain(journal.to_document())
        )
        assert (
            deployment_fingerprint(infrastructure, deployment) == baseline
        )


class TestMasterFailoverSmoke:
    @pytest.mark.parametrize("seed", SMOKE_FAILOVER)
    def test_failover_converges(
        self, chaos_registry, two_node, baseline, seed
    ):
        deployment = assert_converged(
            chaos_registry, two_node, baseline,
            chaos=failover_chaos(seed), seed=seed,
        )
        assert deployment.report.masters[-1] == "master-2"

    def test_standby_adopts_frontier_without_rerunning(
        self, chaos_registry, two_node, baseline
    ):
        """Failover lands mid-deploy: the standby clones the control
        log, re-sends only unacked work, and completed actions never
        run again -- each machine's deploy executed exactly once."""
        chaos = BusChaos(failover_at=30.0)
        infrastructure, deployment = bus_deploy(
            chaos_registry, two_node, chaos=chaos
        )
        report = deployment.report
        assert report.masters == ["master", "master-2"]
        assert report.work_executions == len(split_spec(two_node))
        assert report.work_resumes == 0
        assert report.crashes == 0
        assert (
            deployment_fingerprint(infrastructure, deployment) == baseline
        )

    def test_replay_is_byte_identical(self, chaos_registry, two_node):
        """Same seed, same chaos: the delivery logs match byte for
        byte (the determinism the corpus rests on)."""
        def run():
            coordinator = BusCoordinator(
                chaos_registry, standard_infrastructure(),
                standard_drivers(),
                link_faults=LinkFaultPlan(3, drop=0.1, duplicate=0.1,
                                          jitter=1.0),
            )
            coordinator.deploy(two_node, chaos=failover_chaos(3))
            return coordinator.bus.delivery_log()

        assert run() == run()


@pytest.mark.fuzz
class TestChaosCorpus:
    """The full seed x jobs corpus (CI ``bus-chaos`` job)."""

    @pytest.mark.parametrize("seed", FAILOVER_SEEDS)
    def test_failover(self, chaos_registry, two_node, baseline, seed):
        assert_converged(
            chaos_registry, two_node, baseline,
            chaos=failover_chaos(seed), seed=seed,
        )

    @pytest.mark.parametrize("seed", PARTITION_SEEDS)
    def test_partition(self, chaos_registry, two_node, baseline, seed):
        assert_converged(
            chaos_registry, two_node, baseline,
            chaos=partition_chaos(seed), seed=seed,
        )

    @pytest.mark.parametrize("seed", CRASH_SEEDS)
    def test_crash(self, chaos_registry, two_node, baseline, seed):
        assert_converged(
            chaos_registry, two_node, baseline,
            chaos=crash_chaos(seed), seed=seed,
        )

    @pytest.mark.parametrize("seed", range(0, 40, 5))
    def test_compound_crash_during_partition(
        self, chaos_registry, two_node, baseline, seed
    ):
        """Crash and partition in the same run still converge."""
        chaos = crash_chaos(seed)
        chaos.partition_at = 2.0 + (seed % 5) * 10.0
        chaos.partition_for = 40.0
        assert_converged(
            chaos_registry, two_node, baseline, chaos=chaos, seed=seed,
        )
