"""Multi-host coordination: per-node specs, waves, master/slave."""

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import (
    DeploymentError,
    RuntimeEngageError,
    SimulationError,
)
from repro.config import ConfigurationEngine
from repro.runtime import (
    BusChaos,
    BusCoordinator,
    MasterNode,
    SlaveAgent,
    machine_waves,
    provision_partial_spec,
    split_spec,
)
from repro.runtime import bus as busmod
from repro.runtime import coordinator as coordinator_module
from repro.runtime.bus import MessageBus
from repro.runtime.coordinator import work_key
from repro.sim.clock import SimClock


@pytest.fixture
def two_node_spec(registry, infrastructure):
    """App node (tomcat + openmrs) with MySQL on a dedicated db node."""
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
    partial = provision_partial_spec(registry, partial, infrastructure)
    return ConfigurationEngine(registry).configure(partial).spec


class TestSplitSpec:
    def test_instances_grouped_by_machine(self, two_node_spec):
        per_node = split_spec(two_node_spec)
        assert set(per_node) == {"appnode", "dbnode"}
        app_ids = set(per_node["appnode"].ids())
        assert {"appnode", "tomcat", "openmrs"} <= app_ids
        assert "db" in per_node["dbnode"].ids()

    def test_cross_machine_links_dropped(self, two_node_spec):
        per_node = split_spec(two_node_spec)
        openmrs = per_node["appnode"]["openmrs"]
        assert all(
            link.target.id in per_node["appnode"]
            for link in openmrs.links()
        )

    def test_local_links_kept(self, two_node_spec):
        per_node = split_spec(two_node_spec)
        openmrs = per_node["appnode"]["openmrs"]
        assert openmrs.inside.target.id == "tomcat"

    def test_port_values_survive_split(self, two_node_spec):
        per_node = split_spec(two_node_spec)
        openmrs = per_node["appnode"]["openmrs"]
        assert openmrs.inputs["database"]["host"] == "db1"

    def test_sub_specs_are_valid_dags(self, two_node_spec):
        for sub in split_spec(two_node_spec).values():
            sub.topological_order()  # must not raise

    def test_instance_without_machine_context_is_own_group(
        self, registry, infrastructure
    ):
        """A top-level instance with no ``inside`` link *is* its machine
        context: it must land in its own sub-spec, keyed by its id."""
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    "lonely", as_key("Ubuntu-Linux 10.04"),
                    config={"hostname": "solo"},
                ),
            ]
        )
        partial = provision_partial_spec(registry, partial, infrastructure)
        spec = ConfigurationEngine(registry).configure(partial).spec
        per_node = split_spec(spec)
        assert set(per_node) == {"lonely"}
        assert set(per_node["lonely"].ids()) == set(spec.ids())

    def test_cross_machine_links_dropped_exactly_once(self, two_node_spec):
        """Each cross-machine link disappears from exactly one side (its
        source); local links all survive, none are duplicated."""
        machine_of = {
            inst.id: two_node_spec.machine_of(inst.id)
            for inst in two_node_spec
        }
        cross = sum(
            1
            for inst in two_node_spec
            for link in inst.links()
            if machine_of[link.target.id] != machine_of[inst.id]
        )
        assert cross > 0  # openmrs -> db spans machines
        total_before = sum(
            len(list(inst.links())) for inst in two_node_spec
        )
        total_after = sum(
            len(list(inst.links()))
            for sub in split_spec(two_node_spec).values()
            for inst in sub
        )
        assert total_after == total_before - cross

    def test_single_machine_spec_round_trips_unchanged(
        self, registry, openmrs_partial
    ):
        """Splitting a single-machine spec must return that spec's
        instances verbatim -- links, inputs and outputs untouched."""
        spec = ConfigurationEngine(registry).configure(openmrs_partial).spec
        per_node = split_spec(spec)
        assert set(per_node) == {"server"}
        sub = per_node["server"]
        assert list(sub.ids()) == list(spec.ids())
        for instance in spec:
            assert sub[instance.id] == instance


class TestWaves:
    def test_db_before_app(self, two_node_spec):
        waves = machine_waves(two_node_spec)
        assert waves == [["dbnode"], ["appnode"]]

    def test_independent_machines_share_wave(self, registry, infrastructure):
        partial = PartialInstallSpec(
            [
                PartialInstance("a", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "a"}),
                PartialInstance("b", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "b"}),
                PartialInstance("db_a", as_key("MySQL 5.1"), inside_id="a"),
                PartialInstance("db_b", as_key("MySQL 5.1"), inside_id="b"),
            ]
        )
        partial = provision_partial_spec(registry, partial, infrastructure)
        spec = ConfigurationEngine(registry).configure(partial).spec
        assert machine_waves(spec) == [["a", "b"]]


class TestMasterCoordinator:
    """``BusCoordinator`` end to end (the class keeps the name the
    tier-1 floor lists its tests under)."""

    def test_deploys_everything(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        deployment = coordinator.deploy(two_node_spec)
        assert deployment.is_deployed()
        assert set(deployment.states()) == set(two_node_spec.ids())

    def test_cross_machine_service_reachable(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        coordinator.deploy(two_node_spec)
        # OpenMRS on app1 talked to MySQL on db1 during startup; both live.
        assert infrastructure.network.can_connect("db1", 3306)
        assert infrastructure.network.can_connect("app1", 8080)

    def test_report_costs(self, registry, infrastructure, drivers, two_node_spec):
        # Two strictly ordered one-machine waves: at zero latency only
        # the control loop's 1 ms ticks separate the two sums.
        coordinator = BusCoordinator(
            registry, infrastructure, drivers, default_latency=0.0
        )
        deployment = coordinator.deploy(two_node_spec)
        report = deployment.report
        assert set(report.per_machine_seconds) == {"appnode", "dbnode"}
        assert report.sequential_seconds == pytest.approx(
            sum(report.per_machine_seconds.values())
        )
        assert (
            report.parallel_makespan_seconds
            <= report.sequential_seconds + 0.01
        )

    def test_slave_agent_installed_per_host(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        """S5.2: a slave instance of Engage runs on each target host --
        the coordinator installs the agent package before deploying."""
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        deployment = coordinator.deploy(two_node_spec)
        assert sorted(deployment.report.agents_installed) == ["app1", "db1"]
        for hostname in ("app1", "db1"):
            machine = infrastructure.network.machine(hostname)
            manager = infrastructure.package_manager(machine)
            assert manager.is_installed("engage-agent")

    def test_agent_install_idempotent(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        first = coordinator.deploy(two_node_spec)
        coordinator.engine.shutdown(first)
        # Redeploy on the same machines: agents already present.
        second = coordinator.deploy(two_node_spec)
        assert second.report.agents_installed == []

    def test_same_wave_machines_deploy_concurrently(
        self, registry, infrastructure, drivers
    ):
        """Two independent machines share a wave, so the measured
        multi-host makespan beats the per-machine sum."""
        partial = PartialInstallSpec(
            [
                PartialInstance("a", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "a"}),
                PartialInstance("b", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "b"}),
                PartialInstance("db_a", as_key("MySQL 5.1"), inside_id="a"),
                PartialInstance("db_b", as_key("MySQL 5.1"), inside_id="b"),
            ]
        )
        partial = provision_partial_spec(registry, partial, infrastructure)
        spec = ConfigurationEngine(registry).configure(partial).spec
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        started = infrastructure.clock.now
        deployment = coordinator.deploy(spec)
        report = deployment.report
        assert deployment.is_deployed()
        assert (
            report.parallel_makespan_seconds
            < report.sequential_seconds - 1e-6
        )
        # The wall clock advanced by the parallel makespan, not the sum.
        assert infrastructure.clock.now - started == pytest.approx(
            report.parallel_makespan_seconds, abs=1e-6
        )

    def test_jobs_forwarded_to_slaves(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        """Intra-machine parallelism composes with machine waves: every
        slave's engine derives from the coordinator's one engine, and
        the fleet report carries its worker bound."""
        coordinator = BusCoordinator(
            registry, infrastructure, drivers, jobs=4
        )
        assert coordinator.engine.jobs == 4
        deployment = coordinator.deploy(two_node_spec)
        assert deployment.is_deployed()
        assert deployment.report.jobs == 4

    def test_shutdown_reverse_waves(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        """There is one way to stop a deployment, however it was
        deployed: the engine's ``shutdown`` on the system."""
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        deployment = coordinator.deploy(two_node_spec)
        coordinator.engine.shutdown(deployment)
        from repro.drivers import INACTIVE

        assert set(deployment.states().values()) == {INACTIVE}

    def test_shutdown_runs_under_the_coordinators_policy(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        """Regression: shutting a fleet down ran on a bare engine, so a
        transient ``stop`` fault the deploy's policy would have retried
        raised.  ``coordinator.engine`` is the engine with that policy."""
        from repro.drivers import INACTIVE
        from repro.runtime import RetryPolicy
        from repro.sim import FaultPlan

        coordinator = BusCoordinator(
            registry, infrastructure, drivers,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.1),
        )
        deployment = coordinator.deploy(two_node_spec)
        plan = FaultPlan().on("driver:tomcat:stop", times=1)
        infrastructure.set_fault_plan(plan)
        coordinator.engine.shutdown(deployment)
        assert len(plan.records) == 1
        assert set(deployment.states().values()) == {INACTIVE}


class TestHeartbeatOnlyMasterSteps:
    """A master step whose mail is only heartbeats, before the wake it
    is handed (what ``next_wake`` returned after the step before),
    changes nothing; any other mail, an instant at or past that wake, or
    no wake at all runs the whole step.  ``next_wake`` only computes."""

    @pytest.fixture
    def bus(self):
        bus = MessageBus(SimClock())
        for slave in ("m1", "m2"):
            bus.register(slave)
        return bus

    def master(self, bus, retransmit_after=100.0):
        master = MasterNode(
            "master", bus, [["m1", "m2"]], {"m1": "spec1", "m2": "spec2"},
            retransmit_after=retransmit_after, heartbeat_timeout=15.0,
        )
        master.step(0.0)
        assert bus.sent == {busmod.WORK: 2}
        return master

    def mail(self, bus, at, *messages):
        for sender, kind in messages:
            bus.send(sender, "master", kind, {"machine": sender},
                     at=at - bus.default_latency)
        bus.clock.advance_to(at)
        bus.deliver_due(at)

    def test_heartbeats_before_the_wake_change_nothing(self, bus):
        master = self.master(bus)
        assert master.next_wake(0.0) == 15.0
        self.mail(bus, 14.0, ("m1", busmod.HEARTBEAT))
        master.step(14.0, 15.0)
        assert bus.sent == {busmod.WORK: 2, busmod.HEARTBEAT: 1}
        assert master.suspects == []
        assert master.last_seen == {"m1": 14.0}
        # m1's deadline moved; m2's, never seen, is still the wake.
        assert master.next_wake(14.0) == 15.0

    def test_hello_resends_that_machines_work_at_once(self, bus):
        master = self.master(bus)
        wake = master.next_wake(0.0)
        self.mail(bus, 5.0, ("m1", busmod.HEARTBEAT), ("m2", busmod.HELLO))
        master.step(5.0, wake)
        assert master.rejoins == [{"at": 5.0, "machine": "m2"}]
        bus.deliver_due(6.0)
        work = {
            slave: [(e.attempt, e.sent_at)
                    for e in bus.endpoint(slave).drain()]
            for slave in ("m1", "m2")
        }
        assert work == {"m1": [(1, 0.0)], "m2": [(1, 0.0), (2, 5.0)]}

    def test_heartbeats_at_the_wake_run_the_checks(self, bus):
        master = self.master(bus)
        assert master.next_wake(0.0) == 15.0
        self.mail(bus, 15.001, ("m1", busmod.HEARTBEAT))
        master.step(15.001, 15.0)
        assert master.suspects == [
            {"at": 15.001, "machine": "m2", "last_seen": 0.0}
        ]

    def test_heartbeats_exactly_at_the_wake_retransmit(self, bus):
        master = self.master(bus, retransmit_after=10.0)
        assert master.next_wake(0.0) == 10.0
        self.mail(bus, 10.0, ("m1", busmod.HEARTBEAT))
        master.step(10.0, 10.0)
        assert bus.sent[busmod.WORK] == 4
        assert [s.attempts for s in master.open] == [2, 2]

    def test_a_suspect_heard_from_again_runs_the_checks(self, bus):
        """Its deadline was left out of the wake.  Delivered late, its
        heartbeat leaves it overdue at once, and it is suspected again."""
        master = self.master(bus)
        self.mail(bus, 15.001, ("m1", busmod.HEARTBEAT))
        master.step(15.001, master.next_wake(0.0))
        wake = master.next_wake(15.001)
        assert wake == pytest.approx(30.001)
        bus.send("m2", "master", busmod.HEARTBEAT, {"machine": "m2"}, at=1.0)
        bus.clock.advance_to(20.0)
        bus.deliver_due(20.0)
        master.step(20.0, wake)
        assert [(s["at"], s["machine"]) for s in master.suspects] == [
            (15.001, "m2"), (20.0, "m2"),
        ]

    def test_a_full_step_forgets_the_wake(self, bus):
        """An ack that opens the next wave brings a machine whose suspect
        deadline is earlier than the wake computed before it: the wake
        asked for after that step is the earlier one, and a step handed
        no wake is never skipped, however often ``next_wake`` ran."""
        master = MasterNode(
            "master", bus, [["m1"], ["m2"]], {"m1": "spec1", "m2": "spec2"},
            retransmit_after=100.0, heartbeat_timeout=15.0,
        )
        master.step(0.0)
        self.mail(bus, 10.0, ("m1", busmod.HEARTBEAT))
        master.step(10.0)
        assert master.next_wake(10.0) == 25.0
        bus.send("m1", "master", busmod.ACK, {"key": work_key(0, "m1")},
                 at=12.0 - bus.default_latency)
        bus.clock.advance_to(12.0)
        bus.deliver_due(12.0)
        master.step(12.0, 25.0)
        assert master.open[0].machine_id == "m2"
        assert master.next_wake(12.0) == 15.0
        self.mail(bus, 14.0, ("m1", busmod.HEARTBEAT))
        master.step(14.0, 15.0)  # before the wake: skipped
        assert master.next_wake(14.0) == 15.0
        self.mail(bus, 20.0, ("m1", busmod.HEARTBEAT))
        master.step(20.0)
        assert master.suspects == [
            {"at": 20.0, "machine": "m2", "last_seen": 0.0}
        ]


class TestTimingValidation:
    """A period <= 0 never advances its timer.  These call only the
    constructor: ``heartbeat_every=0`` used to be accepted and then
    filled memory with heartbeats for a single instant, so no test may
    ``deploy`` with one."""

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize(
        "name",
        ["heartbeat_every", "heartbeat_timeout", "max_sim_seconds"],
    )
    def test_non_positive_period_rejected_at_construction(
        self, registry, infrastructure, drivers, name, value
    ):
        with pytest.raises(
            SimulationError, match=f"{name} must be > 0, got {value}"
        ):
            BusCoordinator(registry, infrastructure, drivers, **{name: value})

    def test_zero_latency_and_timeout_below_the_period_stay_legal(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        coordinator = BusCoordinator(
            registry, infrastructure, drivers, default_latency=0.0,
            heartbeat_every=5.0, heartbeat_timeout=1.0,
        )
        assert coordinator.deploy(two_node_spec).is_deployed()


class TestChaosValidation:
    """A fault schedule the deployment cannot honour is refused before
    anything is sent.  ``partition_for <= 0`` sorted the heal before the
    cut, so the partition never healed and the loop ran to its
    deadline; an unknown ``crash_machine`` was silently ignored."""

    @pytest.mark.parametrize(
        "chaos, message",
        [
            (BusChaos(crash_machine="nosuch"), "crash_machine: 'nosuch'"),
            (BusChaos(partition_at=1.0, partition_slaves=["dbnode", "x"]),
             "partition_slaves: 'x'"),
            (BusChaos(partition_at=1.0, partition_for=0.0),
             "partition_for must be > 0"),
            (BusChaos(partition_at=1.0, partition_for=-5.0),
             "partition_for must be > 0"),
            (BusChaos(crash_machine="dbnode", crash_after_actions=-1),
             "crash_after_actions must be >= 0"),
            (BusChaos(crash_machine="dbnode", crash_down_for=-1.0),
             "crash_down_for must be >= 0"),
        ],
    )
    def test_refused_before_anything_is_sent(
        self, registry, infrastructure, drivers, two_node_spec, chaos,
        message,
    ):
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        started = infrastructure.clock.now
        with pytest.raises(RuntimeEngageError, match=message):
            coordinator.deploy(two_node_spec, chaos=chaos)
        assert infrastructure.clock.now == started
        assert infrastructure.network.machine("db1").running_processes() == []


class TestLoopGuards:
    """The three ways the control loop gives up (the fourth exit, a
    nack, is ``TestWaveFailureKeepsSiblings``)."""

    def test_deadline(self, registry, infrastructure, drivers, two_node_spec):
        coordinator = BusCoordinator(
            registry, infrastructure, drivers, max_sim_seconds=300
        )
        started = infrastructure.clock.now
        with pytest.raises(
            DeploymentError,
            match="did not converge within 300 simulated seconds",
        ):
            coordinator.deploy(
                two_node_spec,
                chaos=BusChaos(partition_at=1.0, partition_for=1e9),
            )
        assert infrastructure.clock.now == started + 300.0

    def test_no_progress(
        self, registry, infrastructure, drivers, two_node_spec, monkeypatch
    ):
        """A master that always wants waking *now* gets 10,000 micro-
        steps of 1 ms, not an endless loop."""

        class Restless(MasterNode):
            def next_wake(self, now):
                return now

        monkeypatch.setattr(coordinator_module, "MasterNode", Restless)
        started = infrastructure.clock.now
        with pytest.raises(DeploymentError, match="made no progress"):
            BusCoordinator(registry, infrastructure, drivers).deploy(
                two_node_spec
            )
        assert infrastructure.clock.now - started == pytest.approx(
            10.0, abs=0.01
        )

    def test_stalled(
        self, registry, infrastructure, drivers, two_node_spec, monkeypatch
    ):
        """Nobody has a timer and the bus is quiet: an error, neither a
        busy loop nor a ``min()`` of nothing."""

        class Idle(MasterNode):
            def step(self, now, wake=None):
                pass

            def next_wake(self, now):
                return None

        class Deaf(SlaveAgent):
            def step(self, now):
                pass

            def next_wake(self, now):
                return None

        monkeypatch.setattr(coordinator_module, "MasterNode", Idle)
        monkeypatch.setattr(coordinator_module, "SlaveAgent", Deaf)
        with pytest.raises(
            DeploymentError, match="stalled: nothing scheduled"
        ):
            BusCoordinator(registry, infrastructure, drivers).deploy(
                two_node_spec
            )


class TestWaveFailureKeepsSiblings:
    """Regression: a slave failing mid-wave used to raise the bare
    :class:`DeploymentFailure` out of the wave loop, discarding every
    sibling slave's journal and system -- the caller could not tell
    what the fleet had actually done, let alone resume it."""

    def test_failed_wave_preserves_completed_siblings(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        from repro.runtime import MultiHostDeploymentFailure
        from repro.sim import FaultPlan

        infrastructure.set_fault_plan(
            FaultPlan().on("driver:openmrs:install", times=100)
        )
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        with pytest.raises(MultiHostDeploymentFailure) as exc_info:
            coordinator.deploy(two_node_spec)
        failure = exc_info.value
        assert failure.failed_machine == "appnode"
        assert failure.unstarted == []
        # Wave 1's slave survived intact in the fleet view...
        system = failure.system
        assert system.spec is two_node_spec
        assert system.journal is failure.journal
        assert system.state_of("db") == "active"
        assert "db" in failure.completed
        # ...and the failing slave's partial frontier is there too, so a
        # resume can pick up exactly where the fleet stopped.
        ids = {entry.instance_id for entry in failure.journal.entries}
        assert "db" in ids and "openmrs" not in ids
        assert "openmrs" in failure.failed
        infrastructure.set_fault_plan(None)
        assert coordinator.engine.resume(failure.journal).is_deployed()

    def test_wave_one_failure_reports_unstarted_machines(
        self, registry, infrastructure, drivers, two_node_spec
    ):
        from repro.runtime import MultiHostDeploymentFailure
        from repro.sim import FaultPlan

        infrastructure.set_fault_plan(
            FaultPlan().on("driver:db:install", times=100)
        )
        coordinator = BusCoordinator(registry, infrastructure, drivers)
        with pytest.raises(MultiHostDeploymentFailure) as exc_info:
            coordinator.deploy(two_node_spec)
        failure = exc_info.value
        assert failure.failed_machine == "dbnode"
        assert failure.unstarted == ["appnode"]
        # The partitions speak about the fleet: nothing on the machine
        # that never started is missing from them.
        assert (
            failure.completed | failure.failed | failure.skipped
            == set(two_node_spec.ids())
        )
        assert {"appnode", "tomcat", "openmrs"} <= failure.skipped
