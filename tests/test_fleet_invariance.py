"""Fleet deployment outcomes are invariant to execution knobs.

The partitioned configuration path feeds the *same* full specification
to the deployment layer as the monolithic one, so everything observable
downstream -- deploy reports, journal frontiers, trace event sequences,
chaos outcomes -- must be identical across ``--partition`` modes, and
(as PR 2 established for a single stack) across worker counts.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import ConfigurationEngine
from repro.core.errors import DeploymentFailure
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.obs import Tracer
from repro.runtime import DeploymentEngine, DeploymentJournal, RetryPolicy
from repro.sim import FaultPlan, FaultyWorld

TOPOLOGY = FleetTopology(replicas=3, machines=3)


def fleet_spec(partition: bool):
    registry = standard_registry()
    engine = ConfigurationEngine(registry, partition=partition)
    return registry, engine.configure(fleet_partial(TOPOLOGY)).spec


def healthy_outcome(jobs, partition: bool):
    """(final states, journal states, schedule) of a fault-free deploy."""
    registry, spec = fleet_spec(partition)
    infrastructure = standard_infrastructure()
    engine = DeploymentEngine(
        registry, infrastructure, standard_drivers(), jobs=jobs
    )
    journal = DeploymentJournal(spec)
    system = engine.deploy(spec, journal=journal)
    assert system.is_deployed()
    report = system.report
    schedule = (
        tuple(
            (a.instance_id, a.action, a.attempt, a.started_at, a.duration)
            for a in report.actions
        )
        if report is not None and report.actions
        else None
    )
    return (
        tuple(sorted(system.states().items())),
        tuple(sorted(journal.states().items())),
        schedule,
    )


def chaos_outcome(jobs, partition: bool, seed: int, rate: float):
    """Outcome under a seeded fault plan (scheduler chaos-parity shape)."""
    registry, spec = fleet_spec(partition)
    infrastructure = standard_infrastructure()
    FaultyWorld(infrastructure, FaultPlan.seeded(seed, rate, max_failures=2))
    policy = RetryPolicy(max_attempts=2, backoff_base=0.1)
    engine = DeploymentEngine(
        registry, infrastructure, standard_drivers(),
        policy=policy, jobs=jobs,
    )
    try:
        system = engine.deploy(spec)
        return ("deployed", tuple(sorted(system.states().items())), None)
    except DeploymentFailure as failure:
        frontier = (
            frozenset(failure.completed),
            frozenset(failure.failed),
            frozenset(failure.skipped),
        )
        return (
            "failed", frontier, tuple(sorted(failure.journal.states().items()))
        )


def trace_sequence(jobs, partition: bool):
    """Deployment trace events, as comparable tuples."""
    registry, spec = fleet_spec(partition)
    infrastructure = standard_infrastructure()
    tracer = Tracer(clock=infrastructure.clock)
    infrastructure.set_tracer(tracer)
    engine = DeploymentEngine(
        registry, infrastructure, standard_drivers(), jobs=jobs
    )
    system = engine.deploy(spec)
    assert system.is_deployed()
    return tuple(
        (e.name, e.category, e.phase, e.timestamp, e.duration, e.lane)
        for e in tracer.sorted_events()
    )


class TestConfiguredSpecParity:
    def test_partition_modes_feed_identical_specs(self):
        from repro.dsl import full_to_json

        _, mono = fleet_spec(False)
        _, part = fleet_spec(True)
        assert full_to_json(mono) == full_to_json(part)


class TestHealthyDeployInvariance:
    def test_serial_baseline_across_partition_modes(self):
        """The default engine: one worker."""
        assert healthy_outcome(1, False) == healthy_outcome(1, True)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_parallel_across_partition_modes(self, jobs):
        assert healthy_outcome(jobs, False) == healthy_outcome(jobs, True)

    @pytest.mark.slow
    def test_full_jobs_matrix(self):
        """States and journal frontiers agree across every worker count
        and both partition modes (schedules legitimately differ between
        worker counts, so compare states only)."""
        outcomes = {
            (jobs, partition): healthy_outcome(jobs, partition)[:2]
            for jobs, partition in itertools.product(
                [1, 2, 4, 0], [False, True]
            )
        }
        baseline = outcomes[(1, False)]
        assert all(value == baseline for value in outcomes.values())


class TestTraceInvariance:
    def test_trace_sequence_across_partition_modes(self):
        assert trace_sequence(4, False) == trace_sequence(4, True)

    @pytest.mark.slow
    def test_trace_sequence_serial(self):
        assert trace_sequence(1, False) == trace_sequence(1, True)


class TestChaosInvariance:
    @pytest.mark.parametrize("seed,rate", [(1, 0.25), (3, 0.6)])
    def test_partition_modes_agree_under_chaos(self, seed, rate):
        assert chaos_outcome(4, True, seed, rate) == chaos_outcome(
            4, False, seed, rate
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "seed,rate", list(itertools.product([1, 2, 3, 5], [0.25, 0.6]))
    )
    def test_full_chaos_matrix(self, seed, rate):
        """Worker count x partition mode, all four corners equal."""
        corners = {
            (jobs, partition): chaos_outcome(jobs, partition, seed, rate)
            for jobs, partition in itertools.product([1, 4], [False, True])
        }
        baseline = corners[(1, False)]
        assert all(value == baseline for value in corners.values())
