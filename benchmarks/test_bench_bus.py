"""Bus control plane at fleet scale: message cost and time-to-recover.

One results file (``benchmarks/BENCH_bus.json``), two sections:

* **partition_sweep** -- a 1018-instance fleet (208 replicas on 64
  machines, one wave) deploys over the message bus while the network
  between master and slaves is cut from t=0 for 0/60/180/600 simulated
  seconds.  Asserts that the deployment converges every time, that
  time-to-recover (makespan minus the unpartitioned makespan) tracks
  the partition duration, and that the control-plane message count
  grows with it (retransmits into the void plus catch-up after heal)
  while the *work* stays exactly-once: per-machine executions never
  exceed the fleet's machine count.
* **failover** -- the same fleet with the master killed mid-deploy:
  the standby adopts the write-ahead control log and finishes without
  re-running a single completed action, at a bounded message overhead
  over the unfaulted run.

Simulated seconds measure recovery cost; wall seconds are recorded per
section for honesty.  Render with ``python benchmarks/report.py --bus``.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.config import ConfigurationEngine
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import BusChaos, BusCoordinator

#: ~1000 graph nodes on 64 machines: the headline fleet, single wave.
TOPOLOGY = FleetTopology(replicas=208, machines=64)

#: Partition durations swept (simulated seconds, cut from t=0).
PARTITION_SWEEP = (0.0, 60.0, 180.0, 600.0)

#: Time-to-recover must stay within this of the partition duration:
#: healing is prompt (first retransmit timer after the heal), never
#: compounding.
RECOVERY_SLACK_SECONDS = 30.0

RESULTS_PATH = pathlib.Path(__file__).parent / "BENCH_bus.json"


def _update_results(section: str, payload: dict) -> dict:
    """Merge ``section`` into the shared results file and return it."""
    data: dict = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            data = {}
    data["benchmark"] = "bus_control_plane"
    data[section] = payload
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8"
    )
    return data


def _fleet_spec(registry):
    return (
        ConfigurationEngine(registry, partition=True)
        .configure(fleet_partial(TOPOLOGY))
        .spec
    )


def _bus_deploy(registry, spec, chaos=None):
    infrastructure = standard_infrastructure()
    coordinator = BusCoordinator(
        registry, infrastructure, standard_drivers(),
        max_sim_seconds=100_000.0,
    )
    deployment = coordinator.deploy(spec, chaos=chaos)
    assert deployment.is_deployed()
    return deployment


def test_partition_recovery_cost_tracks_duration():
    started = time.perf_counter()
    registry = standard_registry()
    spec = _fleet_spec(registry)
    fleet_size = len(spec)
    machines = len(spec.machines())
    assert fleet_size >= 1000

    rows = []
    baseline_makespan = None
    for duration in PARTITION_SWEEP:
        chaos = (
            BusChaos(partition_at=0.0, partition_for=duration)
            if duration > 0 else None
        )
        deployment = _bus_deploy(registry, spec, chaos)
        report = deployment.report
        makespan = report.parallel_makespan_seconds
        if baseline_makespan is None:
            baseline_makespan = makespan
        recover = makespan - baseline_makespan
        # Exactly-once work no matter how long the master shouted into
        # the void: one execution per machine, zero resumes.
        assert report.work_executions == machines
        assert report.work_resumes == 0
        rows.append(
            {
                "partition_seconds": duration,
                "makespan_seconds": makespan,
                "time_to_recover_seconds": recover,
                "messages_sent": report.bus_stats["total_sent"],
                "messages_delivered": report.bus_stats["total_delivered"],
                "partition_losses": report.bus_stats["partition_losses"],
                "retransmits": report.retransmits,
                "redundant_acks": report.redundant_acks,
            }
        )

    # Recovery time tracks the cut: within a retransmit interval of the
    # partition duration, and strictly increasing across the sweep.
    for duration, row in zip(PARTITION_SWEEP, rows):
        assert row["time_to_recover_seconds"] >= duration - 1e-6
        assert (
            row["time_to_recover_seconds"]
            <= duration + RECOVERY_SLACK_SECONDS
        )
    recoveries = [row["time_to_recover_seconds"] for row in rows]
    assert recoveries == sorted(recoveries)

    # Longer partitions cost more messages (retransmits + losses), and
    # losses actually happened whenever there was a cut.
    messages = [row["messages_sent"] for row in rows]
    assert messages == sorted(messages)
    assert messages[-1] > messages[0]
    for row in rows[1:]:
        assert row["partition_losses"] > 0
        assert row["retransmits"] > 0

    _update_results(
        "partition_sweep",
        {
            "instances": fleet_size,
            "machines": machines,
            "baseline_makespan_seconds": baseline_makespan,
            "recovery_slack_seconds": RECOVERY_SLACK_SECONDS,
            "wall_seconds": time.perf_counter() - started,
            "sweep": rows,
        },
    )


def test_failover_overhead_is_bounded():
    started = time.perf_counter()
    registry = standard_registry()
    spec = _fleet_spec(registry)
    machines = len(spec.machines())

    unfaulted = _bus_deploy(registry, spec, None)
    failed_over = _bus_deploy(
        registry, spec, BusChaos(failover_at=120.0)
    )
    report = failed_over.report
    assert report.masters == ["master", "master-2"]
    # The standby re-adopts the frontier: not one completed action
    # re-ran anywhere in the fleet.
    assert report.work_executions == machines
    assert report.work_resumes == 0
    overhead = (
        report.parallel_makespan_seconds
        - unfaulted.report.parallel_makespan_seconds
    )
    # Convergence is prompt: within one retransmit interval.
    assert overhead <= RECOVERY_SLACK_SECONDS

    _update_results(
        "failover",
        {
            "instances": len(spec),
            "machines": machines,
            "failover_at_seconds": 120.0,
            "unfaulted_makespan_seconds":
                unfaulted.report.parallel_makespan_seconds,
            "failover_makespan_seconds":
                report.parallel_makespan_seconds,
            "makespan_overhead_seconds": overhead,
            "messages_sent_unfaulted":
                unfaulted.report.bus_stats["total_sent"],
            "messages_sent_failover": report.bus_stats["total_sent"],
            "retransmits": report.retransmits,
            "wall_seconds": time.perf_counter() - started,
        },
    )
