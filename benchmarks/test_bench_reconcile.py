"""Self-healing at fleet scale: time-to-repair under chaos churn.

One results file (``benchmarks/BENCH_reconcile.json``), two sections:

* **soak** -- a ~1000-instance fleet (208 replicas on 64 machines) runs
  the autonomic reconcile loop for 8 rounds while a seeded
  :class:`~repro.sim.faults.MachineChurn` permanently kills ~4% of live
  machines per round.  Asserts that *every* round converges, that each
  round's repair plan stays well below a quarter of the fleet (delta
  repair, not redeploy-the-world), and that an identical second run is
  bit-identical (same seeds, same losses, same plans, same journal).
* **rates** -- the time-to-repair curve across churn rates on a smaller
  fleet: median time-to-repair grows with the damage rate, and the
  recorded per-round curves make the scaling visible in the JSON.

Simulated seconds measure repair cost (how much driver work a repair
round performs); wall seconds are recorded per section for honesty.
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
from repro.runtime import (
    DeploymentEngine,
    DeploymentJournal,
    ReconcileController,
)
from repro.sim import MachineChurn

#: ~1000 graph nodes: the headline self-healing scenario.
SOAK_TOPOLOGY = FleetTopology(replicas=208, machines=64)
SOAK_ROUNDS = 8
SOAK_SEED = 7
SOAK_RATE = 0.04

#: The time-to-repair curve: churn rates swept on a smaller fleet.
RATE_TOPOLOGY = FleetTopology(replicas=48, machines=16)
RATE_SWEEP = (0.02, 0.05, 0.10)
RATE_ROUNDS = 6
RATE_SEED = 11

#: Every repair plan must stay below this fraction of the fleet.
MAX_PLAN_FRACTION = 0.25

RESULTS_PATH = pathlib.Path(__file__).parent / "BENCH_reconcile.json"


def _update_results(section: str, payload: dict) -> dict:
    """Merge ``section`` into the shared results file and return it."""
    data: dict = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            data = {}
    data["benchmark"] = "reconcile_churn"
    data[section] = payload
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8"
    )
    return data


def _soak(topology, *, seed, rate, rounds, interval=60.0):
    """Deploy a fleet, churn it, reconcile it; returns the outcome."""
    registry = standard_registry()
    spec = (
        ConfigurationEngine(registry, partition=True)
        .configure(fleet_partial(topology))
        .spec
    )
    infrastructure = standard_infrastructure()
    engine = DeploymentEngine(registry, infrastructure, standard_drivers())
    journal = DeploymentJournal(spec)
    system = engine.deploy(spec, journal=journal)
    assert system.is_deployed()
    controller = ReconcileController(engine, system, interval=interval)
    churn = MachineChurn(system, seed=seed, rate=rate)
    result = controller.run(rounds=rounds, churn=churn)
    return spec, system, journal, churn, result


def test_thousand_node_fleet_heals_under_churn():
    started = time.perf_counter()
    spec, system, journal, churn, result = _soak(
        SOAK_TOPOLOGY, seed=SOAK_SEED, rate=SOAK_RATE, rounds=SOAK_ROUNDS
    )
    wall_seconds = time.perf_counter() - started
    fleet_size = len(spec)
    assert fleet_size >= 1000

    # Every round converges, and every repair is a delta, not a rebuild.
    assert all(round_.converged for round_ in result.rounds)
    assert system.is_deployed()
    machines_lost = sum(1 for _ in churn.records)
    assert machines_lost > 0, "the soak must actually lose machines"
    for round_ in result.rounds:
        assert round_.plan_size <= fleet_size * MAX_PLAN_FRACTION

    # Determinism: the same seeds replay to the bit.
    _, _, journal2, churn2, result2 = _soak(
        SOAK_TOPOLOGY, seed=SOAK_SEED, rate=SOAK_RATE, rounds=SOAK_ROUNDS
    )
    assert json.dumps(result.to_payload(), sort_keys=True) == json.dumps(
        result2.to_payload(), sort_keys=True
    )
    assert sorted(journal.states().items()) == sorted(
        journal2.states().items()
    )
    assert [r.hostname for r in churn.records] == [
        r.hostname for r in churn2.records
    ]

    _update_results(
        "soak",
        {
            "instances": fleet_size,
            "machines": len(spec.machines()),
            "rounds": SOAK_ROUNDS,
            "churn_seed": SOAK_SEED,
            "churn_rate": SOAK_RATE,
            "machines_lost": machines_lost,
            "median_time_to_repair_s": result.median_time_to_repair,
            "max_plan_fraction": max(
                round_.plan_size / fleet_size for round_ in result.rounds
            ),
            "wall_seconds": wall_seconds,
            "time_to_repair_curve": [
                {
                    "round": round_.index,
                    "drift_items": round_.drift_items,
                    "plan_size": round_.plan_size,
                    "time_to_repair_s": round_.time_to_repair,
                }
                for round_ in result.rounds
            ],
        },
    )


def test_time_to_repair_scales_with_churn_rate():
    started = time.perf_counter()
    rows = []
    for rate in RATE_SWEEP:
        spec, _, _, _, result = _soak(
            RATE_TOPOLOGY, seed=RATE_SEED, rate=rate, rounds=RATE_ROUNDS
        )
        assert all(round_.converged for round_ in result.rounds)
        rows.append(
            {
                "churn_rate": rate,
                "instances": len(spec),
                "rounds_with_drift": result.rounds_with_drift,
                "median_time_to_repair_s": result.median_time_to_repair,
                "total_repairs": sum(r.plan_size for r in result.rounds),
                "time_to_repair_curve": [
                    round_.time_to_repair for round_ in result.rounds
                ],
            }
        )
    # More churn, more repair work: total repairs grow with the rate.
    repairs = [row["total_repairs"] for row in rows]
    assert repairs == sorted(repairs)
    assert rows[-1]["total_repairs"] > rows[0]["total_repairs"]
    _update_results(
        "rates",
        {
            "seed": RATE_SEED,
            "rounds_per_rate": RATE_ROUNDS,
            "wall_seconds": time.perf_counter() - started,
            "sweep": rows,
        },
    )
