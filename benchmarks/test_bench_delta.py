"""Elasticity: delta transitions cost O(diff), not O(fleet).

One results file (``benchmarks/BENCH_delta.json``), two sections:

* **elasticity** -- a django fleet grows 10 -> 100 -> 1000 replicas on
  a fixed machine pool, each step executed as a planned delta
  transition.  Every plan must contain exactly the added instances
  (installs only -- growth never touches the live fleet), the final
  system must be indistinguishable from a fresh deploy of the final
  goal (states, running processes modulo pid, package databases), and
  an identical second run must replay bit-identical down to the
  persisted world and state files.
* **scale** -- a small delta (+10 replicas) against the live
  1000-replica fleet: the plan must stay under 10% of the fleet, and
  the recorded wall times show the delta execute beating the paper's
  worst-case full redeploy of the same goal.

Simulated seconds measure driver work; wall seconds are recorded per
section for honesty.
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
    execute_delta,
    plan_delta,
    save_system,
)
from repro.sim.persistence import save_world

#: The growth ladder: replicas per step, machines fixed so existing
#: replicas never relocate.
LADDER = (10, 100, 1000)
MACHINES = 64
STACKS = ("django",)

#: A small elastic event against the full fleet.
SCALE_GROW = 10
MAX_PLAN_FRACTION = 0.10

RESULTS_PATH = pathlib.Path(__file__).parent / "BENCH_delta.json"


def _update_results(section: str, payload: dict) -> dict:
    """Merge ``section`` into the shared results file and return it."""
    data: dict = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            data = {}
    data["benchmark"] = "delta_transitions"
    data[section] = payload
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8"
    )
    return data


def topology(replicas):
    return FleetTopology(
        replicas=replicas, machines=MACHINES, stacks=STACKS
    )


def configure(partial):
    return (
        ConfigurationEngine(
            standard_registry(), partition=True
        )
        .configure(partial)
        .spec
    )


def deploy(partial):
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    spec = (
        ConfigurationEngine(
            registry, partition=True
        )
        .configure(partial)
        .spec
    )
    engine = DeploymentEngine(registry, infrastructure, standard_drivers())
    system = engine.deploy(spec, journal=DeploymentJournal(spec))
    assert system.is_deployed()
    return engine, infrastructure, system


def fingerprint(system, infrastructure):
    """What must match a fresh deploy: driver states, running
    processes modulo pid, package databases, registered machines."""
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
                (record.name, record.version, sorted(record.owners))
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


def climb_ladder():
    """Deploy the smallest rung, then delta-grow through the ladder;
    returns (engine, infrastructure, system, legs)."""
    engine, infrastructure, system = deploy(fleet_partial(topology(LADDER[0])))
    legs = []
    previous = LADDER[0]
    for replicas in LADDER[1:]:
        new_spec = configure(fleet_partial(topology(replicas)))
        started = time.perf_counter()
        delta = plan_delta(system, new_spec)
        plan_seconds = time.perf_counter() - started
        added = set(new_spec.ids()) - set(system.spec.ids())
        # Growth is installs only, one per added instance: O(diff).
        assert set(delta.plan.by_op()) == {"install"}
        assert len(delta) == len(added)
        assert delta.stop_down == []
        assert delta.uninstall_down == []
        assert delta.retire_hostnames == []
        started = time.perf_counter()
        result = execute_delta(engine, system, delta)
        execute_seconds = time.perf_counter() - started
        assert result.system.is_deployed()
        journal = result.system.journal
        assert journal.completed == set(journal.spec.ids())
        legs.append(
            {
                "from_replicas": previous,
                "to_replicas": replicas,
                "fleet_nodes": len(new_spec),
                "diff_size": len(added),
                "plan_size": len(delta),
                "plan_fraction": len(delta) / len(new_spec),
                "plan_seconds": plan_seconds,
                "execute_seconds": execute_seconds,
            }
        )
        system = result.system
        previous = replicas
    return engine, infrastructure, system, legs


def test_elastic_growth_is_o_diff():
    started = time.perf_counter()
    engine, infrastructure, system, legs = climb_ladder()

    # The grown fleet is indistinguishable from a fresh deploy of the
    # final goal (modulo pid on surviving machines).
    final_partial = fleet_partial(topology(LADDER[-1]))
    fresh_started = time.perf_counter()
    _, fresh_infrastructure, fresh_system = deploy(final_partial)
    fresh_deploy_seconds = time.perf_counter() - fresh_started
    assert fingerprint(system, infrastructure) == fingerprint(
        fresh_system, fresh_infrastructure
    )

    # Determinism: an identical second climb replays to the bit.
    _, infrastructure2, system2, legs2 = climb_ladder()
    assert [leg["plan_size"] for leg in legs] == [
        leg["plan_size"] for leg in legs2
    ]
    assert save_world(infrastructure) == save_world(infrastructure2)
    assert save_system(system, system.journal) == save_system(
        system2, system2.journal
    )

    _update_results(
        "elasticity",
        {
            "ladder": list(LADDER),
            "machines": MACHINES,
            "stacks": list(STACKS),
            "fresh_deploy_seconds_final": fresh_deploy_seconds,
            "wall_seconds": time.perf_counter() - started,
            "legs": legs,
        },
    )


def test_small_delta_on_thousand_replica_fleet():
    started = time.perf_counter()
    engine, infrastructure, system = deploy(
        fleet_partial(topology(LADDER[-1]))
    )
    baseline_deploy_seconds = time.perf_counter() - started

    new_partial = fleet_partial(topology(LADDER[-1] + SCALE_GROW))
    new_spec = configure(new_partial)
    plan_started = time.perf_counter()
    delta = plan_delta(system, new_spec)
    plan_seconds = time.perf_counter() - plan_started

    # The acceptance bar: a small elastic event against a 1000-replica
    # fleet plans well under a tenth of the fleet.
    fleet_size = len(new_spec)
    assert fleet_size >= 5000
    assert len(delta) <= fleet_size * MAX_PLAN_FRACTION
    assert set(delta.plan.by_op()) == {"install"}

    execute_started = time.perf_counter()
    result = execute_delta(engine, system, delta)
    execute_seconds = time.perf_counter() - execute_started
    assert result.system.is_deployed()

    # The delta beats the paper's worst case (redeploy the world).
    assert execute_seconds < baseline_deploy_seconds

    _update_results(
        "scale",
        {
            "replicas": LADDER[-1],
            "grow_by": SCALE_GROW,
            "fleet_nodes": fleet_size,
            "plan_size": len(delta),
            "plan_fraction": len(delta) / fleet_size,
            "max_plan_fraction": MAX_PLAN_FRACTION,
            "plan_seconds": plan_seconds,
            "execute_seconds": execute_seconds,
            "worst_case_redeploy_seconds": baseline_deploy_seconds,
            "speedup_vs_redeploy": baseline_deploy_seconds
            / execute_seconds,
            "wall_seconds": time.perf_counter() - started,
        },
    )
