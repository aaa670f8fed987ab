"""Fleet-scale configuration: both pipelines stay linear.

One results file (``benchmarks/BENCH_fleet.json``), three guards, on a
fleet whose GraphGen hypergraph splits into one component per machine:
the partitioned and the monolithic pipeline produce the same bytes, the
partition has exactly one component per machine, and *each* pipeline's
throughput (nodes/s) at ~4096 nodes is at least 0.45x its own at ~512.
That last one is a ratio of two timings taken in the same run, so it
needs no absolute clock: a pass that goes quadratic again reads about
0.33 (the monolithic pipeline did, until its edge lookups became a dict
-- 5060 -> 1675 nodes/s in the results file of that time) and fails; a
linear one reads 0.65-1.2 on this box.

The claim this file used to make -- partitioned >= 3x monolithic at 4096
nodes -- is retired, not regressed: it measured the monolithic
pipeline's quadratic passes, and those are gone.  The ``speedup`` column
stays as information.  ``cores`` is recorded beside the rows.

(The process-pool worker matrix that used to share this file lost to
this in-process path on every recorded run and was deleted with the
pool; docs/INTERNALS.md, "Why there is no process pool", keeps its
numbers.)
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.config import ConfigurationEngine
from repro.dsl import full_to_json
from repro.library.fleet import FleetTopology, fleet_partial

#: (replicas, machines) -> roughly 512 / 2048 / 4096 graph nodes.
SIZES = ((96, 32), (384, 128), (768, 256))

#: Each pipeline's nodes/s at the largest size over its own at the
#: smallest must stay above this (linear ~ 1, quadratic ~ 1/8 in theory
#: and 0.33 as last measured).
SCALING_FLOOR = 0.45

RESULTS_PATH = pathlib.Path(__file__).parent / "BENCH_fleet.json"


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _write_results(serial: dict) -> None:
    data = {
        "benchmark": "fleet_configure", "cores": _cores(), "serial": serial,
    }
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8"
    )


def _timed(engine: ConfigurationEngine, partial):
    """Best of two: the ratio below compares a ~50 ms run with a ~500 ms
    one, and a single stall on the short one would decide it."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        result = engine.configure(partial)
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best, result


def test_fleet_configure_stays_linear(registry):
    mono_engine = ConfigurationEngine(registry)
    part_engine = ConfigurationEngine(registry, partition=True)
    rows = []
    for replicas, machines in SIZES:
        topology = FleetTopology(replicas=replicas, machines=machines)
        mono_seconds, mono = _timed(
            mono_engine, fleet_partial(topology)
        )
        part_seconds, part = _timed(
            part_engine, fleet_partial(topology)
        )
        assert full_to_json(part.spec) == full_to_json(mono.spec)
        assert part.partition is not None
        assert part.partition.count == machines
        nodes = len(part.graph)
        rows.append({
            "replicas": replicas,
            "machines": machines,
            "nodes": nodes,
            "components": part.partition.count,
            "largest_component_nodes": part.partition.largest,
            "monolithic_seconds": round(mono_seconds, 4),
            "partitioned_seconds": round(part_seconds, 4),
            "monolithic_nodes_per_sec": round(nodes / mono_seconds, 1),
            "partitioned_nodes_per_sec": round(nodes / part_seconds, 1),
            "speedup": round(mono_seconds / part_seconds, 2),
        })

    smallest, largest = rows[0], rows[-1]
    scaling = {
        pipeline: round(
            largest[f"{pipeline}_nodes_per_sec"]
            / smallest[f"{pipeline}_nodes_per_sec"], 2
        )
        for pipeline in ("monolithic", "partitioned")
    }
    _write_results(
        {"scaling_floor": SCALING_FLOOR, "scaling": scaling, "sizes": rows}
    )

    assert smallest["nodes"] >= 512
    assert largest["nodes"] >= 8 * smallest["nodes"]
    for pipeline, ratio in scaling.items():
        assert ratio >= SCALING_FLOOR, (
            f"{pipeline} configure runs at {ratio}x its {smallest['nodes']}"
            f"-node throughput at {largest['nodes']} nodes (floor "
            f"{SCALING_FLOOR}x): {rows}"
        )
