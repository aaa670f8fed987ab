"""Fleet-scale configuration: partitioned solving.

One claim, one results file (``benchmarks/BENCH_fleet.json``): on a
fleet whose GraphGen hypergraph splits into one component per machine,
solving the components independently and merging the decoded specs
beats the monolithic pipeline super-linearly -- the decode/propagate
passes are quadratic in nodes, so ``k`` components of ``n/k`` nodes cost
roughly ``1/k`` of the monolithic run.  Asserts >= 3x at the largest
measured size.  ``cores`` is recorded beside the rows.

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

#: Floor asserted at the largest serial size (>=3x at >=512 nodes).
SPEEDUP_FLOOR = 3.0

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
    start = time.perf_counter()
    result = engine.configure(partial)
    return time.perf_counter() - start, result


def test_partitioned_fleet_speedup(registry):
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

    largest = rows[-1]
    _write_results({"speedup_floor": SPEEDUP_FLOOR, "sizes": rows})

    assert largest["nodes"] >= 512
    assert largest["speedup"] >= SPEEDUP_FLOOR, (
        f"partitioned configure only {largest['speedup']}x faster at "
        f"{largest['nodes']} nodes (floor {SPEEDUP_FLOOR}x): {rows}"
    )
    # Speedup grows with fleet size: quadratic passes amortised away.
    assert [r["speedup"] for r in rows] == sorted(
        r["speedup"] for r in rows
    )
