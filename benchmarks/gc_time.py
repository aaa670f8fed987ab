"""Where the cyclic garbage collector's time goes in an e2e workload.

    python3 benchmarks/gc_time.py [--workload fleet_cold] [--ops 5] [--seed 11]

Runs the workload's operations the way ``benchmarks/e2e/bench.py run``
does (two warm-ups, then ``--ops`` timed ones, each started from a
collected heap) and times every collection with :data:`gc.callbacks`.
Each collection is charged to the innermost phase span open when it
started (``config.engine.configure``, ``dsl.full_to_json``,
``phase.deploy``, ``phase.persist``, ...).  Prints, per operation, the
operation's wall time, its GC time and the collections per generation,
then the per-phase GC totals; the last line is the summary as JSON.

The workloads are imported from ``benchmarks/e2e`` and not changed.  To
compare two commits, run this file from each commit's checkout: it puts
the ``src/`` next to it on ``sys.path``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
import tempfile
import time
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Op, Tracer  # noqa: E402


class Collections:
    """Times every collection and charges it to the open span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.started = 0.0
        self.ms_by_span: dict[str, float] = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        self.ms = 0.0
        self.by_generation = [0, 0, 0]

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.started = time.perf_counter()
            return
        elapsed = (time.perf_counter() - self.started) * 1000.0
        self.ms += elapsed
        self.by_generation[info["generation"]] += 1
        stack = self.tracer._stack
        span = self.tracer.spans[stack[-1]][0] if stack else "(between ops)"
        self.ms_by_span[span] += elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="fleet_cold",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--ops", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    tracer = Tracer()
    collections = Collections(tracer)
    with tempfile.TemporaryDirectory() as scratch:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, pathlib.Path(scratch)
        )
        rows = []
        for index in range(-workloads.WARMUP_OPS, args.ops):
            inputs = workload.inputs(index)
            gc.collect()
            op = Op(tracer)
            gc.callbacks.append(collections)
            try:
                with op.span("op", "op"):
                    workload.run_op(op, inputs)
            finally:
                gc.callbacks.remove(collections)
            if index >= 0:
                rows.append((op.phase_ms["op"], collections.ms,
                             list(collections.by_generation)))
            else:
                collections.ms_by_span.clear()
            collections.reset()

    print(f"{args.workload}: {args.ops} ops after {workloads.WARMUP_OPS} "
          f"warm-ups, seed {args.seed}, Python {sys.version.split()[0]}")
    for index, (op_ms, gc_ms, generations) in enumerate(rows):
        print(f"  op {index}: {op_ms:8.1f} ms, GC {gc_ms:7.1f} ms, "
              f"collections by generation {generations}")
    print("  GC ms per op, by the span it ran in:")
    for span, ms in sorted(collections.ms_by_span.items(),
                           key=lambda item: -item[1]):
        print(f"    {span:<32}{ms / len(rows):8.1f}")
    summary = {
        "workload": args.workload, "ops": len(rows), "seed": args.seed,
        "op_ms_median": statistics.median(row[0] for row in rows),
        "gc_ms_per_op": sum(row[1] for row in rows) / len(rows),
        "collections_by_generation": [
            sum(row[2][generation] for row in rows) for generation in range(3)
        ],
        "gc_ms_per_op_by_span": {
            span: ms / len(rows)
            for span, ms in collections.ms_by_span.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
