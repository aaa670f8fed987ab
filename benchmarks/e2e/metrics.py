"""The benchmark's metrics: what each is, and how it is reduced from the
operation records (end to end) or from the spans and counts of the
traced pass (per layer).

Wall-clock cost of our code and SimClock seconds of the simulated world
are different quantities: unit ``sim_s`` is simulated seconds, every
other time is host time.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

from layers import REPLAY_STAGES
from spans import totals_by_name

ALL = ("fleet_cold", "hub_mono", "paper_stacks", "fleet_evolve", "bus_chaos")
COLD = ("fleet_cold", "hub_mono")

#: Bound of a deterministic metric: it repeats bit for bit for a fixed
#: seed, so any difference is a change in simulated work.
EXACT = "exact"


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may get worse, or EXACT.
    bound: float | str
    workloads: tuple[str, ...]


#: Host-time metrics may get a tenth worse.
WALL = 0.10

END_TO_END = (
    EndToEnd("setup_s", "s", "lower", WALL, ALL),
    EndToEnd("op_ms_p50", "ms", "lower", WALL, ALL),
    EndToEnd("op_ms_p90", "ms", "lower", WALL, ("paper_stacks",)),
    EndToEnd("configure_ms_p50", "ms", "lower", WALL,
             COLD + ("paper_stacks", "fleet_evolve")),
    EndToEnd("deploy_ms_p50", "ms", "lower", WALL,
             COLD + ("paper_stacks", "bus_chaos")),
    EndToEnd("persist_ms_p50", "ms", "lower", WALL, COLD),
    EndToEnd("diagnose_ms_p50", "ms", "lower", WALL, ("hub_mono",)),
    EndToEnd("transition_ms_p50", "ms", "lower", WALL, ("fleet_evolve",)),
    EndToEnd("repair_ms_p50", "ms", "lower", WALL, ("fleet_evolve",)),
    EndToEnd("instances_per_s", "1/s", "higher", WALL,
             COLD + ("paper_stacks", "bus_chaos")),
    EndToEnd("peak_rss_mb", "MiB", "lower", WALL, ALL),
    EndToEnd("op_fail_share", "ratio", "lower", EXACT, ALL),
    EndToEnd("sim_makespan_s", "sim_s", "lower", EXACT, COLD + ("bus_chaos",)),
    EndToEnd("sim_repair_s", "sim_s", "lower", EXACT, ("fleet_evolve",)),
    EndToEnd("plan_fraction_max", "ratio", "lower", EXACT, ("fleet_evolve",)),
)

#: What ``BENCHMARK.json`` names as end-to-end metrics.  Its driver wants
#: every metric from every workload, never 0, and each spread over ten
#: runs inside its bound, which on the shared box the medians are not
#: (README.md, "Noise"): hence ``op_ms_quiet`` where one would expect
#: ``op_ms_p50``.  It is the driver's gate only; ``compare`` and the 15
#: metrics above do not know it.
CONTRACT = ("setup_s", "op_ms_quiet", "peak_rss_mb")


def quiet_ms(op_ms: list[float]) -> float:
    """The median operation time of the run's quietest half-second.

    Consecutive operations are grouped into blocks of at least 500 ms;
    the result is the smallest block median.  Neighbours on the host
    only ever add time, in bursts, so the quietest block is the closest
    a run gets to what the code costs.  An operation longer than a block
    is a block of its own, which makes this the fastest operation on the
    fleet-sized workloads."""
    medians: list[float] = []
    block: list[float] = []
    for sample in op_ms:
        block.append(sample)
        if sum(block) >= 500.0:
            medians.append(statistics.median(block))
            block = []
    return min(medians) if medians else statistics.median(block)


def end_to_end(workload: str, records: list[dict], setup_s: tuple[float, int],
               peak_rss_mb: float) -> dict[str, dict]:
    """Reduce the timed operations of one untraced run.  An operation
    that raised has only the phases it reached, and none of the output
    values; a metric none of the operations has a sample for is
    ``None`` with ``n`` 0."""

    def median(samples: list[float]) -> tuple[float | None, int]:
        return (statistics.median(samples) if samples else None), len(samples)

    def having(key: str) -> list[float]:
        return [r[key] for r in records if key in r]

    op_ms = [r["phase_ms"]["op"] for r in records]
    repairs = [s for sample in having("sim_repair_s") for s in sample]
    values: dict[str, tuple[float | None, int]] = {
        "setup_s": setup_s,
        # Needs about a hundred samples for ten to lie beyond it.
        "op_ms_p90": (statistics.quantiles(op_ms, n=10)[-1], len(op_ms))
        if len(op_ms) >= 100 else (None, len(op_ms)),
        "instances_per_s": (
            sum(having("instances")) / (sum(op_ms) / 1000.0), len(records)
        ),
        "peak_rss_mb": (peak_rss_mb, 1),
        "op_fail_share": (
            sum(not r["ok"] for r in records) / len(records), len(records)
        ),
        "sim_makespan_s": median(having("sim_makespan_s")),
        "sim_repair_s": median(repairs),
        "plan_fraction_max": (
            max(having("plan_fraction"), default=None), len(records)
        ),
    }
    for phase in ("op", "configure", "deploy", "persist", "diagnose",
                  "transition", "repair"):
        values[f"{phase}_ms_p50"] = median(
            [r["phase_ms"][phase] for r in records if phase in r["phase_ms"]]
        )
    return {
        metric.name: {
            "value": values[metric.name][0], "unit": metric.unit,
            "n": values[metric.name][1],
        }
        for metric in END_TO_END if workload in metric.workloads
    }


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: self / total / calls of a span, a count, a ratio of counts, or a
    #: value the run supplies ("given").
    kind: str
    source: object = None


def _ratio(numerator: str, *rest: str) -> tuple:
    return (numerator,), (numerator,) + rest


PER_LAYER = (
    PerLayer("dsl.partial_from_json_ms", "ms", "lower", "self", "dsl.partial_from_json"),
    PerLayer("dsl.full_to_json_ms", "ms", "lower", "self", "dsl.full_to_json"),
    PerLayer("dsl.load_resources_ms", "ms", "lower", "self", "dsl.load_resources"),
    PerLayer("dsl.full_spec_bytes", "bytes", "lower", "count"),
    PerLayer("config.hypergraph.generate_graph_ms", "ms", "lower", "self",
             "config.hypergraph.generate_graph"),
    PerLayer("config.hypergraph.nodes", "count", "lower", "count"),
    PerLayer("config.hypergraph.edges", "count", "lower", "count"),
    PerLayer("config.partition.partition_graph_ms", "ms", "lower", "self",
             "config.partition.partition_graph"),
    PerLayer("config.partition.merge_specs_ms", "ms", "lower", "self",
             "config.partition.merge_specs"),
    PerLayer("config.partition.components", "count", "higher", "count"),
    PerLayer("config.partition.largest_component_nodes", "count", "lower", "count"),
    PerLayer("config.constraints.generate_ms", "ms", "lower", "self",
             "config.constraints.generate"),
    PerLayer("config.constraints.variables", "count", "lower", "count"),
    PerLayer("config.constraints.clauses", "count", "lower", "count"),
    PerLayer("sat.solve_ms", "ms", "lower", "self", "sat.solve"),
    PerLayer("sat.solve_calls", "count", "lower", "calls", "sat.solve"),
    PerLayer("sat.canonical_model_ms", "ms", "lower", "self", "sat.canonical_model"),
    PerLayer("sat.decisions", "count", "lower", "count"),
    PerLayer("sat.conflicts", "count", "lower", "count"),
    PerLayer("sat.propagations", "count", "lower", "count"),
    PerLayer("config.propagation.propagate_ms", "ms", "lower", "self",
             "config.propagation.propagate"),
    PerLayer("config.typecheck.check_spec_ms", "ms", "lower", "self",
             "config.typecheck.check_spec"),
    PerLayer("config.engine.selected_nodes_ms", "ms", "lower", "self",
             "config.engine.selected_nodes"),
    PerLayer("config.engine.unattributed_ms", "ms", "lower", "given"),
    PerLayer("config.explain.explain_unsat_ms", "ms", "lower", "self",
             "config.explain.explain_unsat"),
    PerLayer("config.session.configure_ms", "ms", "lower", "self",
             "config.session.configure"),
    PerLayer("config.session.graph_hit_rate", "ratio", "higher", "ratio",
             _ratio("config.session.graph_hits", "config.session.graph_misses")),
    PerLayer("config.session.solver_reuse_rate", "ratio", "higher", "ratio",
             _ratio("config.session.solver_reuses", "config.session.solver_builds")),
    PerLayer("config.session.typecheck_skip_rate", "ratio", "higher", "ratio",
             _ratio("config.session.typecheck_skips", "config.session.typecheck_runs")),
    PerLayer("config.parallel.pool2_configure_ms", "ms", "lower", "given"),
    PerLayer("runtime.deploy.deploy_ms", "ms", "lower", "self", "runtime.deploy.deploy"),
    PerLayer("runtime.deploy.prepare_ms", "ms", "lower", "self", "runtime.deploy.prepare"),
    PerLayer("runtime.deploy.drive_instances_ms", "ms", "lower", "self",
             "runtime.deploy.drive_instances"),
    PerLayer("runtime.deploy.actions", "count", "lower", "count"),
    PerLayer("runtime.deploy.retries", "count", "lower", "count"),
    PerLayer("runtime.scheduler.run_ms", "ms", "lower", "self", "runtime.scheduler.run"),
    PerLayer("drivers.perform_ms", "ms", "lower", "self", "drivers.perform"),
    PerLayer("drivers.perform_calls", "count", "lower", "calls", "drivers.perform"),
    PerLayer("runtime.journal.record_ms", "ms", "lower", "self", "runtime.journal.record"),
    PerLayer("runtime.journal.records", "count", "lower", "calls", "runtime.journal.record"),
    PerLayer("runtime.journal.rebase_ms", "ms", "lower", "self", "runtime.journal.rebase"),
    PerLayer("runtime.state.save_system_ms", "ms", "lower", "self",
             "runtime.state.save_system"),
    PerLayer("sim.persistence.save_world_ms", "ms", "lower", "self",
             "sim.persistence.save_world"),
    PerLayer("runtime.state.bundle_bytes", "bytes", "lower", "count"),
    PerLayer("runtime.delta.plan_delta_ms", "ms", "lower", "self",
             "runtime.delta.plan_delta"),
    PerLayer("runtime.delta.execute_delta_ms", "ms", "lower", "self",
             "runtime.delta.execute_delta"),
    PerLayer("runtime.delta.plan_steps", "count", "lower", "count"),
    PerLayer("runtime.reconcile.detect_drift_ms", "ms", "lower", "self",
             "runtime.reconcile.detect_drift"),
    PerLayer("runtime.reconcile.plan_repair_ms", "ms", "lower", "self",
             "runtime.reconcile.plan_repair"),
    PerLayer("runtime.reconcile.execute_plan_ms", "ms", "lower", "self",
             "runtime.reconcile.execute_plan"),
    PerLayer("runtime.reconcile.drift_items", "count", "lower", "count"),
    PerLayer("runtime.reconcile.plan_steps", "count", "lower", "count"),
    PerLayer("runtime.bus.send_ms", "ms", "lower", "self", "runtime.bus.send"),
    PerLayer("runtime.bus.deliver_due_ms", "ms", "lower", "self",
             "runtime.bus.deliver_due"),
    PerLayer("runtime.bus.sent", "count", "lower", "count"),
    PerLayer("runtime.bus.delivered", "count", "lower", "count"),
    PerLayer("runtime.bus.delivery_ratio", "ratio", "higher", "ratio",
             (("runtime.bus.delivered",), ("runtime.bus.sent",))),
    PerLayer("runtime.coordinator.deploy_ms", "ms", "lower", "self",
             "runtime.coordinator.deploy"),
    PerLayer("runtime.coordinator.clean_deploy_ms", "ms", "lower", "total",
             "phase.clean_deploy"),
    PerLayer("runtime.coordinator.sim_clean_makespan_s", "sim_s", "lower", "count"),
    PerLayer("runtime.coordinator.retransmits", "count", "lower", "count"),
    PerLayer("runtime.coordinator.redundant_acks", "count", "lower", "count"),
    PerLayer("runtime.coordinator.work_executions", "count", "lower", "count"),
    PerLayer("runtime.coordinator.work_resumes", "count", "lower", "count"),
    PerLayer("runtime.coordinator.useful_work_ratio", "ratio", "higher", "ratio",
             (("runtime.coordinator.machines",),
              ("runtime.coordinator.work_executions",
               "runtime.coordinator.work_resumes"))),
    PerLayer("runtime.coordinator.fingerprint_ms", "ms", "lower", "self",
             "runtime.coordinator.fingerprint"),
    PerLayer("sim.faults.link_copies_ms", "ms", "lower", "self", "sim.faults.link_copies"),
    PerLayer("sim.faults.link_decisions", "count", "lower", "calls",
             "sim.faults.link_copies"),
    PerLayer("sim.faults.churn_machines_lost", "count", "lower", "count"),
    PerLayer("obs.traced_op_ms_p50", "ms", "lower", "given"),
    PerLayer("obs.tracer_enabled_deploy_pct", "%", "lower", "given"),
)

#: Added by ``bench.py run --trace 1``, which has both passes to compare.
TRACE_OVERHEAD = PerLayer("obs.bench_trace_overhead_pct", "%", "lower", "given")


def per_layer(spans: list[list], counts: dict[str, float], ops: int,
              missing: list[str], given: dict) -> dict[str, dict]:
    """Reduce one traced run to per-operation layer metrics.

    A layer the workload never calls reads 0; a metric whose callable no
    longer exists reads ``None``."""
    totals = totals_by_name(spans)

    def span_total(name: str) -> list[float]:
        tree = "replay" if name in REPLAY_STAGES else "op"
        return totals.get((tree, name), [0.0, 0.0, 0])

    values: dict[str, dict] = {}
    for metric in PER_LAYER:
        if metric.kind in ("self", "total", "calls"):
            column = ("self", "total", "calls").index(metric.kind)
            value = (None if metric.source in missing
                     else span_total(metric.source)[column] / ops)
        elif metric.kind == "count":
            value = counts.get(metric.name, 0.0) / ops
        elif metric.kind == "ratio":
            numerator, denominator = (
                sum(counts.get(name, 0.0) for name in names)
                for names in metric.source
            )
            value = numerator / denominator if denominator else 0.0
        else:
            value = given.get(metric.name, 0.0)
        values[metric.name] = {"value": value, "unit": metric.unit}
    return values


def unattributed_ms(spans: list[list], ops: int) -> float:
    """Engine ``configure`` wall minus the replay's staged stages, per
    operation: the engine's glue between its stages."""
    totals = totals_by_name(spans)
    engine = sum(
        totals.get(("op", name), [0.0, 0.0])[1]
        for name in ("config.engine.configure", "config.session.configure")
    )
    replay = totals.get(("replay", "replay"), [0.0, 0.0])
    return (engine - (replay[1] - replay[0])) / ops
