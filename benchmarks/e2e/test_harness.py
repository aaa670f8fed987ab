"""Tests of the benchmark harness itself.

Outside the tier-1 ``testpaths``; run explicitly:

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_harness.py -q

(``benchmarks/conftest.py``, which pytest loads on the way here, imports
``repro`` before ``bench`` has put ``src/`` on the path.)
"""

from __future__ import annotations

import itertools
import json
import types

import pytest

import bench  # noqa: E402 -- puts src/ on sys.path
import layers
import metrics
import workloads
from spans import Tracer, child_coverage, self_times, totals_by_name


# -- Generators -----------------------------------------------------------


def test_hub_is_one_component_and_its_mutant_is_unsatisfiable():
    import repro.config as config
    from repro.config.hypergraph import generate_graph
    from repro.config.partition import partition_graph
    from repro.core.errors import UnsatisfiableError

    registry = workloads.library.standard_registry()
    graph = generate_graph(registry, workloads.hub_partial())
    assert len(graph) == 1026
    assert len(partition_graph(graph).components) == 1
    with pytest.raises(UnsatisfiableError):
        config.ConfigurationEngine(registry, partition=True).configure(
            workloads.hub_partial(conflict_host=17)
        )


def test_generators_are_functions_of_seed_and_index():
    assert workloads.mutant_host(11, 3) == workloads.mutant_host(11, 3)
    assert workloads.paper_order(11) == workloads.paper_order(11)
    assert workloads.paper_order(11) != workloads.paper_order(12)
    assert sorted(workloads.paper_order(12)) == sorted(workloads.paper_order(11))
    hosts = [f"host{n:03d}" for n in range(32)]
    first, second = (workloads.chaos_for(11, 5, hosts) for _ in range(2))
    assert first[1] == second[1] and first[0].seed == second[0].seed
    targets = list(itertools.islice(workloads.evolve_targets(11), 42))
    assert targets == list(itertools.islice(workloads.evolve_targets(11), 42))
    assert len(set(targets)) == len(targets), "a revisit would hit the cache"
    steps = [b - a for a, b in zip([workloads.EVOLVE_REPLICAS] + targets, targets)]
    assert all(1 <= abs(step) <= 20 for step in steps)
    assert all(step > 0 for step in steps[:12])      # 2 warm-ups + 10 ops grow
    assert all(step < 0 for step in steps[12:22])    # the next 10 shrink


# -- Spans ----------------------------------------------------------------


def synthetic_spans():
    # op [0, 10] -> a [1, 4] -> b [2, 3]; op -> c [5, 9]; replay [10, 12] -> a [10, 11]
    return [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["replay", 10.0, 12.0, None, 0],
        ["a", 10.0, 11.0, 4, 0],
    ]


def test_self_time_is_duration_minus_covered_child_time():
    spans = synthetic_spans()
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0, 1.0]
    totals = totals_by_name(spans)
    assert totals["op", "a"] == [2000.0, 3000.0, 1]
    assert totals["replay", "a"] == [1000.0, 1000.0, 1]
    assert child_coverage(spans, "op") == pytest.approx(0.7)
    # engine wall 0 here, staged stages 1 s over 1 op
    assert metrics.unattributed_ms(spans, 1) == pytest.approx(-1000.0)


def test_tracer_nests_counts_and_restores_wrapped_callables():
    class Layer:
        def work(self, n):
            return n + 1

    module = types.SimpleNamespace(helper=lambda: "real")
    tracer = Tracer()
    assert tracer.wrap(Layer, "work", "layer.work")
    assert tracer.wrap(module, "helper", "layer.helper")
    with tracer.span("op"):
        assert Layer().work(1) == 2
        assert module.helper() == "real"
    tracer.unwrap()
    assert [span[0] for span in tracer.spans] == ["op", "layer.work", "layer.helper"]
    assert [span[3] for span in tracer.spans] == [None, 0, 0]
    assert Layer.work.__name__ == "work" and len(tracer.spans) == 3
    Layer().work(1)
    assert len(tracer.spans) == 3, "unwrap() must take the wrapper off"


def test_a_missing_callable_reads_null_not_a_crash(monkeypatch):
    tracer = Tracer()
    assert not tracer.wrap(types.SimpleNamespace(), "gone", "layer.gone")
    assert not tracer.wrap(None, "gone", "layer.gone")
    assert not tracer.wrap_function("repro.runtime.delta", "gone", "layer.gone")

    monkeypatch.setattr(layers, "WRAPPED", layers.WRAPPED + (
        ("repro.runtime.delta", None, "deleted_later", "runtime.delta.plan_delta"),
        ("repro.no_such_module", None, "anything", "runtime.bus.send"),
        ("repro.runtime.bus", "MessageBus", "deleted_later", "runtime.bus.send"),
    ))
    monkeypatch.delattr("repro.sim.faults.LinkFaultPlan.copies")
    try:
        missing = layers.install(tracer)
    finally:
        tracer.unwrap()
    # A span keeps its metric while any callable behind it survives.
    assert missing == ["sim.faults.link_copies"]

    values = metrics.per_layer([], {}, 1, missing, {})
    assert values["sim.faults.link_copies_ms"]["value"] is None
    assert values["sim.faults.link_decisions"]["value"] is None
    assert values["runtime.bus.send_ms"]["value"] == 0.0
    line = json.loads(bench.contract_line({
        "traced": True, "correct": True, "attempted": 1, "failed": 0,
        "per_layer": values,
    }))
    assert line["metrics"]["sim.faults.link_copies_ms"]["value"] == 0.0
    assert set(line["metrics"]) == {m.name for m in metrics.PER_LAYER}


# -- compare --------------------------------------------------------------


def report(**changes):
    """A minimal two-workload result; ``changes`` maps
    ``workload__metric`` to a value."""
    def entry(name):
        values = {
            "setup_s": 2.0, "op_ms_p50": 100.0, "op_ms_p90": 200.0,
            "configure_ms_p50": 40.0, "deploy_ms_p50": 30.0,
            "persist_ms_p50": 20.0, "diagnose_ms_p50": 10.0,
            "transition_ms_p50": 15.0, "repair_ms_p50": 5.0,
            "instances_per_s": 1000.0, "peak_rss_mb": 50.0,
            "op_fail_share": 0.0, "sim_makespan_s": 1234.5,
            "sim_repair_s": 60.0, "plan_fraction_max": 0.05,
        }
        return {"end_to_end": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in metrics.END_TO_END if name in metric.workloads
        }}

    result = {
        "schema": bench.SCHEMA, "comparable": True, "seed": 11,
        "seconds": None,
        "workloads": {name: entry(name) for name in ("hub_mono", "fleet_evolve")},
    }
    for key, value in changes.items():
        workload, metric = key.split("__")
        result["workloads"][workload]["end_to_end"][metric]["value"] = value
    return result


def compare(tmp_path, capsys, a, b):
    for name, content in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(content), encoding="utf-8")
    code = bench.main(
        ["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    )
    return code, capsys.readouterr().out


def test_compare_accepts_a_run_against_itself(tmp_path, capsys):
    code, out = compare(tmp_path, capsys, report(), report())
    assert code == 0 and "regressed" not in out and "improved" not in out


def test_compare_flags_a_breach_and_an_improvement(tmp_path, capsys):
    code, out = compare(
        tmp_path, capsys, report(),
        report(hub_mono__op_ms_p50=130.0, hub_mono__instances_per_s=1300.0,
               hub_mono__peak_rss_mb=54.0, fleet_evolve__setup_s=2.18,
               fleet_evolve__peak_rss_mb=56.0),
    )
    assert code == 1
    rows = {tuple(line.split()[:2]): line for line in out.splitlines()}
    assert rows["hub_mono", "op_ms_p50"].endswith("regressed")
    assert "+30.0%" in rows["hub_mono", "op_ms_p50"]
    assert rows["hub_mono", "instances_per_s"].endswith("improved")
    assert rows["hub_mono", "peak_rss_mb"].endswith("ok")           # +8% < 10%
    assert rows["fleet_evolve", "setup_s"].endswith("ok")           # +9% < 10%
    assert rows["fleet_evolve", "peak_rss_mb"].endswith("regressed")  # +12%
    # Lower throughput is the worse direction for a higher-is-better metric.
    code, out = compare(
        tmp_path, capsys, report(), report(hub_mono__instances_per_s=700.0)
    )
    assert code == 1 and "+30.0%" in out


def test_compare_holds_deterministic_metrics_to_equality(tmp_path, capsys):
    code, out = compare(
        tmp_path, capsys, report(),
        report(hub_mono__sim_makespan_s=1234.5000001),
    )
    assert code == 1
    assert any(line.startswith("hub_mono") and "sim_makespan_s" in line
               and line.endswith("regressed") for line in out.splitlines())
    code, _ = compare(
        tmp_path, capsys, report(), report(fleet_evolve__op_fail_share=0.05)
    )
    assert code == 1


def test_compare_refuses_what_is_not_comparable(tmp_path, capsys):
    smoke = report()
    smoke["comparable"] = False
    code, out = compare(tmp_path, capsys, report(), smoke)
    assert code == 2 and "not comparable" in out
    other_seed = report()
    other_seed["seed"] = 12
    code, out = compare(tmp_path, capsys, report(), other_seed)
    assert code == 2 and "seed" in out


# -- The definition files agree -------------------------------------------


def test_benchmark_json_names_what_the_code_reports():
    contract = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/e2e"]
    assert ([w["name"] for w in contract["workloads"]]
            == list(workloads.WORKLOADS) == list(metrics.ALL))
    # The bounds there belong to the driver's ten-seed protocol, not to
    # compare; the names are what a --trace 0 run ends with.
    assert ([m["name"] for m in contract["end_to_end"]]
            == list(metrics.CONTRACT))
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    for name in workloads.WORKLOADS:
        assert (bench.GOLDEN / f"{name}.json").exists()


# -- Failed operations ----------------------------------------------------


def test_an_operation_that_raises_is_a_failed_operation(monkeypatch):
    """Even the first one: its record has no phases and no outputs."""
    real = workloads.BusChaosWorkload.run_op

    def run_op(self, op, inputs):
        if inputs["key"].endswith("/0"):
            raise RuntimeError("boom")
        return real(self, op, inputs)

    monkeypatch.setattr(workloads.BusChaosWorkload, "run_op", run_op)
    result = bench.run_workload(
        "bus_chaos", seed=bench.DEFAULT_SEED, seconds=None, ops=2, traced=False
    )
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert not result["correct"] and "boom" in result["problems"][0]
    values = result["end_to_end"]
    assert values["op_fail_share"]["value"] == 0.5
    assert values["deploy_ms_p50"]["n"] == values["sim_makespan_s"]["n"] == 1
    assert values["op_ms_p50"]["n"] == 2

    # Every operation raising leaves the phase metrics without a sample.
    raised = {"ok": False, "golden": False, "phase_ms": {"op": 1.0}}
    values = metrics.end_to_end("fleet_evolve", [raised], (1.0, 3), 10.0)
    assert values["op_fail_share"]["value"] == 1.0
    for name in ("configure_ms_p50", "sim_repair_s", "plan_fraction_max"):
        assert values[name]["value"] is None
    assert values["configure_ms_p50"]["n"] == 0


# -- Two-operation smoke of every workload, both passes --------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_two_op_smoke(name):
    untraced = bench.run_workload(
        name, seed=bench.DEFAULT_SEED, seconds=None, ops=2, traced=False
    )
    assert untraced["correct"], untraced["problems"]
    assert (untraced["attempted"], untraced["failed"]) == (2, 0)
    assert untraced["golden_checked"] == 2
    reported = set(untraced["end_to_end"])
    assert reported == {m.name for m in metrics.END_TO_END
                        if name in m.workloads}
    line = json.loads(bench.contract_line(untraced))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    contract = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert ({key: entry["unit"] for key, entry in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in contract["end_to_end"]})
    assert all(entry["value"] > 0 for entry in line["metrics"].values())

    traced = bench.run_workload(
        name, seed=bench.DEFAULT_SEED, seconds=None, ops=2, traced=True
    )
    assert traced["correct"], traced["problems"]  # replay byte-equal too
    assert traced["op_child_coverage_min"] >= 0.9
    assert all(entry["value"] is not None
               for entry in traced["per_layer"].values())
    # The wrappers are gone again.
    import repro.runtime as runtime
    assert runtime.plan_delta.__module__ == "repro.runtime.delta"
    assert not hasattr(runtime.plan_delta, "__wrapped__")
