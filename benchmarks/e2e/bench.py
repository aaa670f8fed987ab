"""The end-to-end benchmark: five workloads, one metric vocabulary.

    python3 benchmarks/e2e/bench.py list
    python3 benchmarks/e2e/bench.py run [--trace 1] [--seed N] [--out FILE]
    python3 benchmarks/e2e/bench.py validate
    python3 benchmarks/e2e/bench.py compare A.json B.json

``run`` runs the five workloads one after another, each in a fresh
interpreter, single-threaded, closed loop with one client, and prints
every metric by name with its unit.  ``run --workload NAME`` runs one
pass of one workload in this interpreter and ends with the one-line JSON
result that ``BENCHMARK.json``'s contract asks for.  See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from here, imports included

import argparse
import datetime
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden"
#: Everything a run writes (persisted bundles, trace files) goes here.
WORK = HERE / ".work"
SCHEMA = "engage-e2e-bench-1"
DEFAULT_SEED = 11

sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402 -- these need src/ on the path, and fail
import metrics  # noqa: E402    without it: no result from a bare directory
import workloads  # noqa: E402
from spans import Op, Tracer, child_coverage  # noqa: E402

IMPORTED = time.perf_counter()
#: A run sets up this often and reports the median, as ``BENCHMARK.json``'s
#: contract asks, so that one burst of noise does not decide ``setup_s``.
SETUP_REPEATS = 3


# -- One workload, one pass, this interpreter -----------------------------


def rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_workload(name: str, *, seed: int, seconds: float | None,
                 ops: int | None, traced: bool,
                 write_golden: bool = False) -> dict:
    load_start = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    golden_path = GOLDEN / f"{name}.json"
    golden: dict = {}
    if golden_path.exists() and not write_golden:
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
    seen: dict = {}
    problems: list[str] = []
    tracer: Tracer | None = None
    uncollected_ms = 250.0

    def one(index: int) -> dict:
        """Run operation ``index``; returns its record."""
        nonlocal uncollected_ms
        inputs = workload.inputs(index)
        op = Op(tracer)
        if tracer is not None:
            tracer.op = index
        # Start operations from a collected heap, but do not let a full
        # collection per 5 ms operation eat the measuring time.
        if uncollected_ms >= 250.0:
            gc.collect()
            uncollected_ms = 0.0
        found: list[str] = []
        out: dict = {}
        try:
            with op.span("op", "op"):
                out = workload.run_op(op, inputs)
            record, found = workload.check(inputs, out)
            expected = golden.get(inputs["key"])
            if expected is not None and expected != record:
                found.append(f"differs from golden {inputs['key']!r}")
            seen[inputs["key"]] = record
            if tracer is not None:
                found += workload.replay(tracer, inputs, out)
        except Exception as exc:  # a failed operation, not a failed run
            found.append(f"raised {exc!r}")
        uncollected_ms += op.phase_ms["op"]
        problems.extend(f"op {index}: {problem}" for problem in found)
        return {
            "ok": not found, "golden": inputs["key"] in golden,
            "phase_ms": dict(op.phase_ms),
            **{key: out[key] for key in
               ("instances", "sim_makespan_s", "sim_repair_s", "plan_fraction")
               if key in out},
        }

    try:
        setups: list[float] = []
        for _ in range(SETUP_REPEATS):
            workload = None  # let go of one fleet before building the next
            started = time.perf_counter()
            workload = workloads.WORKLOADS[name](seed, scratch)
            for index in range(-workloads.WARMUP_OPS, 0):
                one(index)
            setups.append(time.perf_counter() - started)
        # The imports happen once; everything after them, the median.
        setup_s = IMPORTED - STARTED + statistics.median(setups)

        missing: list[str] = []
        if traced:
            tracer = Tracer()
            missing = layers.install(tracer)
            for span in missing:
                print(f"warning: {span} is gone; its metrics are null",
                      file=sys.stderr)
        limit = ops if ops is not None else (
            workload.ops if seconds is None else None
        )
        deadline = None if seconds is None else time.perf_counter() + seconds
        records: list[dict] = []
        peak_rss_kb = None
        try:
            while True:  # at least one operation, however short the run
                records.append(one(len(records)))
                # What a faster commit adds to a time-bounded run must not
                # read as memory: fleet_evolve's session keeps every step.
                if deadline is not None and len(records) == workload.ops // 3:
                    peak_rss_kb = rss_kb()
                if limit is not None and len(records) >= limit:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
        finally:
            if tracer is not None:
                tracer.unwrap()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not record["ok"] for record in records)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        # An op-count override is for smoke runs; compare refuses it.
        "ops_override": ops, "comparable": ops is None,
        "attempted": len(records), "failed": failed,
        "golden_checked": sum(record["golden"] for record in records),
        "problems": problems[:20],
        "correct": not problems,
    }
    if traced:
        given = workload.probes()
        result["notes"] = given.pop("notes", [])
        given["config.engine.unattributed_ms"] = metrics.unattributed_ms(
            tracer.spans, len(records)
        )
        given["obs.traced_op_ms_p50"] = statistics.median(
            record["phase_ms"]["op"] for record in records
        )
        result["per_layer"] = metrics.per_layer(
            tracer.spans, tracer.counts, len(records), missing, given
        )
        result["op_child_coverage_min"] = child_coverage(tracer.spans, "op")
        trace_file = WORK / f"trace-{name}.json"
        tracer.dump(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        op_ms = [record["phase_ms"]["op"] for record in records]
        result["setup_samples_s"] = [IMPORTED - STARTED, *setups]
        result["op_ms"] = [round(sample, 3) for sample in op_ms]
        result["op_ms_quiet"] = {
            "value": metrics.quiet_ms(op_ms), "unit": "ms", "n": len(op_ms),
        }
        result["end_to_end"] = metrics.end_to_end(
            name, records, (setup_s, len(setups)),
            (peak_rss_kb or rss_kb()) / 1024.0,
        )
    if write_golden:
        GOLDEN.mkdir(exist_ok=True)
        golden_path.write_text(
            json.dumps(seen, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
    result["loadavg_1m"] = [load_start, os.getloadavg()[0]]
    result["environment"] = environment(seed)
    return result


def contract_line(result: dict) -> str:
    """The one JSON object ``BENCHMARK.json``'s driver reads: the
    ``metrics.CONTRACT`` metrics of an untraced pass, or every per-layer
    metric of a traced one (a null there reads 0)."""
    if result["traced"]:
        chosen = {
            name: {"value": entry["value"] or 0.0, "unit": entry["unit"]}
            for name, entry in result["per_layer"].items()
        }
    else:
        known = {**result["end_to_end"], "op_ms_quiet": result["op_ms_quiet"]}
        chosen = {
            name: {key: known[name][key] for key in ("value", "unit")}
            for name in metrics.CONTRACT
        }
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": chosen,
    })


# -- All workloads, each in a fresh interpreter ---------------------------


def spawn(name: str, *options: str) -> dict:
    """Run one pass of one workload in a fresh interpreter."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as directory:
        out = pathlib.Path(directory) / "result.json"
        done = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), "run", "--workload", name,
             "--out", str(out), *options],
            stdout=subprocess.DEVNULL,
        )
        if not out.exists():  # exit 1 with a result is a failed check
            raise RuntimeError(
                f"{name} left no result (exit code {done.returncode})"
            )
        return json.loads(out.read_text(encoding="utf-8"))


def environment(seed: int) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*command: str) -> str:
            return subprocess.run(
                ["git", "-C", str(ROOT), *command],
                check=True, capture_output=True, text=True,
            ).stdout.strip()

        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain"))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": sha, "git_dirty": dirty, "seed": seed,
        "ops_defined": {
            name: workload.ops
            for name, workload in workloads.WORKLOADS.items()
        },
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
    }


def run_all(args) -> dict:
    options = ["--seed", str(args.seed)]
    if args.seconds is not None:
        options += ["--seconds", str(args.seconds)]
    if args.ops is not None:
        options += ["--ops", str(args.ops)]
    report = {
        "schema": SCHEMA, "comparable": args.ops is None,
        "environment": environment(args.seed),
        "seed": args.seed, "seconds": args.seconds, "workloads": {},
    }
    # The whole untraced pass first, so that its numbers are taken as in a
    # run without --trace 1, with no trace dump between two workloads.
    for name in workloads.WORKLOADS:
        entry = spawn(name, *options, "--trace", "0")
        report["workloads"][name] = entry
        if not args.trace:
            print_workload(entry)
    if args.trace:
        for name, entry in report["workloads"].items():
            traced = spawn(name, *options, "--trace", "1")
            untraced_p50 = entry["end_to_end"]["op_ms_p50"]["value"]
            traced_p50 = traced["per_layer"]["obs.traced_op_ms_p50"]["value"]
            traced["per_layer"][metrics.TRACE_OVERHEAD.name] = {
                "value": (traced_p50 / untraced_p50 - 1.0) * 100.0,
                "unit": metrics.TRACE_OVERHEAD.unit,
            }
            entry["traced_pass"] = traced
            print_workload(entry)
    return report


# -- Printing -------------------------------------------------------------


def shown(value: float | None) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_metrics(title: str, entries: dict) -> None:
    print(f"  {title}")
    for name, entry in entries.items():
        samples = f"n={entry['n']}" if "n" in entry else ""
        print(f"    {name:<46}{shown(entry['value']):>14} "
              f"{entry['unit']:<6} {samples}")


def print_workload(entry: dict) -> None:
    print(f"{entry['workload']}: seed {entry['seed']}, "
          f"{entry['attempted']} timed ops, {entry['failed']} failed, "
          f"{entry['golden_checked']} checked against goldens, "
          f"load {entry['loadavg_1m'][0]:.2f} -> {entry['loadavg_1m'][1]:.2f}")
    for problem in entry["problems"]:
        print(f"  PROBLEM {problem}")
    for title, pick in (
        ("end to end, host time", lambda unit: unit != "sim_s"),
        ("end to end, simulated time", lambda unit: unit == "sim_s"),
    ):
        chosen = {name: e for name, e in entry.get("end_to_end", {}).items()
                  if pick(e["unit"])}
        if chosen:
            print_metrics(title, chosen)
    if "op_ms_quiet" in entry:
        print_metrics("the driver's gate beside setup_s and peak_rss_mb "
                      "(BENCHMARK.json)", {"op_ms_quiet": entry["op_ms_quiet"]})
    traced = entry if entry["traced"] else entry.get("traced_pass")
    if traced is not None:
        print_metrics(
            "per layer, per operation (traced pass; sim_s is simulated)",
            traced["per_layer"],
        )
        print(f"    spans under an op cover at least "
              f"{traced['op_child_coverage_min']:.1%} of it; "
              f"trace in {traced['trace_file']}")
        for note in traced["notes"]:
            print(f"    note: {note}")


# -- Commands -------------------------------------------------------------


def command_list(_args) -> int:
    print("workloads:")
    for name, workload in workloads.WORKLOADS.items():
        print(f"  {name:<14}{workload.ops:>5} ops  {workload.why}")
    print("end-to-end metrics:")
    for metric in metrics.END_TO_END:
        bound = (metric.bound if metric.bound == metrics.EXACT
                 else f"{metric.bound:.0%}")
        print(f"  {metric.name:<20}{metric.unit:<7}{metric.better:<7}"
              f"bound {bound:<6} on {', '.join(metric.workloads)}")
    print(f"the driver's gate (BENCHMARK.json): {', '.join(metrics.CONTRACT)}")
    print("per-layer metrics:")
    for metric in metrics.PER_LAYER + (metrics.TRACE_OVERHEAD,):
        print(f"  {metric.name:<46}{metric.unit:<7}{metric.better}")
    return 0


def command_run(args) -> int:
    if args.workload is None:
        report = run_all(args)
        ok = all(entry["correct"] and
                 entry.get("traced_pass", entry)["correct"]
                 for entry in report["workloads"].values())
    else:
        report = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            ops=args.ops, traced=bool(args.trace),
        )
        ok = report["correct"]
        print_workload(report)
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8"
        )
    if args.workload is not None:
        print(contract_line(report))
    return 0 if ok else 1


def command_validate(args) -> int:
    """Every workload at its defined operations and the default seed,
    checked against the goldens; timings are not reported."""
    bad = 0
    for name in workloads.WORKLOADS:
        if args.write_golden:
            # In this interpreter: the run has to hand back its records.
            entry = run_workload(
                name, seed=DEFAULT_SEED, seconds=None, ops=None,
                traced=False, write_golden=True,
            )
        else:
            entry = spawn(name, "--seed", str(DEFAULT_SEED))
        unchecked = (0 if args.write_golden
                     else entry["attempted"] - entry["golden_checked"])
        verdict = "ok" if entry["correct"] and not unchecked else "FAILED"
        bad += verdict != "ok"
        print(f"{name}: {entry['attempted']} ops, {entry['failed']} failed, "
              f"{unchecked} without a golden: {verdict}")
        for problem in entry["problems"]:
            print(f"  {problem}")
    return 1 if bad else 0


def command_compare(args) -> int:
    reports = []
    for path in (args.a, args.b):
        report = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        if report.get("schema") != SCHEMA:
            print(f"error: {path} is not a {SCHEMA} result")
            return 2
        if not report["comparable"]:
            print(f"error: {path} is not comparable (op-count override)")
            return 2
        reports.append(report)
    a, b = reports
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print("error: the runs differ in seed or --seconds")
        return 2
    breaches = 0
    print(f"{'workload':<14}{'metric':<20}{'A':>14}{'B':>14}"
          f"{'change':>9}{'bound':>7}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"][name]
        for metric in metrics.END_TO_END:
            if name not in metric.workloads:
                continue
            value_a = entry_a["end_to_end"][metric.name]["value"]
            value_b = entry_b["end_to_end"][metric.name]["value"]
            change, bound = "", "exact"
            if metric.bound == metrics.EXACT or None in (value_a, value_b):
                verdict = "ok" if value_a == value_b else "regressed"
            else:
                worse = (value_b - value_a) / value_a
                if metric.better == "higher":
                    worse = -worse
                change, bound = f"{worse:+.1%}", f"{metric.bound:.0%}"
                verdict = ("regressed" if worse > metric.bound else
                           "improved" if worse < -metric.bound else "ok")
            breaches += verdict == "regressed"
            print(f"{name:<14}{metric.name:<20}{shown(value_a):>14}"
                  f"{shown(value_b):>14}{change:>9}{bound:>7}  {verdict}")
    print(f"{breaches} breach(es); 'change' is how much worse B is than A")
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.py", description=__doc__.split("\n\n")[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="workloads and metrics")
    run = commands.add_parser("run", help="run the workloads")
    run.add_argument("--workload", help="one workload, in this interpreter")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float,
                     help="stop the timed loop after this long")
    run.add_argument("--ops", type=int,
                     help="smoke use: result is marked not comparable")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 is the traced pass: with --workload instead of "
                     "the untraced one, without it after the untraced one")
    run.add_argument("--out", help="write the full result as JSON")
    validate = commands.add_parser(
        "validate", help="check every workload against its goldens"
    )
    validate.add_argument(
        "--write-golden", action="store_true",
        help="regenerate golden/*.json (only in a change to the benchmark)",
    )
    compare = commands.add_parser("compare", help="compare two run results")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    return {
        "list": command_list, "run": command_run,
        "validate": command_validate, "compare": command_compare,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
