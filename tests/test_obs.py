"""Observability: tracer, metrics, exporters, and the zero-overhead
contract, plus the PR's satellite bug regressions (monitor idempotency,
retry validation, journal partition symmetry)."""

import io
import json

import pytest

from repro.cli import main
from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import DeploymentError, RuntimeEngageError
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    trace_from_clock_events,
    validate_chrome_trace,
)
from repro.runtime import (
    MONIT_KEY,
    DeploymentEngine,
    DeploymentJournal,
    JournalEntry,
    ProcessMonitor,
    RetryPolicy,
    add_monitoring,
    provision_partial_spec,
)
from repro.sim import FaultPlan


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# -- Tracer and metrics units -------------------------------------------


class TestTracer:
    def test_span_and_instant_collection(self):
        tracer = Tracer()
        tracer.span("install", category="action", start=1.0, duration=2.0,
                    lane="host1", instance="a")
        tracer.instant("ready", category="scheduler", timestamp=0.5,
                       lane="host1", instance="b")
        assert len(tracer) == 2
        assert [e.name for e in tracer.sorted_events()] == [
            "ready", "install",
        ]
        assert tracer.spans(category="action")[0].end == 3.0
        assert tracer.instants(category="scheduler")[0].args == {
            "instance": "b",
        }

    def test_instant_defaults_to_clock_now(self):
        infrastructure = standard_infrastructure()
        infrastructure.clock.advance(7.5, "setup")
        tracer = Tracer(clock=infrastructure.clock)
        event = tracer.instant("tick", category="clock")
        assert event.timestamp == 7.5

    def test_seq_breaks_timestamp_ties_deterministically(self):
        tracer = Tracer()
        for name in ("first", "second", "third"):
            tracer.instant(name, category="x", timestamp=1.0)
        assert [e.name for e in tracer.sorted_events()] == [
            "first", "second", "third",
        ]


class TestMetrics:
    def test_counters_and_histograms(self):
        metrics = MetricsRegistry()
        metrics.counter("deploy.actions").inc()
        metrics.counter("deploy.actions").inc(2)
        metrics.histogram("backoff").observe(1.0)
        metrics.histogram("backoff").observe(3.0)
        assert metrics.counter("deploy.actions").value == 3
        hist = metrics.histogram("backoff")
        assert (hist.count, hist.total) == (2, 4.0)
        assert (hist.minimum, hist.maximum, hist.mean) == (1.0, 3.0, 2.0)

    def test_render_and_payload(self):
        metrics = MetricsRegistry()
        metrics.counter("b").inc()
        metrics.counter("a").inc()
        metrics.histogram("h").observe(2.0)
        text = metrics.render()
        assert text.startswith("metrics:\n")
        # Sorted name order, counters then histograms.
        assert text.index("  a ") < text.index("  b ")
        assert "count=1" in text
        payload = metrics.to_payload()
        assert payload["counters"] == {"a": 1, "b": 1}
        assert payload["histograms"]["h"]["count"] == 1


# -- Chrome trace export ------------------------------------------------


class TestChromeExport:
    def test_structure_and_unit_conversion(self):
        tracer = Tracer()
        tracer.span("install", category="action", start=1.5, duration=0.25,
                    lane="host1")
        tracer.instant("fault", category="fault", timestamp=2.0,
                       lane="faults")
        payload = chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"] if e["ph"] == "M"
        }
        assert names == {"engage-sim", "faults", "host1"}
        span = next(e for e in payload["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 1.5e6 and span["dur"] == 0.25e6
        instant = next(e for e in payload["traceEvents"] if e["ph"] == "i")
        assert instant["s"] == "t" and instant["ts"] == 2.0e6

    def test_metrics_ride_in_other_data(self):
        tracer = Tracer()
        tracer.metrics.counter("n").inc()
        payload = chrome_trace(tracer)
        assert payload["otherData"]["metrics"]["counters"] == {"n": 1}

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace([]) == [
            "top level must be a JSON object"
        ]
        assert validate_chrome_trace({}) == ["'traceEvents' must be a list"]
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "Z"},
                    {"ph": "X", "name": 3, "pid": "x", "tid": 0,
                     "ts": "soon", "cat": "c", "dur": -1},
                    {"ph": "i", "name": "ok", "pid": 1, "tid": 1,
                     "ts": 0, "cat": "c", "s": "q"},
                ]
            }
        )
        assert any("unknown phase" in p for p in problems)
        assert any("'name' must be a string" in p for p in problems)
        assert any("'dur' must be" in p for p in problems)
        assert any("instant scope" in p for p in problems)


# -- Emission through a real deployment ---------------------------------


def _traced_openmrs_deploy(openmrs_partial, *, jobs=4, chaos=False):
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    tracer = Tracer(clock=infrastructure.clock)
    infrastructure.set_tracer(tracer)
    if chaos:
        infrastructure.set_fault_plan(FaultPlan.seeded(7, 0.6))
    drivers = standard_drivers()
    partial = provision_partial_spec(registry, openmrs_partial, infrastructure)
    engine = ConfigurationEngine(registry, tracer=tracer)
    spec = engine.configure(partial).spec
    policy = RetryPolicy(max_attempts=4, backoff_base=0.5) if chaos else None
    deploy = DeploymentEngine(
        registry, infrastructure, drivers, jobs=jobs, policy=policy
    )
    system = deploy.deploy(spec)
    return tracer, system


class TestDeployTracing:
    def test_one_action_span_per_report_record(self, openmrs_partial):
        tracer, system = _traced_openmrs_deploy(openmrs_partial)
        spans = tracer.spans(category="action")
        assert len(spans) == len(system.report.actions)
        recorded = {
            (r.instance_id, r.action, r.attempt)
            for r in system.report.actions
        }
        emitted = {
            (s.args["instance"], s.name, s.args["attempt"]) for s in spans
        }
        assert emitted == recorded

    def test_chaos_emits_faults_retries_and_backoff(self, openmrs_partial):
        tracer, system = _traced_openmrs_deploy(openmrs_partial, chaos=True)
        report = system.report
        assert report.retries > 0  # the seed must actually inject
        metrics = tracer.metrics
        assert metrics.counter("deploy.actions").value == len(report.actions)
        assert metrics.counter("deploy.failed_attempts").value == (
            report.retries
        )
        assert metrics.counter("faults.injected").value == len(
            tracer.instants(category="fault")
        ) > 0
        backoffs = tracer.spans(category="backoff")
        assert len(backoffs) == metrics.histogram(
            "deploy.backoff_seconds"
        ).count
        assert abs(
            sum(s.duration for s in backoffs)
            - report.total_backoff_seconds
        ) < 1e-9

    def test_scheduler_and_config_events(self, openmrs_partial):
        tracer, system = _traced_openmrs_deploy(openmrs_partial)
        dispatches = [
            e for e in tracer.instants(category="scheduler")
            if e.name == "dispatch"
        ]
        assert len(dispatches) == len(system.spec)
        assert tracer.metrics.histogram("scheduler.ready_queue_depth").count
        config_spans = tracer.spans(category="config")
        assert [s.name for s in config_spans] == [
            "configure:graph", "configure:encode",
            "configure:solve", "configure:propagate",
        ]
        journal_instants = tracer.instants(category="journal")
        assert {e.name for e in journal_instants} >= {"record", "completed"}

    def test_golden_chrome_trace(self, openmrs_partial):
        tracer, system = _traced_openmrs_deploy(openmrs_partial)
        payload = chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        action_spans = [
            e for e in payload["traceEvents"]
            if e.get("cat") == "action" and e["ph"] == "X"
        ]
        assert len(action_spans) == len(system.report.actions)

    def test_monitor_restart_traced(self, registry, infrastructure,
                                    drivers, openmrs_partial):
        tracer = Tracer(clock=infrastructure.clock)
        infrastructure.set_tracer(tracer)
        partial = provision_partial_spec(
            registry, openmrs_partial, infrastructure
        )
        spec = ConfigurationEngine(registry).configure(partial).spec
        system = DeploymentEngine(registry, infrastructure, drivers).deploy(
            spec
        )
        monitor = ProcessMonitor(system)
        system.driver("mysql").process.fail()
        monitor.poll()
        restarts = tracer.instants(category="monitor")
        assert [e.name for e in restarts] == ["restart"]
        assert restarts[0].args["instance"] == "mysql"
        assert tracer.metrics.counter("monitor.restarts").value == 1


class TestCoordinatorTracing:
    def test_wave_and_slave_spans(self):
        from repro.runtime.coordinator import BusCoordinator

        registry = standard_registry()
        infrastructure = standard_infrastructure()
        tracer = Tracer(clock=infrastructure.clock)
        infrastructure.set_tracer(tracer)
        partial = PartialInstallSpec(
            [
                PartialInstance("a", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "a"}),
                PartialInstance("b", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "b"}),
                PartialInstance("db", as_key("MySQL 5.1"), inside_id="a"),
                PartialInstance("db2", as_key("MySQL 5.1"), inside_id="b"),
            ]
        )
        partial = provision_partial_spec(registry, partial, infrastructure)
        spec = ConfigurationEngine(registry).configure(partial).spec
        coordinator = BusCoordinator(
            registry, infrastructure, standard_drivers()
        )
        deployment = coordinator.deploy(spec)
        waves = [
            s for s in tracer.spans(category="coordinator")
            if s.name.startswith("wave-")
        ]
        slaves = [
            s for s in tracer.spans(category="coordinator")
            if s.name.startswith("slave:")
        ]
        assert len(waves) == len(deployment.report.waves)
        assert len(slaves) == sum(len(w) for w in deployment.report.waves)
        assert tracer.metrics.counter("coordinator.waves").value == len(waves)
        report = deployment.report
        counter = tracer.metrics.counter
        assert counter("bus.loop.instants").value == report.loop_instants > 0
        assert counter("bus.loop.steps").value == report.node_steps > 0


# -- The zero-overhead contract -----------------------------------------


STACK_DSL = """
resource "MiniCache" 1.0 driver "service" {
  inside "Server" { host -> host }
  input host: { hostname: hostname, ip_address: string,
                os_user_name: string }
  config port: tcp_port = 7070
  output kv: { host: hostname, port: tcp_port } =
    { host = input.host.hostname, port = config.port }
}
"""


@pytest.fixture
def chaos_stack(tmp_path):
    dsl = tmp_path / "stack.engage"
    dsl.write_text(STACK_DSL)
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            [
                {"id": "box", "key": "Ubuntu-Linux 10.04",
                 "config_port": {"hostname": "obscli"}},
                {"id": "cache", "key": "MiniCache 1.0",
                 "inside": {"id": "box"}},
                {"id": "cache2", "key": "MiniCache 1.0",
                 "inside": {"id": "box"},
                 "config_port": {"port": 7171}},
            ]
        )
    )
    return str(dsl), str(spec), tmp_path


def _strip_trace_lines(output):
    return "".join(
        line for line in output.splitlines(keepends=True)
        if not line.startswith("trace written to ")
    )


class TestZeroOverhead:
    def test_traced_chaos_deploy_output_bit_identical(self, chaos_stack):
        dsl, spec, tmp_path = chaos_stack
        argv = ["deploy", "--types", dsl, spec, "--jobs", "4",
                "--chaos-rate", "0.8", "--chaos-seed", "11",
                "--max-retries", "3", "--backoff", "0.5"]
        trace_file = tmp_path / "trace.json"
        code_plain, out_plain = run(argv)
        code_traced, out_traced = run(argv + ["--trace", str(trace_file)])
        assert code_plain == code_traced == 0
        assert _strip_trace_lines(out_traced) == out_plain
        assert f"trace written to {trace_file}" in out_traced
        payload = json.loads(trace_file.read_text())
        assert validate_chrome_trace(payload) == []

    def test_traced_journal_payload_bit_identical(self, chaos_stack):
        dsl, spec, tmp_path = chaos_stack
        payloads = []
        for with_trace in (False, True):
            bundle = tmp_path / f"bundle-{with_trace}.json"
            argv = ["deploy", "--types", dsl, spec, "--jobs", "4",
                    "--chaos-rate", "0.8", "--chaos-seed", "11",
                    "--max-retries", "3", "--save", str(bundle)]
            if with_trace:
                argv += ["--trace", str(tmp_path / "t.json")]
            code, _ = run(argv)
            assert code == 0
            payloads.append(json.loads(bundle.read_text())["state"])
        assert payloads[0] == payloads[1]

    def test_api_report_identical_with_and_without_tracer(
        self, openmrs_partial
    ):
        def actions(traced):
            registry = standard_registry()
            infrastructure = standard_infrastructure()
            if traced:
                infrastructure.set_tracer(Tracer(clock=infrastructure.clock))
            infrastructure.set_fault_plan(FaultPlan.seeded(7, 0.6))
            partial = provision_partial_spec(
                registry, openmrs_partial, infrastructure
            )
            spec = ConfigurationEngine(registry).configure(partial).spec
            system = DeploymentEngine(
                registry, infrastructure, standard_drivers(),
                jobs=4, policy=RetryPolicy(max_attempts=4,
                                           backoff_base=0.5),
            ).deploy(spec)
            return [
                (r.instance_id, r.action, r.attempt, r.outcome,
                 r.started_at, r.duration, r.backoff_seconds)
                for r in system.report.actions
            ]

        assert actions(False) == actions(True)


# -- The ``engage-sim trace`` subcommand --------------------------------


class TestTraceCommand:
    def test_render_saved_bundle(self, chaos_stack):
        dsl, spec, tmp_path = chaos_stack
        bundle = tmp_path / "bundle.json"
        code, _ = run(
            ["deploy", "--types", dsl, spec, "--jobs", "2",
             "--save", str(bundle)]
        )
        assert code == 0
        rendered = tmp_path / "rendered.json"
        code, output = run(["trace", str(bundle), "-o", str(rendered)])
        assert code == 0
        assert f"trace written to {rendered}" in output
        payload = json.loads(rendered.read_text())
        assert validate_chrome_trace(payload) == []
        # Driver actions land on the machine's hostname lane with the
        # instance in args; journal records come along as instants.
        actions = [
            e for e in payload["traceEvents"] if e.get("cat") == "action"
        ]
        assert actions and all(
            e["args"]["instance"] for e in actions
        )
        assert any(
            e.get("cat") == "journal" for e in payload["traceEvents"]
        )

    def test_render_to_stdout(self, chaos_stack):
        dsl, spec, tmp_path = chaos_stack
        bundle = tmp_path / "bundle.json"
        run(["deploy", "--types", dsl, spec, "--save", str(bundle)])
        code, output = run(["trace", str(bundle)])
        assert code == 0
        assert validate_chrome_trace(json.loads(output)) == []

    def test_validate_good_and_bad(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"traceEvents": [{"ph": "M", "pid": 1, "tid": 0,
                              "name": "process_name",
                              "args": {"name": "x"}}]}
        ))
        code, output = run(["trace", "--validate", str(good)])
        assert code == 0 and "valid Chrome trace: 1 events" in output
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        code, output = run(["trace", "--validate", str(bad)])
        assert code == 1 and "unknown phase" in output
        not_json = tmp_path / "nope.json"
        not_json.write_text("{")
        code, output = run(["trace", "--validate", str(not_json)])
        assert code == 1 and "not JSON" in output

    def test_bundle_required_without_validate(self):
        code, output = run(["trace"])
        assert code == 2
        assert "bundle is required" in output


# -- Satellite regressions ----------------------------------------------


class TestMonitorIdempotency:
    def test_double_augment_is_identity(self, registry, openmrs_partial):
        once = add_monitoring(registry, openmrs_partial)
        twice = add_monitoring(registry, once)
        assert [(i.id, i.key, i.inside_id) for i in twice] == [
            (i.id, i.key, i.inside_id) for i in once
        ]

    def test_existing_monit_instance_respected(self, registry):
        partial = PartialInstallSpec(
            [
                PartialInstance("a", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "a"}),
                PartialInstance("mymonit", MONIT_KEY, inside_id="a"),
            ]
        )
        augmented = add_monitoring(registry, partial)
        monits = [i for i in augmented if i.key.name == MONIT_KEY.name]
        assert [m.id for m in monits] == ["mymonit"]

    def test_id_collision_is_a_hard_error(self, registry):
        partial = PartialInstallSpec(
            [
                PartialInstance("a", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "a"}),
                PartialInstance("monit_a", as_key("MySQL 5.1"),
                                inside_id="a"),
            ]
        )
        with pytest.raises(DeploymentError, match="monit_a"):
            add_monitoring(registry, partial)


class TestRetryPolicyValidation:
    def test_negative_backoff_factor_rejected(self):
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(max_attempts=3, backoff_factor=-2.0)

    def test_backoff_never_negative(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=1.0, backoff_factor=0.0, jitter=0.0
        )
        # factor**0 == 1 for the first wait, 0 after; never below zero.
        assert policy.backoff_seconds(1, "i", "install") == 1.0
        for attempt in (2, 3, 4):
            assert policy.backoff_seconds(attempt, "i", "install") == 0.0


class TestJournalPartitions:
    def _spec(self, registry, infrastructure, openmrs_partial):
        partial = provision_partial_spec(
            registry, openmrs_partial, infrastructure
        )
        return ConfigurationEngine(registry).configure(partial).spec

    def test_mark_failed_discards_completed(
        self, registry, infrastructure, openmrs_partial
    ):
        journal = DeploymentJournal(
            self._spec(registry, infrastructure, openmrs_partial)
        )
        journal.mark_completed("mysql")
        journal.mark_failed("mysql", "boom")
        assert "mysql" not in journal.completed
        assert journal.failed == {"mysql": "boom"}
        payload = journal.to_payload()
        assert payload["completed"] == []
        assert payload["failed"] == {"mysql": "boom"}

    @pytest.mark.parametrize(
        "field,value",
        [
            ("instance_id", None),
            ("action", 3),
            ("source", ["initial"]),
            ("target", {"state": "active"}),
        ],
    )
    def test_from_payload_rejects_non_string_fields(self, field, value):
        payload = {
            "instance_id": "a", "action": "install",
            "source": "initial", "target": "installed", "timestamp": 1.0,
        }
        payload[field] = value
        with pytest.raises(RuntimeEngageError, match="malformed journal"):
            JournalEntry.from_payload(payload)

    def test_malformed_entry_inside_state2_payload(
        self, registry, infrastructure, openmrs_partial
    ):
        spec = self._spec(registry, infrastructure, openmrs_partial)
        with pytest.raises(RuntimeEngageError, match="malformed journal"):
            DeploymentJournal.from_payload(
                spec,
                {
                    "target": "active",
                    "entries": [
                        {"instance_id": None, "action": "install",
                         "source": "initial", "target": "installed",
                         "timestamp": 0.0}
                    ],
                },
            )
