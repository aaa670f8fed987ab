"""CLI fault tolerance: chaos deploys, retry flags, and --resume."""

import io
import json

import pytest

from repro.cli import main

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


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def stack(tmp_path):
    dsl = tmp_path / "stack.engage"
    dsl.write_text(STACK_DSL)
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            [
                {"id": "box", "key": "Ubuntu-Linux 10.04",
                 "config_port": {"hostname": "chaoscli"}},
                {"id": "cache", "key": "MiniCache 1.0",
                 "inside": {"id": "box"}},
            ]
        )
    )
    return str(dsl), str(spec), tmp_path


class TestChaosDeploy:
    def test_retries_ride_through_chaos(self, stack):
        dsl, spec, tmp_path = stack
        code, output = run(
            ["deploy", "--types", dsl, spec,
             "--chaos-rate", "1.0", "--chaos-seed", "3",
             "--max-retries", "3", "--backoff", "0.5"]
        )
        assert code == 0
        assert "chaos: injecting faults" in output
        assert "recovered from" in output
        assert "total backoff" in output

    def test_chaos_output_is_deterministic(self, stack):
        dsl, spec, _ = stack
        argv = ["deploy", "--types", dsl, spec,
                "--chaos-rate", "0.8", "--chaos-seed", "11",
                "--max-retries", "3"]
        code_a, out_a = run(argv)
        code_b, out_b = run(argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_chaos_without_retries_fails_resumably(self, stack):
        dsl, spec, tmp_path = stack
        bundle = tmp_path / "bundle.json"
        code, output = run(
            ["deploy", "--types", dsl, spec,
             "--chaos-rate", "1.0", "--chaos-seed", "0",
             "--save", str(bundle)]
        )
        assert code == 1
        assert "deployment FAILED" in output
        assert "completed:" in output and "skipped:" in output
        assert f"deploy --resume {bundle}" in output
        state = json.loads(bundle.read_text())["state"]
        assert state["format"] == "engage-state-2"
        assert "journal" in state

    def test_retry_flags_without_chaos_are_harmless(self, stack):
        dsl, spec, _ = stack
        code, output = run(
            ["deploy", "--types", dsl, spec, "--max-retries", "2",
             "--timeout", "90"]
        )
        assert code == 0
        assert "recovered" not in output


class TestResume:
    def _failed_bundle(self, stack):
        dsl, spec, tmp_path = stack
        bundle = tmp_path / "bundle.json"
        code, _ = run(
            ["deploy", "--types", dsl, spec,
             "--chaos-rate", "1.0", "--chaos-seed", "0",
             "--save", str(bundle)]
        )
        assert code == 1
        return str(bundle)

    def test_resume_completes_deployment(self, stack):
        bundle = self._failed_bundle(stack)
        code, output = run(["deploy", "--resume", bundle])
        assert code == 0
        assert "resuming:" in output
        assert f"bundle saved to {bundle}" in output

        code, output = run(["status", bundle])
        assert code == 0
        assert "active" in output
        assert "uninstalled" not in output

    def test_resume_with_retries_through_fresh_chaos(self, stack):
        bundle = self._failed_bundle(stack)
        code, output = run(
            ["deploy", "--resume", bundle,
             "--chaos-rate", "1.0", "--chaos-seed", "9",
             "--max-retries", "3", "--backoff", "0.2"]
        )
        assert code == 0
        assert "chaos: injecting faults" in output

    def test_resume_requires_journal(self, stack):
        dsl, spec, tmp_path = stack
        bundle = tmp_path / "clean.json"
        code, _ = run(
            ["deploy", "--types", dsl, spec, "--save", str(bundle)]
        )
        assert code == 0
        # A successful deploy leaves a complete journal; strip it to get
        # a bundle whose journal is blank, which cannot be resumed.
        payload = json.loads(bundle.read_text())
        payload["state"].pop("journal")
        bundle.write_text(json.dumps(payload))
        code, output = run(["deploy", "--resume", str(bundle)])
        assert code == 2
        assert "no deployment journal" in output

    def test_deploy_without_spec_or_resume_errors(self):
        code, output = run(["deploy"])
        assert code == 2
        assert "partial spec is required" in output


class TestInjectFaultInstanceId:
    def test_output_names_the_instance(self, stack):
        dsl, spec, tmp_path = stack
        bundle = tmp_path / "bundle.json"
        code, _ = run(
            ["deploy", "--types", dsl, spec, "--save", str(bundle)]
        )
        assert code == 0
        code, output = run(["inject-fault", str(bundle), "cache"])
        assert code == 0
        assert "instance 'cache'" in output


class TestFlagRanges:
    """A numeric flag out of range is a usage error, refused before any
    bundle or spec is read (these used to end in a ``ValueError``
    traceback, or be accepted and ignored)."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["deploy", "S", "--backoff", "-1"], "--backoff must be >= 0"),
            (["deploy", "S", "--chaos-rate", "1.5"], "--chaos-rate"),
            (["deploy", "S", "--chaos-rate", "-0.1"], "--chaos-rate"),
            (["deploy", "S", "--bus", "--bus-drop", "1.5"], "--bus-drop"),
            (["deploy", "S", "--bus", "--bus-dup", "-1"], "--bus-dup"),
            (["deploy", "S", "--bus", "--bus-jitter", "-1"], "--bus-jitter"),
            (["deploy", "S", "--timeout", "-5"], "--timeout must be > 0"),
            (["deploy", "S", "--timeout", "0"], "--timeout must be > 0"),
            (["deploy", "S", "--max-retries", "-2"], "--max-retries"),
            (["reconcile", "B", "--churn-rate", "1.5"],
             "--churn-rate must be in [0, 1]"),
            (["reconcile", "B", "--interval", "-1"], "--interval"),
            (["reconcile", "B", "--watch", "--max-rounds", "0"],
             "--max-rounds must be >= 1"),
            (["configure", "S", "--session", "--repeat", "0", "-o", "O"],
             "--repeat must be >= 1, got 0"),
            (["configure", "S", "--session", "--repeat", "-2"],
             "--repeat must be >= 1, got -2"),
            (["deploy", "S", "--jobs", "-1"], "--jobs must be >= 0, got -1"),
            (["deploy", "S", "--jobs-per-host", "-1"],
             "--jobs-per-host must be >= 0, got -1"),
            (["reconcile", "B", "--jobs", "-1"], "--jobs must be >= 0"),
            (["reconcile", "B", "--jobs-per-host", "-2"],
             "--jobs-per-host must be >= 0, got -2"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, argv, flag):
        code, output = run(argv)
        assert code == 2
        assert output.startswith(f"error: {flag}"), output


class TestBusChaosIsChecked:
    """A bus fault schedule the deployment cannot honour ends in
    ``error: ...`` naming the field, before anything is sent."""

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--crash-slave", "nosuch"], "crash_machine: 'nosuch'"),
            (["--partition-at", "1", "--partition-for", "0"],
             "partition_for must be > 0"),
            (["--partition-at", "1", "--partition-for", "-5"],
             "partition_for must be > 0"),
            (["--crash-slave", "box", "--crash-after", "-1"],
             "crash_after_actions must be >= 0"),
            (["--crash-slave", "box", "--rejoin-after", "-1"],
             "crash_down_for must be >= 0"),
            (["--partition-at", "-5"], "partition_at must be >= 0"),
            (["--failover-at", "-1"], "failover_at must be >= 0"),
        ],
    )
    def test_refused(self, stack, flags, field):
        dsl, spec, _ = stack
        code, output = run(["deploy", "--types", dsl, spec, "--bus", *flags])
        assert code == 2
        assert f"error: bus chaos {field}" in output
        assert "bus:" not in output
