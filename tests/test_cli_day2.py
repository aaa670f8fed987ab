"""The day-2 CLI commands: watch, inject-fault, upgrade on bundles."""

import io
import json
import pathlib

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

STACK_V2_DSL = """
resource "MiniCache" 2.0 driver "service" {
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


def spec_json(version):
    return json.dumps(
        [
            {"id": "box", "key": "Ubuntu-Linux 10.04",
             "config_port": {"hostname": "day2"}},
            {"id": "cache", "key": f"MiniCache {version}",
             "inside": {"id": "box"}},
        ]
    )


def last_journal_entry(bundle_path):
    """``[instance, action]`` of the bundle journal's last entry."""
    with open(bundle_path, encoding="utf-8") as handle:
        entry = json.load(handle)["state"]["journal"]["entries"][-1]
    return [entry["instance_id"], entry["action"]]


@pytest.fixture
def bundle(tmp_path):
    dsl = tmp_path / "stack.engage"
    dsl.write_text(STACK_DSL)
    spec = tmp_path / "spec.json"
    spec.write_text(spec_json("1.0"))
    bundle_path = tmp_path / "bundle.json"
    code, _ = run(
        ["deploy", "--types", str(dsl), str(spec), "--save",
         str(bundle_path)]
    )
    assert code == 0
    return tmp_path, str(bundle_path)


class TestInjectFault:
    def test_fail_then_reconcile_repairs(self, bundle):
        _, bundle_path = bundle
        code, output = run(["inject-fault", bundle_path, "cache"])
        assert code == 0
        assert "failed process" in output

        code, output = run(["reconcile", bundle_path])
        assert code == 0
        assert output.startswith(
            "round 0: converged drift=1 (crashed-service=1) plan=1 "
        )
        assert last_journal_entry(bundle_path) == ["cache", "restart"]

        code, output = run(["status", bundle_path])
        assert code == 0
        assert "active" in output

    def test_a_restart_leaves_no_stopped_process(self, bundle):
        """A restart kills the crashed process and spawns a new one: the
        saved world holds the new one only (the journal holds the
        restart)."""
        _, bundle_path = bundle
        assert run(["inject-fault", bundle_path, "cache"])[0] == 0
        assert run(["reconcile", bundle_path])[0] == 0
        with open(bundle_path, encoding="utf-8") as handle:
            machines = json.load(handle)["world"]["machines"]
        assert [
            (process["instance_id"], process["state"])
            for machine in machines
            for process in machine["processes"]
        ] == [("cache", "running")]

    def test_unknown_instance(self, bundle):
        _, bundle_path = bundle
        code, output = run(["inject-fault", bundle_path, "ghost"])
        assert code == 2

    def test_machine_has_no_process(self, bundle):
        _, bundle_path = bundle
        code, output = run(["inject-fault", bundle_path, "box"])
        assert code == 2

    def test_reconcile_when_healthy(self, bundle):
        _, bundle_path = bundle
        code, output = run(["reconcile", bundle_path])
        assert code == 0
        assert output.startswith("round 0: converged\n")


class TestUpgrade:
    def test_in_place_upgrade(self, bundle, tmp_path):
        directory, bundle_path = bundle
        v2 = directory / "v2.engage"
        v2.write_text(STACK_V2_DSL)
        new_spec = directory / "spec2.json"
        new_spec.write_text(spec_json("2.0"))

        code, output = run(
            ["upgrade", bundle_path, str(new_spec),
             "--types", str(v2), "--strategy", "delta"]
        )
        assert code == 0
        assert "upgrade succeeded" in output
        assert "'cache'" in output

        code, output = run(["status", bundle_path])
        assert code == 0
        assert "MiniCache 2.0" in output

    def test_retired_strategy_is_a_usage_error(self, bundle):
        directory, bundle_path = bundle
        new_spec = directory / "spec2.json"
        new_spec.write_text(spec_json("2.0"))
        with pytest.raises(SystemExit) as exit_info:
            run(["upgrade", bundle_path, str(new_spec),
                 "--strategy", "in_place"])
        assert exit_info.value.code == 2

    def test_replace_upgrade(self, bundle):
        directory, bundle_path = bundle
        v2 = directory / "v2.engage"
        v2.write_text(STACK_V2_DSL)
        new_spec = directory / "spec2.json"
        new_spec.write_text(spec_json("2.0"))
        code, output = run(
            ["upgrade", bundle_path, str(new_spec), "--types", str(v2)]
        )
        assert code == 0
        code, output = run(["status", bundle_path])
        assert "MiniCache 2.0" in output

    def test_retyping_original_file_tolerated(self, bundle):
        """Passing the original DSL file again must not explode on
        duplicate keys."""
        directory, bundle_path = bundle
        original = directory / "stack.engage"
        v2 = directory / "v2.engage"
        v2.write_text(STACK_V2_DSL)
        new_spec = directory / "spec2.json"
        new_spec.write_text(spec_json("2.0"))
        code, output = run(
            ["upgrade", bundle_path, str(new_spec),
             "--types", str(original), "--types", str(v2)]
        )
        assert code == 0


class TestJsonShapes:
    """The key sets scripts read from ``plan``, ``reconcile --json`` and
    ``status --json``'s journal:
    adding or dropping a key is a deliberate change, made here."""

    def test_plan_keys(self, bundle):
        directory, bundle_path = bundle
        (directory / "v2.engage").write_text(STACK_V2_DSL)
        (directory / "spec2.json").write_text(spec_json("2.0"))
        code, output = run(
            ["plan", bundle_path, str(directory / "spec2.json"),
             "--types", str(directory / "v2.engage")]
        )
        assert code == 0
        assert set(json.loads(output)) == {
            "target", "noop", "fleet_size", "diff", "plan", "phases",
            "bundle",
        }

    def test_reconcile_round_keys(self, bundle):
        _, bundle_path = bundle
        assert run(["inject-fault", bundle_path, "cache"])[0] == 0
        code, output = run(["reconcile", bundle_path, "--json"])
        assert code == 0
        payload = json.loads(output[output.index("{"):output.rindex("}") + 1])
        (round_,) = payload["rounds"]
        assert round_["drift_items"] == 1
        assert set(round_) == {
            "index", "started_at", "finished_at", "drift_items",
            "drift_by_kind", "plan_size", "plan_by_op", "repaired",
            "converged", "error", "time_to_repair_s",
        }

    def test_status_journal_keys(self, bundle):
        _, bundle_path = bundle
        code, output = run(["status", "--json", bundle_path])
        assert code == 0
        assert set(json.loads(output)["journal"]) == {
            "target", "entries", "completed", "failed", "skipped",
            "frontier",
        }


class TestDay2KeepsTheJournal:
    """A day-2 command rewrites the bundle; it must stay resumable."""

    @staticmethod
    def journal_of(bundle_path):
        _, output = run(["status", "--json", bundle_path])
        return json.loads(output)["journal"]

    @pytest.mark.parametrize(
        "command", ["stop", "start", "upgrade", "inject-fault", "reconcile"]
    )
    def test_bundle_stays_resumable(self, bundle, command):
        directory, bundle_path = bundle
        before = self.journal_of(bundle_path)
        assert before is not None
        argv = [command, bundle_path]
        if command == "inject-fault":
            argv.append("cache")
        elif command == "upgrade":
            (directory / "v2.engage").write_text(STACK_V2_DSL)
            (directory / "spec2.json").write_text(spec_json("2.0"))
            argv += [str(directory / "spec2.json"),
                     "--types", str(directory / "v2.engage")]
        code, _ = run(argv)
        assert code == 0

        after = self.journal_of(bundle_path)
        assert after is not None
        if command != "upgrade":  # the upgrade's journal is the new spec's
            assert after["entries"] >= before["entries"]
        code, output = run(["deploy", "--resume", bundle_path])
        assert code != 2, output
        assert "resuming:" in output


class TestDay2IsOnTheRecord:
    """``stop`` / ``start`` journal what they do: the persisted frontier
    follows the drivers, so a later ``deploy --resume`` restarts what
    ``stop`` stopped instead of adopting a stale ``active``."""

    STACK = str(
        pathlib.Path(__file__).resolve().parent.parent
        / "examples" / "stacks" / "openmrs.json"
    )

    @staticmethod
    def status(bundle_path):
        _, output = run(["status", "--json", bundle_path])
        return json.loads(output)

    @pytest.fixture
    def openmrs(self, tmp_path):
        bundle_path = str(tmp_path / "openmrs.json")
        code, _ = run(["deploy", self.STACK, "--save", bundle_path])
        assert code == 0
        return bundle_path

    def test_stop_then_resume_restarts_the_fleet(self, openmrs):
        code, _ = run(["stop", openmrs])
        assert code == 0
        stopped = self.status(openmrs)
        assert set(stopped["journal"]["frontier"].values()) == {"inactive"}
        assert stopped["journal"]["completed"] == 0

        code, output = run(["deploy", "--resume", openmrs])
        assert code == 0, output
        code, output = run(["status", openmrs])
        assert code == 0
        assert "3 running process(es)" in output
        resumed = self.status(openmrs)
        assert resumed["converged"] is True
        assert resumed["drift"]["items"] == []

    def test_stop_then_start_is_converged_and_complete(self, openmrs):
        fleet = len(self.status(openmrs)["instances"])
        assert run(["stop", openmrs])[0] == 0
        assert run(["start", openmrs])[0] == 0
        started = self.status(openmrs)
        assert started["converged"] is True
        assert started["journal"]["completed"] == fleet
        assert set(started["journal"]["frontier"].values()) == {"active"}
