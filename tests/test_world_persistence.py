"""Whole-world serialisation and the CLI deploy/status/stop/start flow."""

import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.core.errors import SimulationError
from repro.sim import Infrastructure, load_world, save_world


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def world():
    infrastructure = Infrastructure()
    infrastructure.package_index.publish_simple("pkg", "1.0", 5_000_000)
    infrastructure.downloads.prefetch("pkg", "1.0")
    machine = infrastructure.add_machine("m1", "mac-osx", "10.6")
    machine.fs.write_file("/etc/app.conf", "key=value")
    manager = infrastructure.package_manager(machine)
    manager.install("pkg", "1.0")
    process = machine.spawn_process("appd", listen_ports=[9000])
    stopped = machine.spawn_process("oneshot")
    machine.kill_process(stopped.pid)
    infrastructure.add_provider("cloud", provision_seconds=10)
    infrastructure.provider("cloud").provision("ubuntu-10.04")
    infrastructure.clock.advance(12.5, "work")
    return infrastructure


class TestWorldRoundtrip:
    def test_clock_preserved(self, world):
        loaded = load_world(save_world(world))
        assert loaded.clock.now == pytest.approx(world.clock.now)

    def test_machines_and_fs(self, world):
        loaded = load_world(save_world(world))
        machine = loaded.network.machine("m1")
        assert machine.os.name == "mac-osx"
        assert machine.fs.read_file("/etc/app.conf") == "key=value"

    def test_running_processes_rebound(self, world):
        loaded = load_world(save_world(world))
        assert loaded.network.can_connect("m1", 9000)
        machine = loaded.network.machine("m1")
        appd = machine.find_process("appd")
        assert appd is not None and appd.is_running()
        oneshot = machine.find_process("oneshot")
        assert oneshot is not None and not oneshot.is_running()

    def test_pid_counter_continues(self, world):
        loaded = load_world(save_world(world))
        machine = loaded.network.machine("m1")
        before = {p.pid for p in machine.processes()}
        fresh = machine.spawn_process("new")
        assert fresh.pid not in before

    def test_package_database(self, world):
        loaded = load_world(save_world(world))
        machine = loaded.network.machine("m1")
        manager = loaded.package_manager(machine)
        assert manager.is_installed("pkg", "1.0")
        assert manager.install_path("pkg") == "/opt/pkg-1.0"

    def test_artifacts_and_cache(self, world):
        loaded = load_world(save_world(world))
        assert loaded.package_index.has("pkg", "1.0")
        assert loaded.downloads.is_cached("pkg", "1.0")

    def test_providers(self, world):
        loaded = load_world(save_world(world))
        provider = loaded.provider("cloud")
        assert len(provider.nodes()) == 1
        # Serial continues: no hostname collision on the next provision.
        node = provider.provision("ubuntu-10.04")
        assert node.hostname == "cloud-node-002"

    def test_use_cache_flag_and_counters(self, world):
        world.downloads.fetch("pkg", "1.0")
        loaded = load_world(save_world(world))
        assert loaded.downloads.downloads == world.downloads.downloads
        assert loaded.downloads.cache_hits == world.downloads.cache_hits

        cold = Infrastructure(use_cache=False)
        reloaded = load_world(save_world(cold))
        assert reloaded.downloads._use_cache is False

    def test_malformed_rejected(self):
        with pytest.raises(SimulationError):
            load_world("{oops")

    def test_wrong_format_rejected(self, world):
        payload = json.loads(save_world(world))
        payload["format"] = "engage-world-9"
        with pytest.raises(SimulationError):
            load_world(json.dumps(payload))


FIGURE_2 = json.dumps(
    [
        {"id": "server", "key": "Mac-OSX 10.6",
         "config_port": {"hostname": "demotest"}},
        {"id": "tomcat", "key": "Tomcat 6.0.18", "inside": {"id": "server"}},
        {"id": "openmrs", "key": "OpenMRS 1.8", "inside": {"id": "tomcat"}},
    ]
)


DEPLOY_AND_SAVE = """
import sys
from repro.config import ConfigurationEngine
from repro.library import (
    standard_drivers, standard_infrastructure, standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import DeploymentEngine
from repro.sim import save_world

registry = standard_registry()
spec = ConfigurationEngine(registry, partition=True).configure(
    fleet_partial(FleetTopology(replicas=4, machines=2))
).spec
infrastructure = standard_infrastructure()
DeploymentEngine(registry, infrastructure, standard_drivers()).deploy(spec)
sys.stdout.write(save_world(infrastructure))
"""


def test_saved_world_is_independent_of_the_hash_seed():
    """Machines get a default IP derived from their hostname; it used
    to come from ``hash()``, which differs from process to process."""
    import os
    import subprocess
    import sys

    import repro

    source = os.path.dirname(os.path.dirname(repro.__file__))
    worlds = [
        subprocess.run(
            [sys.executable, "-c", DEPLOY_AND_SAVE],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": source},
            capture_output=True, check=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]
    assert worlds[0] and worlds[0] == worlds[1]


class TestCliBundleFlow:
    @pytest.fixture
    def bundle(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(FIGURE_2)
        bundle_path = tmp_path / "bundle.json"
        code, output = run(
            ["deploy", str(spec), "--save", str(bundle_path)]
        )
        assert code == 0
        assert "bundle saved" in output
        return str(bundle_path)

    def test_status_after_deploy(self, bundle):
        code, output = run(["status", bundle])
        assert code == 0
        assert "openmrs" in output and "active" in output

    def test_stop_then_status(self, bundle):
        code, _ = run(["stop", bundle])
        assert code == 0
        code, output = run(["status", bundle])
        assert code == 1  # not fully deployed any more
        assert "inactive" in output
        assert "0 running process(es)" in output

    def test_stop_start_cycle(self, bundle):
        run(["stop", bundle])
        code, _ = run(["start", bundle])
        assert code == 0
        code, output = run(["status", bundle])
        assert code == 0
        assert "active" in output

    def test_clock_persists_across_invocations(self, bundle):
        _, first = run(["status", bundle])
        run(["stop", bundle])
        _, second = run(["status", bundle])
        minutes_first = float(first.rsplit(":", 1)[1].split()[0])
        minutes_second = float(second.rsplit(":", 1)[1].split()[0])
        assert minutes_second > minutes_first

    def test_bad_bundle_reported(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        code, output = run(["status", str(path)])
        assert code == 2
        assert "error" in output

    #: One section of a good bundle removed or mistyped.  Each used to
    #: end in a raw KeyError/TypeError traceback -- or, for the states
    #: that contradict the journal, in a silently wrong world.
    HOSTILE = {
        "no-types": lambda b: b.pop("types"),
        "no-world": lambda b: b.pop("world"),
        "no-world-machines": lambda b: b["world"].pop("machines"),
        "no-machine-fs": lambda b: b["world"]["machines"][0].pop("fs"),
        "no-state-spec": lambda b: b["state"].pop("spec"),
        "no-state-states": lambda b: b["state"].pop("states"),
        "no-instance-key": lambda b: b["state"]["spec"][0].pop("key"),
        "clock-not-a-number": lambda b: b["world"].update(clock="abc"),
        "states-contradict-frontier":
            lambda b: b["state"]["states"].update(mysql="inactive"),
        "spec-not-a-list": lambda b: b["state"].update(spec={}),
        "duplicate-instance-id":
            lambda b: b["state"]["spec"].append(b["state"]["spec"][0]),
        "journal-entry-without-action":
            lambda b: b["state"]["journal"]["entries"][0].pop("action"),
        "types-not-text": lambda b: b.update(types=5),
        "world-not-an-object": lambda b: b.update(world=[]),
        "state-not-an-object": lambda b: b.update(state="x"),
        "machines-not-a-list": lambda b: b["world"].update(machines={}),
        "fs-not-an-object":
            lambda b: b["world"]["machines"][0].update(fs=3),
        "states-not-an-object": lambda b: b["state"].update(states=[]),
        "instance-not-an-object":
            lambda b: b["state"]["spec"].__setitem__(0, "x"),
        "journal-entries-not-a-list":
            lambda b: b["state"]["journal"].update(entries=5),
        "journal-completed-not-a-list":
            lambda b: b["state"]["journal"].update(completed=5),
    }

    @pytest.mark.parametrize("mutation", sorted(HOSTILE))
    def test_hostile_bundle_ends_in_a_typed_error(self, bundle, mutation):
        with open(bundle, encoding="utf-8") as handle:
            document = json.load(handle)
        self.HOSTILE[mutation](document)
        with open(bundle, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        code, output = run(["status", bundle])
        assert code == 2
        assert output.startswith("error: ")
        assert "Traceback" not in output
        if mutation == "states-contradict-frontier":
            assert "'mysql'" in output
            assert "'inactive'" in output and "'active'" in output


STACKS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "stacks"


class TestPersistenceNestsPayloads:
    """The layers hand each other data, not text -- and the bytes are
    those of the text composition that replaced: ``loads(dumps(...))``
    of every layer, kept here as the reference."""

    @pytest.mark.parametrize("stack", ["two_node.json", "fleet.json"])
    def test_bundle_bytes_match_the_old_text_composition(
        self, tmp_path, stack
    ):
        from repro import cli
        from repro.dsl import format_module, full_to_json, full_to_payload
        from repro.runtime import save_system, system_payload
        from repro.sim import world_payload

        bundle = tmp_path / "bundle.json"
        code, _ = run(["deploy", str(STACKS / stack), "--save", str(bundle)])
        assert code == 0
        written = bundle.read_text()
        registry, infrastructure, _, system = cli._load_bundle(str(bundle))
        reference = json.dumps(
            {
                "format": cli.BUNDLE_FORMAT,
                "types": format_module(cli._ordered_types(registry)),
                "world": json.loads(save_world(infrastructure)),
                "state": json.loads(save_system(system)),
            },
            indent=1,
        ) + "\n"
        assert written == reference
        cli._save_bundle(str(bundle), registry, infrastructure, system)
        assert bundle.read_text() == reference

        assert save_system(system) == (
            json.dumps(system_payload(system), indent=2) + "\n"
        )
        assert save_world(infrastructure) == (
            json.dumps(world_payload(infrastructure), indent=1) + "\n"
        )
        assert full_to_json(system.spec) == (
            json.dumps(full_to_payload(system.spec), indent=2) + "\n"
        )
