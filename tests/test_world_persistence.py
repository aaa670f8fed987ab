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
    infrastructure.clock.advance(12.5)
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
        # A killed process left the world before it was saved.
        assert machine.find_process("oneshot") is None

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

    def test_an_old_clock_event_log_is_ignored(self, world):
        """Worlds saved while the clock kept an event log carry it as a
        ``clock_events`` section; such a world loads as the same world
        without it."""
        from repro.runtime import world_fingerprint

        world.machine("m1").spawn_process("late", listen_ports=[9100])
        payload = json.loads(save_world(world))
        assert "clock_events" not in payload
        old = dict(payload, clock_events=[
            [0.0, 5.0, "download:pkg-1.0"],
            [5.0, 0.5, "install:pkg-1.0"],
            [5.5, 10.0, "provision:cloud:cloud-node-001"],
            [15.5, 12.5, "work"],
        ])
        plain = load_world(json.dumps(payload))
        loaded = load_world(json.dumps(old))
        assert loaded.clock.now == plain.clock.now == world.clock.now
        assert [m.hostname for m in loaded.network.machines()] == [
            m.hostname for m in plain.network.machines()
        ]
        for machine in plain.network.machines():
            twin = loaded.network.machine(machine.hostname)
            assert [
                (p.pid, p.name, p.state, p.listen_ports)
                for p in twin.processes()
            ] == [
                (p.pid, p.name, p.state, p.listen_ports)
                for p in machine.processes()
            ]
        assert world_fingerprint(loaded) == world_fingerprint(plain)
        assert save_world(loaded) == save_world(plain)

    @staticmethod
    def with_old_stopped_record(payload):
        """``payload`` as a world saved while a kill kept the process:
        m1's killed ``oneshot`` record back in its process list."""
        m1 = next(m for m in payload["machines"] if m["hostname"] == "m1")
        appd = m1["processes"][0]
        m1["processes"].append(dict(
            appd, pid=appd["pid"] + 1, name="oneshot", command="oneshot",
            listen_ports=[], state="stopped",
        ))
        return m1

    def test_an_old_stopped_record_is_dropped(self, world):
        """Older worlds kept every process a stop killed; such a world
        loads as the same world without them."""
        from repro.runtime import world_fingerprint

        payload = json.loads(save_world(world))
        plain = load_world(json.dumps(payload))
        self.with_old_stopped_record(payload)
        loaded = load_world(json.dumps(payload))
        assert loaded.machine("m1").find_process("oneshot") is None
        assert world_fingerprint(loaded) == world_fingerprint(plain)
        assert save_world(loaded) == save_world(plain)

    def test_an_old_stopped_record_is_still_checked(self, world):
        """A dropped record is checked first: its pid may not repeat,
        and the next pid must lie above it."""
        payload = json.loads(save_world(world))
        m1 = self.with_old_stopped_record(payload)
        m1["processes"][1]["pid"] = m1["processes"][0]["pid"]
        with pytest.raises(SimulationError, match="repeats pid"):
            load_world(json.dumps(payload))
        payload = json.loads(save_world(world))
        m1 = self.with_old_stopped_record(payload)
        m1["next_pid"] = m1["processes"][1]["pid"]
        with pytest.raises(SimulationError, match="next_pid"):
            load_world(json.dumps(payload))

    def test_reloaded_world_has_the_live_fingerprint(
        self, registry, infrastructure, drivers, openmrs_partial
    ):
        """A process's instance id is part of the world: the Figure 2
        world read back from its file digests as the live one did."""
        from repro.config import ConfigurationEngine
        from repro.runtime import DeploymentEngine, world_fingerprint

        spec = ConfigurationEngine(registry).configure(openmrs_partial).spec
        DeploymentEngine(registry, infrastructure, drivers).deploy(spec)
        loaded = load_world(save_world(infrastructure))
        assert world_fingerprint(loaded) == world_fingerprint(infrastructure)
        assert {
            p.instance_id for p in loaded.machine("demotest").processes()
        } == {"mysql", "tomcat", "openmrs"}

    def test_an_old_world_without_instance_ids_loads(self, world):
        """Older worlds carry a restart count per process and no
        instance id: the count is ignored, the id reads as unknown."""
        world.machine("m1").spawn_process("svc", instance_id="svc")
        payload = json.loads(save_world(world))
        for machine in payload["machines"]:
            for process in machine["processes"]:
                process["restarts"] = 2
                del process["instance_id"]
        loaded = load_world(json.dumps(payload))
        processes = loaded.machine("m1").processes()
        assert [p.instance_id for p in processes] == [""] * len(processes)
        assert not hasattr(processes[0], "restarts")

    def test_a_non_string_instance_id_is_refused(self, world):
        payload = json.loads(save_world(world))
        index, m1 = next(
            (index, machine)
            for index, machine in enumerate(payload["machines"])
            if machine["hostname"] == "m1"
        )
        m1["processes"][0]["instance_id"] = 5
        with pytest.raises(SimulationError, match=(
            rf"'machines\[{index}\]\.processes\[0\]\.instance_id' is "
            r"not a string: 5"
        )):
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
        "clock-negative": lambda b: b["world"].update(clock=-5.0),
        "clock-nan": lambda b: b["world"].update(clock=float("nan")),
        "clock-infinite": lambda b: b["world"].update(clock=float("inf")),
        "clock-bool": lambda b: b["world"].update(clock=True),
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
        # Numbers no world can hold.  Each used to load and fail later,
        # if at all: a negative provision time only at the next
        # provisioning, as "cannot advance clock by -5".
        "provider-provision-negative":
            lambda b: _provider(b).update(provision_seconds=-5),
        "provider-provision-nan":
            lambda b: _provider(b).update(provision_seconds=float("nan")),
        "provider-provision-infinite":
            lambda b: _provider(b).update(provision_seconds=float("inf")),
        "provider-provision-bool":
            lambda b: _provider(b).update(provision_seconds=True),
        "provider-serial-negative":
            lambda b: _provider(b).update(serial=-1),
        "provider-serial-not-an-int":
            lambda b: _provider(b).update(serial=1.5),
        "machine-cpu-negative":
            lambda b: _machine(b).update(cpu_cores=-3),
        "machine-cpu-not-an-int":
            lambda b: _machine(b).update(cpu_cores="four"),
        "machine-memory-zero": lambda b: _machine(b).update(memory_mb=0),
        "machine-memory-not-an-int":
            lambda b: _machine(b).update(memory_mb=512.5),
        "downloads-negative":
            lambda b: _counters(b).update(downloads=-1),
        "downloads-not-a-number":
            lambda b: _counters(b).update(downloads="many"),
        "cache-hits-negative":
            lambda b: _counters(b).update(cache_hits=-2),
        "cache-hits-not-an-int":
            lambda b: _counters(b).update(cache_hits=True),
        # Process tables no machine can hold.  A next pid at a saved
        # one made the next spawn replace that process; a repeated pid
        # dropped one of the two.
        "process-pid-not-an-int": lambda b: _process(b, 0).update(pid="x"),
        "process-pid-repeated":
            lambda b: _process(b, 1).update(pid=_process(b, 0)["pid"]),
        "next-pid-not-above-saved":
            lambda b: _machine(b).update(next_pid=_process(b, 0)["pid"]),
        "process-started-at-nan":
            lambda b: _process(b, 0).update(started_at=float("nan")),
        "artifact-size-negative":
            lambda b: b["world"]["artifacts"][0].update(size_bytes=-100),
        "use-cache-not-a-bool": lambda b: b["world"].update(use_cache="no"),
        # A spec that fails static checking (§3.3).  Both used to load:
        # status and stop exited 0, and reconcile blamed the network.
        "port-value-ill-typed":
            lambda b: _instance(b, "tomcat")["config_port"].update(
                manager_port="eighty"),
        "peer-link-dropped":
            lambda b: _instance(b, "openmrs").update(peers=[]),
        # A mid-transition journal's old spec is read as well.
        "transition-from-spec-ill-typed":
            lambda b: b["state"]["journal"].update(
                transition=_ill_typed_transition(b)),
    }

    #: What the error of a row must name, beyond ``error: ``.
    NAMED = {
        "provider-provision-negative": ["'providers[0].provision_seconds'"],
        "provider-provision-nan": ["'providers[0].provision_seconds'"],
        "provider-provision-infinite": ["'providers[0].provision_seconds'"],
        "provider-provision-bool": ["'providers[0].provision_seconds'"],
        "provider-serial-negative": ["'providers[0].serial'"],
        "provider-serial-not-an-int": ["'providers[0].serial'"],
        "machine-cpu-negative": ["'machines[0].cpu_cores'"],
        "machine-cpu-not-an-int": ["'machines[0].cpu_cores'"],
        "machine-memory-zero": ["'machines[0].memory_mb'"],
        "machine-memory-not-an-int": ["'machines[0].memory_mb'"],
        "downloads-negative": ["'download_counters.downloads'"],
        "downloads-not-a-number": ["'download_counters.downloads'"],
        "cache-hits-negative": ["'download_counters.cache_hits'"],
        "cache-hits-not-an-int": ["'download_counters.cache_hits'"],
        "process-pid-not-an-int": ["'machines[0].processes[0].pid'"],
        "process-pid-repeated": ["'machines[0].processes[1].pid'",
                                 "repeats pid"],
        "next-pid-not-above-saved": ["'machines[0].next_pid'"],
        "process-started-at-nan": ["'machines[0].processes[0].started_at'"],
        "artifact-size-negative": ["'artifacts[0].size_bytes'"],
        "use-cache-not-a-bool": ["'use_cache'"],
        "port-value-ill-typed": ["static checking", "tomcat: config "
                                 "'manager_port' value 'eighty'"],
        "peer-link-dropped": ["static checking", "openmrs: unsatisfied "
                              "peer dependency"],
        "transition-from-spec-ill-typed": ["static checking", "tomcat: "
                                           "config 'manager_port'"],
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
        if mutation.startswith("clock-"):
            assert "section 'clock'" in output
        if mutation == "states-contradict-frontier":
            assert "'mysql'" in output
            assert "'inactive'" in output and "'active'" in output
        for name in self.NAMED.get(mutation, ()):
            assert name in output

    @pytest.mark.parametrize(
        "command", ["status", "stop", "reconcile", "upgrade"]
    )
    def test_ill_typed_bundle_is_refused_untouched(
        self, bundle, tmp_path, command
    ):
        """The hand-edited bundle -- an ill-typed port value and a
        dropped peer link -- is refused by every command that reads a
        bundle, before anything runs, naming both instances."""
        with open(bundle, encoding="utf-8") as handle:
            document = json.load(handle)
        self.HOSTILE["port-value-ill-typed"](document)
        self.HOSTILE["peer-link-dropped"](document)
        with open(bundle, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        before = pathlib.Path(bundle).read_bytes()
        argv = [command, bundle]
        if command == "upgrade":
            spec = tmp_path / "goal.json"
            spec.write_text(FIGURE_2)
            argv.append(str(spec))
        code, output = run(argv)
        assert code == 2
        assert output.startswith("error: ")
        assert "tomcat: config 'manager_port' value 'eighty'" in output
        assert "openmrs: unsatisfied peer dependency" in output
        assert pathlib.Path(bundle).read_bytes() == before

    @pytest.mark.parametrize("command", ["status", "reconcile", "plan"])
    def test_ill_formed_types_are_refused_untouched(
        self, bundle, tmp_path, command
    ):
        """A bundle type whose output reads a config port it does not
        declare is refused by every command that reads the bundle,
        naming the type and the port."""
        with open(bundle, encoding="utf-8") as handle:
            document = json.load(handle)
        types = document["types"]
        start = types.index('resource "Tomcat" 6.0.18')
        cut = types.index("port = config.manager_port", start)
        document["types"] = types[:cut] + types[cut:].replace(
            "config.manager_port", "config.no_such_port", 1
        )
        with open(bundle, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        before = pathlib.Path(bundle).read_bytes()
        argv = [command, bundle]
        if command == "plan":
            spec = tmp_path / "goal.json"
            spec.write_text(FIGURE_2)
            argv.append(str(spec))
        code, output = run(argv)
        assert code == 2
        assert (
            "Tomcat 6.0.18: output port 'tomcat' references unknown "
            "config port 'no_such_port'"
        ) in output
        assert pathlib.Path(bundle).read_bytes() == before

    def test_dangling_link_names_both_ids(self, bundle):
        """A spec instance linked to one the bundle does not hold is
        refused at load, naming both, not later inside ``prepare``."""
        with open(bundle, encoding="utf-8") as handle:
            document = json.load(handle)
        holder = next(e for e in document["state"]["spec"] if "inside" in e)
        holder["inside"]["id"] = "ghost"
        with open(bundle, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        code, output = run(["status", bundle])
        assert code == 2
        assert output == (
            f"error: instance {holder['id']} links to missing instance "
            "ghost\n"
        )


def _provider(bundle):
    return bundle["world"]["providers"][0]


def _machine(bundle):
    return bundle["world"]["machines"][0]


def _counters(bundle):
    return bundle["world"]["download_counters"]


def _process(bundle, index):
    return _machine(bundle)["processes"][index]


def _instance(bundle, instance_id):
    """The saved spec's entry for ``instance_id``."""
    return next(
        entry for entry in bundle["state"]["spec"]
        if entry["id"] == instance_id
    )


def _ill_typed_transition(bundle):
    """A down-phase transition record whose old spec is the bundle's own
    with ``tomcat``'s manager port ill-typed."""
    old = json.loads(json.dumps(bundle["state"]["spec"]))
    tomcat = next(entry for entry in old if entry["id"] == "tomcat")
    tomcat["config_port"]["manager_port"] = "eighty"
    return {"from_spec": old, "pending": [], "stop": [], "retire": []}


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
