"""Machines, processes, and the network."""

import pytest

from repro.core.errors import SimulationError
from repro.sim import (
    ConnectionRefused,
    Infrastructure,
    Machine,
    Network,
    OsIdentity,
    ProcessState,
    SimClock,
)


@pytest.fixture
def world():
    return Infrastructure()


@pytest.fixture
def machine(world):
    return world.add_machine("web1", "ubuntu-linux", "10.04")


class TestMachine:
    def test_facts(self, machine):
        facts = machine.facts()
        assert facts["hostname"] == "web1"
        assert facts["os_name"] == "ubuntu-linux"
        assert facts["os_version"] == "10.04"
        assert facts["ip_address"].startswith("10.")

    def test_base_directories(self, machine):
        for path in ("/etc", "/opt", "/tmp", "/var/log"):
            assert machine.fs.is_dir(path)

    def test_registered_on_network(self, world, machine):
        assert world.network.machine("web1") is machine

    def test_duplicate_hostname_rejected(self, world, machine):
        with pytest.raises(SimulationError):
            world.add_machine("web1")


class TestProcesses:
    def test_spawn_binds_ports(self, world, machine):
        process = machine.spawn_process("mysqld", listen_ports=[3306])
        assert process.is_running()
        assert world.network.can_connect("web1", 3306)

    def test_port_conflict_rejected(self, machine):
        machine.spawn_process("a", listen_ports=[80])
        with pytest.raises(SimulationError):
            machine.spawn_process("b", listen_ports=[80])

    def test_kill_releases_port(self, world, machine):
        process = machine.spawn_process("svc", listen_ports=[80])
        machine.kill_process(process.pid)
        assert process.state == ProcessState.STOPPED
        assert not world.network.can_connect("web1", 80)
        machine.spawn_process("svc2", listen_ports=[80])  # port is free

    def test_failed_process_refuses_connections(self, world, machine):
        process = machine.spawn_process("svc", listen_ports=[80])
        process.fail()
        assert process.state == ProcessState.FAILED
        with pytest.raises(ConnectionRefused):
            world.network.connect("web1", 80)

    def test_restart_process(self, world, machine):
        # A service driver's restart: kill the dead process, spawn anew.
        process = machine.spawn_process("svc", listen_ports=[80])
        process.fail()
        machine.kill_process(process.pid)
        fresh = machine.spawn_process("svc", listen_ports=[80])
        assert fresh.is_running() and fresh.pid != process.pid
        assert world.network.can_connect("web1", 80)
        assert machine.find_process("svc") is fresh

    def test_find_process(self, machine):
        machine.spawn_process("a")
        newer = machine.spawn_process("a")
        assert machine.find_process("a") is newer
        assert machine.find_process("ghost") is None

    def test_kill_unknown_pid(self, machine):
        with pytest.raises(SimulationError):
            machine.kill_process(99999)

    def test_running_processes(self, machine):
        a = machine.spawn_process("a")
        machine.spawn_process("b")
        machine.kill_process(a.pid)
        assert [p.name for p in machine.running_processes()] == ["b"]


class TestSnapshots:
    def test_restore_stops_processes_and_reverts_fs(self, world, machine):
        machine.fs.write_file("/etc/app.conf", "v1")
        snap = machine.snapshot()
        machine.fs.write_file("/etc/app.conf", "v2")
        machine.spawn_process("svc", listen_ports=[80])
        machine.restore(snap)
        assert machine.fs.read_file("/etc/app.conf") == "v1"
        assert machine.running_processes() == []
        assert not world.network.can_connect("web1", 80)


class TestNetwork:
    def test_connect_unknown_endpoint(self, world, machine):
        with pytest.raises(ConnectionRefused):
            world.network.connect("web1", 9999)

    def test_unknown_machine(self, world):
        with pytest.raises(SimulationError):
            world.network.machine("ghost")

    def test_unregister_clears_endpoints(self, world, machine):
        machine.spawn_process("svc", listen_ports=[80])
        world.network.unregister_machine("web1")
        assert not world.network.has_machine("web1")
        with pytest.raises(ConnectionRefused):
            world.network.connect("web1", 80)

    def test_retiring_a_host_leaves_every_other_endpoint(self, world):
        """A host's endpoints are indexed by host: removing one touches
        its own and leaves the rest resolvable, in sorted order."""
        hosts = [world.add_machine(name) for name in ("a", "b", "c")]
        for offset, host in enumerate(hosts):
            host.spawn_process("web", listen_ports=[80, 8000 + offset])
            host.spawn_process("db", listen_ports=[5432])
        hosts[1].kill_process(hosts[1].find_process("db").pid)
        world.network.unregister_machine("b")
        endpoints = [(e.hostname, e.port) for e in world.network.endpoints()]
        assert endpoints == [
            ("a", 80), ("a", 5432), ("a", 8000),
            ("c", 80), ("c", 5432), ("c", 8002),
        ]
        for hostname, port in endpoints:
            assert world.network.can_connect(hostname, port)
        assert not world.network.can_connect("b", 80)
        # The host comes back with a clean table.
        world.add_machine("b").spawn_process("web", listen_ports=[80])
        assert [(e.hostname, e.port) for e in world.network.endpoints()
                if e.hostname == "b"] == [("b", 80)]

    def test_counters(self, world, machine):
        machine.spawn_process("svc", listen_ports=[80])
        world.network.can_connect("web1", 80)
        world.network.can_connect("web1", 81)
        assert world.network.connections_attempted == 2
        assert world.network.connections_refused == 1

    def test_machines_sorted(self, world, machine):
        world.add_machine("alpha")
        hostnames = [m.hostname for m in world.network.machines()]
        assert hostnames == sorted(hostnames)


class TestClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now == 7.5

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-1)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(10.0)
        clock.advance_to(5.0)  # no-op backwards
        assert clock.now == 10.0
