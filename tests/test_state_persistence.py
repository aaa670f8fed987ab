"""Saving and re-adopting deployed systems (persistent state)."""

import json

import pytest

from repro.config import ConfigurationEngine
from repro.core.errors import RuntimeEngageError
from repro.drivers import ACTIVE, INACTIVE
from repro.runtime import (
    DeploymentEngine,
    DeploymentJournal,
    ProcessMonitor,
    load_system,
    save_system,
)


@pytest.fixture
def world(registry, infrastructure, drivers, openmrs_partial):
    spec = ConfigurationEngine(registry).configure(openmrs_partial).spec
    engine = DeploymentEngine(registry, infrastructure, drivers)
    system = engine.deploy(spec)
    return engine, system


class TestSaveLoad:
    def test_roundtrip_states(self, world, registry, infrastructure,
                              drivers):
        engine, system = world
        text = save_system(system)
        adopted = load_system(registry, infrastructure, drivers, text)
        assert adopted.states() == system.states()
        assert adopted.spec.ids() == system.spec.ids()

    def test_adopted_drivers_hold_live_processes(
        self, world, registry, infrastructure, drivers
    ):
        engine, system = world
        adopted = load_system(
            registry, infrastructure, drivers, save_system(system)
        )
        mysql = adopted.driver("mysql")
        assert mysql.process is not None
        assert mysql.process.is_running()
        assert mysql.process is system.driver("mysql").process

    def test_adopted_system_can_be_shut_down(
        self, world, registry, infrastructure, drivers
    ):
        engine, system = world
        adopted = load_system(
            registry, infrastructure, drivers, save_system(system)
        )
        fresh_engine = DeploymentEngine(registry, infrastructure, drivers)
        fresh_engine.shutdown(adopted)
        assert set(adopted.states().values()) == {INACTIVE}
        assert not infrastructure.network.can_connect("demotest", 3306)

    def test_monitor_works_on_adopted_system(
        self, world, registry, infrastructure, drivers
    ):
        engine, system = world
        adopted = load_system(
            registry, infrastructure, drivers, save_system(system)
        )
        monitor = ProcessMonitor(adopted)
        adopted.driver("tomcat").process.fail()
        events = monitor.poll()
        assert [e.instance_id for e in events] == ["tomcat"]
        assert infrastructure.network.can_connect("demotest", 8080)

    def test_saving_stopped_system(self, world, registry, infrastructure,
                                   drivers):
        engine, system = world
        engine.shutdown(system)
        adopted = load_system(
            registry, infrastructure, drivers, save_system(system)
        )
        assert set(adopted.states().values()) == {INACTIVE}
        # And it can be started again.
        DeploymentEngine(registry, infrastructure, drivers).start(adopted)
        assert adopted.is_deployed()


class TestValidation:
    def test_malformed_json(self, registry, infrastructure, drivers):
        with pytest.raises(RuntimeEngageError):
            load_system(registry, infrastructure, drivers, "{nope")

    def test_wrong_format_marker(self, world, registry, infrastructure,
                                 drivers):
        engine, system = world
        payload = json.loads(save_system(system))
        payload["format"] = "engage-state-99"
        with pytest.raises(RuntimeEngageError):
            load_system(
                registry, infrastructure, drivers, json.dumps(payload)
            )

    def test_missing_state_entry(self, world, registry, infrastructure,
                                 drivers):
        engine, system = world
        payload = json.loads(save_system(system))
        del payload["states"]["mysql"]
        with pytest.raises(RuntimeEngageError):
            load_system(
                registry, infrastructure, drivers, json.dumps(payload)
            )

    def test_invalid_state_name(self, world, registry, infrastructure,
                                drivers):
        engine, system = world
        payload = json.loads(save_system(system))
        payload["states"]["mysql"] = "warming_up"
        with pytest.raises(RuntimeEngageError):
            load_system(
                registry, infrastructure, drivers, json.dumps(payload)
            )

    def test_dead_process_adopted_for_repair(
        self, world, registry, infrastructure, drivers
    ):
        """The state file says active but the process has died: the
        failed process is adopted as-is so the monitor can repair it
        (the `engage-sim watch` flow)."""
        engine, system = world
        text = save_system(system)
        system.driver("mysql").process.fail()
        adopted = load_system(registry, infrastructure, drivers, text)
        assert not adopted.driver("mysql").process.is_running()
        monitor = ProcessMonitor(adopted)
        events = monitor.poll()
        assert [e.instance_id for e in events] == ["mysql"]
        assert infrastructure.network.can_connect("demotest", 3306)

    def test_missing_process_record_refused(
        self, world, registry, infrastructure, drivers
    ):
        """No process record at all contradicts the state file."""
        import json as json_module

        engine, system = world
        text = save_system(system)
        # Simulate a divergent world: a fresh machine with no processes.
        payload = json_module.loads(text)
        infrastructure.network.unregister_machine("demotest")
        infrastructure.add_machine("demotest", "mac-osx", "10.6")
        with pytest.raises(RuntimeEngageError):
            load_system(registry, infrastructure, drivers,
                        json_module.dumps(payload))


class TestOneFormat:
    """A state file has one written format, and its journal is the
    system's: what is saved does not depend on an argument."""

    def test_saved_system_carries_its_journal(
        self, world, registry, infrastructure, drivers
    ):
        engine, system = world
        text = save_system(system)
        assert '"engage-state-2"' in text
        journal = load_system(registry, infrastructure, drivers, text).journal
        assert isinstance(journal, DeploymentJournal)
        assert journal.entries == system.journal.entries
        assert journal.entries  # the deploy's own record
        assert journal.completed == set(system.spec.ids())

    def test_naming_the_systems_journal_is_the_same_file(self, world):
        engine, system = world
        assert save_system(system, system.journal) == save_system(system)

    def test_another_journal_is_refused(self, world):
        engine, system = world
        with pytest.raises(RuntimeEngageError, match="system.journal"):
            save_system(system, DeploymentJournal(system.spec))

    def test_v1_document_loads_with_a_blank_journal(
        self, world, registry, infrastructure, drivers
    ):
        engine, system = world
        payload = json.loads(save_system(system))
        v1 = {
            "format": "engage-state-1",
            "spec": payload["spec"],
            "states": payload["states"],
        }
        adopted = load_system(
            registry, infrastructure, drivers, json.dumps(v1)
        )
        assert adopted.states() == system.states()
        assert adopted.journal.entries == []
        assert adopted.journal.completed == set()
        # ...and is written back in the one format there is.
        assert '"engage-state-2"' in save_system(adopted)

    def test_states_contradicting_the_frontier_are_refused(
        self, world, registry, infrastructure, drivers
    ):
        engine, system = world
        payload = json.loads(save_system(system))
        payload["states"]["mysql"] = "inactive"
        with pytest.raises(RuntimeEngageError) as excinfo:
            load_system(
                registry, infrastructure, drivers, json.dumps(payload)
            )
        message = str(excinfo.value)
        assert "'mysql'" in message
        assert "'inactive'" in message and "'active'" in message
