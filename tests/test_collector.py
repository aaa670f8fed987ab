"""Batch passes run with the cyclic collector paused: the contract of
``collector_paused`` and the entry points it is applied to."""

import gc

import pytest

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.collector import collector_paused
from repro.core.errors import DeploymentFailure, UnsatisfiableError
from repro.core.jsontext import document_text, indented
from repro.dsl import full_to_json
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import (
    BusCoordinator,
    DeploymentEngine,
    ReconcileController,
    execute_delta,
    save_system,
)
from repro.sim import FaultPlan, save_world


@pytest.fixture(autouse=True)
def collector_enabled():
    assert gc.isenabled()
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("a test left the collector disabled")


@collector_paused
def observe(seen, inner=None):
    seen.append(gc.isenabled())
    if inner is not None:
        inner(seen)
        seen.append(gc.isenabled())
    return len(seen)


def test_a_pass_runs_paused_and_returns_its_result():
    seen = []
    assert observe(seen) == 1
    assert seen == [False]
    assert gc.isenabled()


def test_nested_passes_keep_it_off_until_the_outermost_returns():
    seen = []
    observe(seen, inner=observe)
    assert seen == [False, False, False]
    assert gc.isenabled()


def test_a_callers_own_disable_is_respected():
    gc.disable()
    try:
        seen = []
        observe(seen)
        assert seen == [False]
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_an_exception_leaves_the_collector_as_it_found_it():
    @collector_paused
    def failing():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        failing()
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(ValueError):
            failing()
        assert not gc.isenabled()
    finally:
        gc.enable()


def conflict():
    return PartialInstallSpec([
        PartialInstance("server", as_key("Mac-OSX 10.6"),
                        config={"hostname": "h"}),
        PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                        inside_id="server"),
        PartialInstance("jdk_pin", as_key("JDK 1.6"), inside_id="server"),
        PartialInstance("jre_pin", as_key("JRE 1.6"), inside_id="server"),
    ])


def openmrs():
    return PartialInstallSpec([
        PartialInstance("server", as_key("Mac-OSX 10.6"),
                        config={"hostname": "demotest"}),
        PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                        inside_id="server"),
        PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                        inside_id="tomcat"),
    ])


@pytest.mark.parametrize("enabled", [True, False])
def test_unsatisfiable_configure_restores_the_collector(enabled):
    if not enabled:
        gc.disable()
    try:
        for configure in (
            ConfigurationEngine(standard_registry()).configure,
            ConfigurationSession(standard_registry()).configure,
        ):
            with pytest.raises(UnsatisfiableError):
                configure(conflict())
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_failed_deploy_restores_the_collector(enabled):
    registry = standard_registry()
    spec = ConfigurationEngine(registry).configure(openmrs()).spec
    infrastructure = standard_infrastructure()
    infrastructure.set_fault_plan(FaultPlan().on("driver:tomcat:install"))
    engine = DeploymentEngine(registry, infrastructure, standard_drivers())
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(DeploymentFailure):
            engine.deploy(spec)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "entry_point",
    [
        ConfigurationEngine.configure,
        ConfigurationSession.configure,
        DeploymentEngine.resume,
        BusCoordinator.deploy,
        execute_delta,
        ReconcileController.run,
        full_to_json,
        save_system,
        save_world,
        indented,
        document_text,
    ],
    ids=lambda function: function.__qualname__,
)
def test_batch_entry_points_are_paused(entry_point):
    # Every function collector_paused decorates runs the same wrapper.
    assert entry_point.__code__ is collector_paused(len).__code__


def test_deploy_drives_with_the_collector_off(monkeypatch):
    registry = standard_registry()
    spec = ConfigurationEngine(registry).configure(openmrs()).spec
    engine = DeploymentEngine(
        registry, standard_infrastructure(), standard_drivers()
    )
    seen = []
    drive = DeploymentEngine._drive

    def spy(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return drive(self, *args, **kwargs)

    monkeypatch.setattr(DeploymentEngine, "_drive", spy)
    assert engine.deploy(spec).is_deployed()
    assert seen == [False]
    assert gc.isenabled()
