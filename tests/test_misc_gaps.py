"""Focused tests for smaller corners of the public surface."""

from repro.config import ConfigurationEngine
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.runtime import DeploymentEngine


class TestDeploymentReportHelpers:
    def test_action_timestamps_monotonic(self, registry, infrastructure,
                                         drivers, openmrs_partial):
        spec = ConfigurationEngine(registry).configure(openmrs_partial).spec
        system = DeploymentEngine(
            registry, infrastructure, drivers
        ).deploy(spec)
        times = [a.started_at for a in system.report.actions]
        assert times == sorted(times)
        assert all(a.duration >= 0 for a in system.report.actions)


class TestNetworkEndpoints:
    def test_endpoints_listing(self, infrastructure):
        machine = infrastructure.add_machine("e1")
        machine.spawn_process("svc", listen_ports=[80, 8080])
        endpoints = infrastructure.network.endpoints()
        assert [(e.hostname, e.port) for e in endpoints] == [
            ("e1", 80), ("e1", 8080),
        ]
        assert "svc" in str(endpoints[0])

    def test_rebind_after_failure_allowed(self, infrastructure):
        machine = infrastructure.add_machine("e2")
        process = machine.spawn_process("svc", listen_ports=[80])
        process.fail()
        # A failed listener no longer owns the port.
        machine.spawn_process("svc2", listen_ports=[80])
        assert infrastructure.network.connect("e2", 80).name == "svc2"


class TestRegistryCaching:
    def test_effective_is_memoised(self, registry):
        key = as_key("Tomcat 6.0.18")
        assert registry.effective(key) is registry.effective(key)

    def test_raw_differs_from_effective_for_subtypes(self, registry):
        key = as_key("Mac-OSX 10.6")
        raw = registry.raw(key)
        effective = registry.effective(key)
        assert not raw.output_ports  # inherited only
        assert effective.output_ports  # flattened in


class TestConfigureEdges:
    def test_empty_partial_spec(self, registry):
        engine = ConfigurationEngine(registry)
        result = engine.configure(PartialInstallSpec())
        assert len(result.spec) == 0

    def test_machine_only_partial(self, registry):
        engine = ConfigurationEngine(registry)
        partial = PartialInstallSpec(
            [PartialInstance("m", as_key("Mac-OSX 10.6"),
                             config={"hostname": "solo"})]
        )
        result = engine.configure(partial)
        assert result.spec.ids() == ["m"]
        assert result.spec["m"].outputs["host"]["hostname"] == "solo"
