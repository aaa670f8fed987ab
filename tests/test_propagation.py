"""Port-value propagation and the configuration engine end-to-end."""

import pytest

from repro.core import (
    PartialInstallSpec,
    PartialInstance,
    as_key,
)
from repro.core.errors import (
    ConfigurationError,
    PortError,
    PortTypeError,
    UnsatisfiableError,
)
from repro.config import (
    ConfigurationEngine,
    ConfigurationSession,
    generate_constraints,
    selected_nodes,
)
from repro.sat.solver import DpllSolver


@pytest.fixture
def engine(registry):
    return ConfigurationEngine(registry)


@pytest.fixture
def result(engine, openmrs_partial):
    return engine.configure(openmrs_partial)


class TestValueFlow:
    def test_machine_outputs_from_config(self, result):
        server = result.spec["server"]
        assert server.outputs["host"]["hostname"] == "demotest"
        assert server.outputs["host"]["os_user_name"] == "root"

    def test_host_flows_into_tomcat(self, result):
        tomcat = result.spec["tomcat"]
        assert tomcat.inputs["host"]["hostname"] == "demotest"

    def test_config_default_applied(self, result):
        assert result.spec["tomcat"].config["manager_port"] == 8080

    def test_output_computed_from_input_and_config(self, result):
        tomcat = result.spec["tomcat"]
        assert tomcat.outputs["tomcat"]["hostname"] == "demotest"
        assert tomcat.outputs["tomcat"]["port"] == 8080

    def test_database_record_reaches_openmrs(self, result):
        openmrs = result.spec["openmrs"]
        database = openmrs.inputs["database"]
        assert database["engine"] == "mysql"
        assert database["host"] == "demotest"
        assert database["port"] == 3306

    def test_format_output(self, result):
        assert (
            result.spec["openmrs"].outputs["url"]
            == "http://demotest:8080/openmrs"
        )

    def test_explicit_config_override(self, engine, registry):
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    "server", as_key("Mac-OSX 10.6"),
                    config={"hostname": "prod"},
                ),
                PartialInstance(
                    "tomcat",
                    as_key("Tomcat 6.0.18"),
                    inside_id="server",
                    config={"manager_port": 9090},
                ),
            ]
        )
        spec = engine.configure(partial).spec
        assert spec["tomcat"].config["manager_port"] == 9090
        assert spec["tomcat"].outputs["tomcat"]["port"] == 9090

    def test_unknown_config_name_rejected(self, engine):
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    "server", as_key("Mac-OSX 10.6"),
                    config={"hostnam": "typo"},
                )
            ]
        )
        with pytest.raises(PortError):
            engine.configure(partial)

    def test_type_error_rejected(self, engine):
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    "server", as_key("Mac-OSX 10.6"),
                    config={"hostname": "h"},
                ),
                PartialInstance(
                    "tomcat",
                    as_key("Tomcat 6.0.18"),
                    inside_id="server",
                    config={"manager_port": "eighty-eighty"},
                ),
            ]
        )
        with pytest.raises(PortTypeError):
            engine.configure(partial)


class TestStaticReverseFlow:
    def test_reverse_value_in_container_inputs(self, result):
        """OpenMRS's static webapp_config flows backwards into Tomcat."""
        tomcat = result.spec["tomcat"]
        assert (
            tomcat.inputs["extra_config"]
            == "conf/Catalina/localhost/openmrs.xml"
        )

    def test_neutral_when_no_dependent(self, engine):
        partial = PartialInstallSpec(
            [
                PartialInstance(
                    "server", as_key("Mac-OSX 10.6"),
                    config={"hostname": "h"},
                ),
                PartialInstance(
                    "tomcat", as_key("Tomcat 6.0.18"), inside_id="server"
                ),
            ]
        )
        spec = engine.configure(partial).spec
        assert spec["tomcat"].inputs["extra_config"] == ""


class TestLinks:
    def test_inside_links(self, result):
        assert result.spec["tomcat"].inside.target.id == "server"
        assert result.spec["openmrs"].inside.target.id == "tomcat"

    def test_peer_link(self, result):
        assert [l.target.id for l in result.spec["openmrs"].peers] == ["mysql"]

    def test_exactly_one_java_deployed(self, result):
        java_nodes = [
            i.id
            for i in result.spec
            if i.key.name in ("JDK", "JRE")
        ]
        assert len(java_nodes) == 1

    def test_environment_links_resolved(self, result):
        env_targets = [l.target.id for l in result.spec["tomcat"].environment]
        assert len(env_targets) == 1
        assert env_targets[0] in ("jdk", "jre")


class TestUnsat:
    def test_pinning_both_java_runtimes_is_unsat(self, engine, openmrs_partial):
        """Tomcat's env dep says exactly one Java runtime: pinning both in
        the partial spec yields contradictory exactly-one constraints."""
        openmrs_partial.add(
            PartialInstance("jdk_pin", as_key("JDK 1.6"), inside_id="server")
        )
        openmrs_partial.add(
            PartialInstance("jre_pin", as_key("JRE 1.6"), inside_id="server")
        )
        with pytest.raises(UnsatisfiableError):
            engine.configure(openmrs_partial)


def dpll_deployed(result):
    """The deployed set the reference DPLL solver picks for the CNF of
    ``result``'s graph (the pinned instances as unit clauses, as every
    configure path states them)."""
    formula, _stats = generate_constraints(result.graph)
    dpll = DpllSolver(formula)
    assert dpll.solve()
    named = {
        str(name): value
        for name, value in formula.decode_model(dpll.model()).items()
    }
    return selected_nodes(result.graph, named)[0]


class TestEngineOptions:
    def test_dpll_backend_agrees(self, registry, openmrs_partial):
        cdcl = ConfigurationEngine(registry).configure(openmrs_partial)
        dpll_ids = dpll_deployed(cdcl)
        assert set(cdcl.deployed_ids) == dpll_ids or (
            # Both must at least deploy the mandatory instances.
            {"server", "tomcat", "openmrs", "mysql"}
            <= set(cdcl.deployed_ids) & dpll_ids
        )

    def test_removed_options_raise_type_error(self, registry):
        for front_end in (ConfigurationEngine, ConfigurationSession):
            for removed in (
                "workers", "solver", "start_method", "encoding",
                "check_types", "explain_unsat", "peer_policy",
            ):
                with pytest.raises(TypeError, match=removed):
                    front_end(registry, **{removed: 2})

    def test_stats_exposed(self, result):
        assert result.constraint_stats.variables >= 6
        assert result.constraint_stats.clauses > 0
        assert result.solver_stats.propagations > 0
