"""Unsatisfiability explanation (MUS over partial-spec facts)."""

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import UnsatisfiableError
from repro.config import (
    ConfigurationEngine,
    ConfigurationSession,
    explain_message,
    explain_unsat,
)


def pinned_java_conflict(openmrs_partial):
    openmrs_partial.add(
        PartialInstance("jdk_pin", as_key("JDK 1.6"), inside_id="server")
    )
    openmrs_partial.add(
        PartialInstance("jre_pin", as_key("JRE 1.6"), inside_id="server")
    )
    return openmrs_partial


class TestExplainUnsat:
    def test_satisfiable_returns_none(self, registry, openmrs_partial):
        assert explain_unsat(registry, openmrs_partial) is None
        assert explain_message(registry, openmrs_partial) is None

    def test_conflict_core_found(self, registry, openmrs_partial):
        partial = pinned_java_conflict(openmrs_partial)
        explanation = explain_unsat(registry, partial)
        assert explanation is not None
        # The two pinned runtimes are in the core; the innocent openmrs
        # instance (removable without restoring satisfiability? it is
        # not needed for the conflict) is not.
        assert {"jdk_pin", "jre_pin"} <= set(explanation.conflicting_ids)
        assert "openmrs" not in explanation.conflicting_ids

    def test_core_is_minimal(self, registry, openmrs_partial):
        """Dropping any single member of the core restores
        satisfiability -- the definition of minimality."""
        partial = pinned_java_conflict(openmrs_partial)
        explanation = explain_unsat(registry, partial)
        core = set(explanation.conflicting_ids)
        for victim in core:
            reduced = PartialInstallSpec(
                [
                    instance
                    for instance in partial
                    if instance.id != victim
                    # keep inside-children consistent: drop orphans too
                    and (instance.inside_id != victim)
                ]
            )
            # Dropping tomcat orphans openmrs; patch it out as well.
            survivors = {i.id for i in reduced}
            reduced = PartialInstallSpec(
                [
                    instance
                    for instance in reduced
                    if instance.inside_id is None
                    or instance.inside_id in survivors
                ]
            )
            assert explain_unsat(registry, reduced) is None, victim

    def test_related_edges_reported(self, registry, openmrs_partial):
        partial = pinned_java_conflict(openmrs_partial)
        explanation = explain_unsat(registry, partial)
        sources = {source for source, _ in explanation.related_edges}
        assert "tomcat" in sources

    def test_message_names_keys(self, registry, openmrs_partial):
        partial = pinned_java_conflict(openmrs_partial)
        message = explain_message(registry, partial)
        assert "JDK 1.6" in message
        assert "JRE 1.6" in message
        assert "exactly one" in message

    def test_engine_error_carries_explanation(
        self, registry, openmrs_partial
    ):
        partial = pinned_java_conflict(openmrs_partial)
        with pytest.raises(UnsatisfiableError) as excinfo:
            ConfigurationEngine(registry).configure(partial)
        assert "cannot be deployed together" in str(excinfo.value)

    def test_engine_explanation_can_be_disabled(
        self, registry, openmrs_partial
    ):
        partial = pinned_java_conflict(openmrs_partial)
        engine = ConfigurationEngine(
            registry, verify_registry=False, explain_unsat=False
        )
        with pytest.raises(UnsatisfiableError) as excinfo:
            engine.configure(partial)
        assert "cannot be deployed together" not in str(excinfo.value)

    def test_unsat_diagnosis_reuses_the_graph(
        self, registry, openmrs_partial, monkeypatch
    ):
        """The graph that proved UNSAT is the one diagnosed: GraphGen
        runs once per cold configure and not at all on a session graph
        hit (it used to run again inside ``explain_unsat``, and under
        the default peer policy whatever the engine's was)."""
        from repro.config import engine, explain, hypergraph

        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return hypergraph.generate_graph(*args, **kwargs)

        monkeypatch.setattr(engine, "generate_graph", counting)
        monkeypatch.setattr(explain, "generate_graph", counting)
        partial = pinned_java_conflict(openmrs_partial)
        with pytest.raises(UnsatisfiableError) as cold:
            ConfigurationEngine(registry).configure(partial)
        assert len(calls) == 1
        session = ConfigurationSession(registry, partition=True)
        with pytest.raises(UnsatisfiableError):
            session.configure(partial)
        assert len(calls) == 2
        with pytest.raises(UnsatisfiableError) as warm:
            session.configure(partial)
        assert len(calls) == 2  # graph hit: the cached graph is diagnosed
        assert str(warm.value) == str(cold.value)
        assert explain_message(registry, partial) in str(cold.value)
        assert len(calls) == 3

    def test_webserver_conflict(self, registry, infrastructure):
        from repro.django import package_application, table1_apps

        app = table1_apps()[0]
        key = package_application(app, registry, infrastructure)
        partial = PartialInstallSpec(
            [
                PartialInstance("node", as_key("Ubuntu-Linux 10.04"),
                                config={"hostname": "n"}),
                PartialInstance("app", key, inside_id="node"),
                PartialInstance("g", as_key("Gunicorn 0.13"),
                                inside_id="node"),
                PartialInstance("a", as_key("Apache-HTTPD 2.2"),
                                inside_id="node"),
            ]
        )
        explanation = explain_unsat(registry, partial)
        assert explanation is not None
        assert {"g", "a"} <= set(explanation.conflicting_ids)
