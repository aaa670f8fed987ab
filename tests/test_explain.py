"""Unsatisfiability explanation (MUS over partial-spec facts).

Besides the hand-written cases: on random UNSAT mutants -- one conflict,
or two planted at once -- the core-skipping diagnosis equals a reference
copy of the sweep that solved every candidate, both the per-component
and the whole-graph one; every diagnosis is minimal, checked with
assumptions on a fresh solver; on a hub-shaped fleet the number of
solves does not grow with the fleet, through an engine in either mode;
and a refused configure call partitions and encodes each component at
most once, its diagnosis included.
"""

import random

import pytest

from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import UnsatisfiableError
from repro.config import (
    ConfigurationEngine,
    ConfigurationSession,
    explain_message,
    explain_unsat,
)
from repro.config.constraints import generate_constraints
from repro.config.engine import ComponentEntry
from repro.config.hypergraph import generate_graph
from repro.config.partition import partition_graph, whole_graph_component
from repro.library import standard_registry
from repro.sat import CdclSolver, CnfFormula

from tests.test_fuzz import conflict_mutant, random_fleet_partial

REGISTRY = standard_registry()


def diagnose(registry, partial):
    """``explain_unsat`` over ``partial``'s connected components, the
    sweep ``explain_message`` runs."""
    graph = generate_graph(registry, partial)
    return explain_unsat(graph, [
        ComponentEntry(component)
        for component in partition_graph(graph).components
    ])


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
        assert diagnose(registry, openmrs_partial) is None
        assert explain_message(registry, openmrs_partial) is None

    def test_conflict_core_found(self, registry, openmrs_partial):
        partial = pinned_java_conflict(openmrs_partial)
        explanation = diagnose(registry, partial)
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
        explanation = diagnose(registry, partial)
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
            assert diagnose(registry, reduced) is None, victim

    def test_related_edges_reported(self, registry, openmrs_partial):
        partial = pinned_java_conflict(openmrs_partial)
        explanation = diagnose(registry, partial)
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

    def test_unsat_diagnosis_reuses_the_graph(
        self, registry, openmrs_partial, monkeypatch
    ):
        """The graph that proved UNSAT is the one diagnosed: GraphGen
        runs once per cold configure and not at all on a session graph
        hit (it used to run again inside ``explain_unsat``)."""
        from repro.config import explain, groups, hypergraph, session

        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return hypergraph.generate_graph(*args, **kwargs)

        for module in (session, groups, explain):
            monkeypatch.setattr(module, "generate_graph", counting)
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
        explanation = diagnose(registry, partial)
        assert explanation is not None
        assert {"g", "a"} <= set(explanation.conflicting_ids)


# -- The core-skipping sweep against the one that solved every candidate ----


def assumption_encoding(graph):
    """``graph``'s constraint formula without the unit clauses that pin
    its partial-spec nodes, and the literal asserting each pinned node:
    the clause database both reference sweeps query under assumptions,
    derived here from ``generate_constraints`` alone."""
    formula, _stats = generate_constraints(graph)
    facts = {
        node.instance_id: formula.var(node.instance_id)
        for node in graph.nodes()
        if node.from_partial
    }
    units = {(literal,) for literal in facts.values()}
    structure = CnfFormula()
    for node in graph.nodes():
        structure.var(node.instance_id)
    for clause in formula.clauses():
        if clause not in units:
            structure.add_clause(clause)
    assert structure.num_vars == formula.num_vars
    return structure, facts


def reference_conflict(partial, *, partition):
    """The deletion sweep before failed-assumption cores, kept as the
    reference: one solve per pinned instance.  The sorted conflicting
    ids, or None when ``partial`` is satisfiable."""
    graph = generate_graph(REGISTRY, partial)
    components = (
        partition_graph(graph).components
        if partition
        else [whole_graph_component(graph)]
    )
    solvers, fact_maps, kept, component_of = [], [], [], {}
    for component in components:
        formula, facts = assumption_encoding(component.graph)
        solvers.append(CdclSolver(formula))
        fact_maps.append(facts)
        kept.append(sorted(facts))
        for fact_id in facts:
            component_of[fact_id] = component.index

    def solve_component(index, fact_ids):
        return solvers[index].solve(
            [fact_maps[index][iid] for iid in fact_ids]
        )

    satisfiable = [
        solve_component(index, kept[index]) for index in range(len(kept))
    ]
    if all(satisfiable):
        return None
    for candidate in sorted(component_of):
        index = component_of[candidate]
        trial = [iid for iid in kept[index] if iid != candidate]
        if any(
            not ok for other, ok in enumerate(satisfiable) if other != index
        ):
            kept[index] = trial
            satisfiable[index] = solve_component(index, trial)
        elif not solve_component(index, trial):
            kept[index] = trial
            satisfiable[index] = False
    return sorted(iid for ids in kept for iid in ids)


def two_conflicts(seed):
    """A random fleet with the JDK + JRE conflict planted on two
    machines at once (a machine is added when the fleet has one)."""
    rng = random.Random(seed)
    entries = list(random_fleet_partial(seed))
    machines = [e for e in entries if e.inside_id is None]
    if len(machines) < 2:
        entries.append(PartialInstance(
            "spare", machines[0].key, config={"hostname": "spare"},
        ))
        machines.append(entries[-1])
    for n, machine in enumerate(rng.sample(machines, 2)):
        entries += [
            PartialInstance(f"clash{n}_tomcat", as_key("Tomcat 6.0.18"),
                            inside_id=machine.id),
            PartialInstance(f"clash{n}_jdk", as_key("JDK 1.6"),
                            inside_id=machine.id),
            PartialInstance(f"clash{n}_jre", as_key("JRE 1.6"),
                            inside_id=machine.id),
        ]
    return PartialInstallSpec(entries)


def assert_minimal(partial, conflicting_ids):
    """The set is refuted, and dropping any one member makes it
    satisfiable: assumptions on fresh solvers, the spec left as is."""
    formula, facts = assumption_encoding(generate_graph(REGISTRY, partial))
    literals = [facts[iid] for iid in conflicting_ids]
    assert not CdclSolver(formula).solve(literals)
    for k, victim in enumerate(conflicting_ids):
        rest = literals[:k] + literals[k + 1:]
        assert CdclSolver(formula).solve(rest), victim


def check_diagnosis(partial):
    """The diagnosis is the same over the connected components and over
    the whole graph as one component (the monolithic engine's), equals
    both reference sweeps, and is minimal."""
    explanation = diagnose(REGISTRY, partial)
    graph = generate_graph(REGISTRY, partial)
    whole = [ComponentEntry(whole_graph_component(graph))]
    assert explain_unsat(graph, whole) == explanation
    for partition in (False, True):
        expected = reference_conflict(partial, partition=partition)
        assert explanation.conflicting_ids == expected, partition
    assert_minimal(partial, explanation.conflicting_ids)


MUTANTS = [("one", seed) for seed in range(8)] + [
    ("two", seed) for seed in range(8)
]


def mutant(kind, seed):
    return conflict_mutant(seed) if kind == "one" else two_conflicts(seed)


class TestDiagnosisMatchesReference:
    @pytest.mark.parametrize("kind,seed", MUTANTS)
    def test_same_conflict(self, kind, seed):
        check_diagnosis(mutant(kind, seed))

    def test_two_conflicts_span_components(self):
        """The corpus reaches the branch where another component
        already conflicts."""
        spans = 0
        for seed in range(8):
            partial = two_conflicts(seed)
            graph = generate_graph(REGISTRY, partial)
            owners = {
                partition_graph(graph).component_of[f"clash{n}_jdk"]
                for n in range(2)
            }
            spans += len(owners) == 2
        assert spans >= 4

    def test_figure2_conflict(self, openmrs_partial):
        check_diagnosis(pinned_java_conflict(openmrs_partial))


@pytest.mark.fuzz
class TestDiagnosisMatchesReferenceFuzz:
    @pytest.mark.parametrize(
        "kind,seed",
        [("one", seed) for seed in range(8, 60)]
        + [("two", seed) for seed in range(8, 60)],
    )
    def test_same_conflict(self, kind, seed):
        check_diagnosis(mutant(kind, seed))


# -- Solves per diagnosis do not grow with the fleet --------------------------


def hub_mutant(machines, conflict_host):
    """A hub-and-spoke fleet (three Gunicorn + Celery + Tomcat/OpenMRS
    replicas per machine, all Celery and OpenMRS peered to one RabbitMQ
    and one MySQL on ``host000``: one connected component) with JDK 1.6
    and JRE 1.6 both pinned on ``conflict_host``."""
    hosts = [f"host{m:03d}" for m in range(machines)]
    entries = [
        PartialInstance(host, as_key("Ubuntu-Linux 10.4"),
                        config={"hostname": f"hub-{m:03d}"})
        for m, host in enumerate(hosts)
    ]
    entries += [
        PartialInstance("hubbroker", as_key("RabbitMQ 2.7"),
                        inside_id=hosts[0]),
        PartialInstance("hubdb", as_key("MySQL 5.1"), inside_id=hosts[0]),
    ]
    for replica in range(3 * machines):
        host = hosts[replica % machines]
        tomcat = f"tomcat{replica:03d}"
        entries += [
            PartialInstance(f"web{replica:03d}", as_key("Gunicorn 0.13"),
                            inside_id=host, config={"port": 8000 + replica}),
            PartialInstance(f"worker{replica:03d}", as_key("Celery 2.4"),
                            inside_id=host),
            PartialInstance(tomcat, as_key("Tomcat 6.0.18"), inside_id=host,
                            config={"manager_port": 10000 + replica}),
            PartialInstance(f"openmrs{replica:03d}", as_key("OpenMRS 1.8"),
                            inside_id=tomcat),
        ]
    entries += [
        PartialInstance("jdk_pin", as_key("JDK 1.6"),
                        inside_id=hosts[conflict_host]),
        PartialInstance("jre_pin", as_key("JRE 1.6"),
                        inside_id=hosts[conflict_host]),
    ]
    return PartialInstallSpec(entries)


class TestSolvesPerDiagnosis:
    """Clock-free: a diagnosis costs about one solve per member of the
    conflict, not one per pinned instance (the sweep that solved every
    candidate took 838 on the 64-machine hub).  Counted through an
    engine in either mode: both run the one per-component sweep."""

    @pytest.mark.parametrize("partition", [False, True])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_flat_in_fleet_size(self, monkeypatch, partition, where):
        from repro.config import explain

        solve = CdclSolver.solve
        sweep = explain.explain_unsat
        calls, diagnoses = [], []

        def counting(self, assumptions=()):
            calls.append(len(assumptions))
            return solve(self, assumptions)

        def diagnosing(*args, **kwargs):
            before = len(calls)
            explanation = sweep(*args, **kwargs)
            diagnoses.append((explanation, len(calls) - before))
            return explanation

        monkeypatch.setattr(CdclSolver, "solve", counting)
        monkeypatch.setattr(explain, "explain_unsat", diagnosing)
        engine = ConfigurationEngine(
            REGISTRY, partition=partition
        )
        counts = []
        for machines in (16, 64):
            partial = hub_mutant(machines, 0 if where == "first" else machines - 1)
            diagnoses.clear()
            with pytest.raises(UnsatisfiableError):
                engine.configure(partial)
            [(explanation, solves)] = diagnoses
            assert {"jdk_pin", "jre_pin"} <= set(explanation.conflicting_ids)
            assert len(explanation.conflicting_ids) == 3
            counts.append(solves)
        assert counts[0] == counts[1] <= 12, counts


# -- A refused call builds each component once --------------------------------


class TestEncodeOnce:
    """The diagnosis runs on the components and encodings the configure
    call already made: per call, ``partition_graph`` runs at most once
    and ``generate_constraints`` at most once per component the call
    ran (the diagnosis used to partition the graph again and encode
    every component a second time)."""

    @pytest.mark.parametrize("spec", ["hub", "two_conflicts"])
    def test_one_partition_one_encoding_per_component(
        self, monkeypatch, spec
    ):
        from repro.config import (
            constraints, engine, explain, partition, session,
        )

        partial = hub_mutant(4, 3) if spec == "hub" else two_conflicts(1)
        graph = generate_graph(REGISTRY, partial)
        split = len(partition_graph(graph).components)
        partitions, encoded = [], []

        def counting_partition(graph):
            partitions.append(graph)
            return partition.partition_graph(graph)

        def counting_encode(graph, *args, **kwargs):
            encoded.append(tuple(node.instance_id for node in graph.nodes()))
            return constraints.generate_constraints(graph, *args, **kwargs)

        for module in (session, explain):
            monkeypatch.setattr(module, "partition_graph", counting_partition)
        for module in (engine, explain):
            monkeypatch.setattr(module, "generate_constraints",
                                counting_encode)
        front_ends = [
            (ConfigurationEngine(REGISTRY, partition=True), split),
            (ConfigurationEngine(REGISTRY), 1),
            (ConfigurationSession(REGISTRY, partition=True), split),
        ]
        messages = []
        for front_end, components in front_ends:
            partitions.clear()
            encoded.clear()
            with pytest.raises(UnsatisfiableError) as refused:
                front_end.configure(partial)
            messages.append(str(refused.value))
            assert len(partitions) <= 1, type(front_end)
            assert len(encoded) == len(set(encoded)) <= components, (
                type(front_end), len(encoded), components,
            )
        assert messages[0] == messages[1] == messages[2]
        assert "cannot be deployed together" in messages[0]
