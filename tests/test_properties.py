"""Property-based tests over the core invariants (hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    InstallSpec,
    PartialInstallSpec,
    PartialInstance,
    ResourceTypeRegistry,
    STRING,
    as_key,
    check_registry,
    define,
)
from repro.config import (
    ConfigurationEngine,
    generate_constraints,
    generate_graph,
    selected_nodes,
)
from repro.sat import CdclSolver


# ---------------------------------------------------------------------------
# Random layered resource libraries.
#
# A library is a machine type plus N layered service types; each service
# may depend (env or peer) on services in strictly lower layers, which
# guarantees well-formedness condition 4 by construction.  Dependencies
# are single-target: the paper's exactly-one semantics makes arbitrary
# *disjunctions* legitimately unsatisfiable when a disjunct is both
# forced elsewhere and transitively requires its sibling -- disjunction
# behaviour is covered separately by the frontier property below.
# ---------------------------------------------------------------------------

layer_specs = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["env", "peer"]),
            st.integers(min_value=0, max_value=20),
        ),
        max_size=3,
    ),
    min_size=1,
    max_size=12,
)


def build_library(spec):
    """Build (registry, service names) from a random layer spec."""
    registry = ResourceTypeRegistry()
    registry.register(define("M", "1", driver="machine").build())
    names: list[str] = []
    for index, deps in enumerate(spec):
        builder = define(f"S{index}", "1").inside("M 1")
        seen_targets: set[str] = set()
        for kind, candidate in deps:
            if index == 0:
                continue  # no lower layer to depend on
            target = f"S{candidate % index} 1"
            if target in seen_targets:
                continue
            seen_targets.add(target)
            if kind == "env":
                builder.env(target)
            else:
                builder.peer(target)
        registry.register(builder.build())
        names.append(f"S{index}")
    return registry, names


@settings(max_examples=50, deadline=None)
@given(layer_specs)
def test_random_layered_library_configures(spec):
    """Any layered library is well-formed, and configuring its top
    service always succeeds and yields a typed, acyclic full spec."""
    registry, names = build_library(spec)
    assert check_registry(registry) == []
    partial = PartialInstallSpec(
        [
            PartialInstance("m", as_key("M 1"), config={}),
            PartialInstance("top", as_key(f"{names[-1]} 1"), inside_id="m"),
        ]
    )
    engine = ConfigurationEngine(registry)
    result = engine.configure(partial)
    order = result.spec.topological_order()
    assert order[0].id == "m"
    assert "top" in result.spec


@settings(max_examples=50, deadline=None)
@given(layer_specs)
def test_model_satisfies_exactly_one_per_edge(spec):
    """For every deployed node and hyperedge, exactly one target is
    deployed -- the Theorem 1 invariant, checked on the decoded model."""
    registry, names = build_library(spec)
    partial = PartialInstallSpec(
        [
            PartialInstance("m", as_key("M 1")),
            PartialInstance("top", as_key(f"{names[-1]} 1"), inside_id="m"),
        ]
    )
    graph = generate_graph(registry, partial)
    formula, _ = generate_constraints(graph)
    solver = CdclSolver(formula)
    assert solver.solve()
    model = {
        str(name): value
        for name, value in formula.decode_model(solver.model()).items()
    }
    deployed, choices = selected_nodes(graph, model)
    for node_id in deployed:
        for index, edge in enumerate(graph.edges_from(node_id)):
            chosen = choices[(node_id, index)]
            assert chosen in edge.targets
            assert chosen in deployed


@settings(max_examples=30, deadline=None)
@given(layer_specs, st.integers(min_value=0, max_value=11))
def test_partial_instances_always_deployed(spec, pick):
    """Lemma 1 / Theorem 1 corollary: every instance the user named ends
    up in the full installation specification."""
    registry, names = build_library(spec)
    picked = names[pick % len(names)]
    partial = PartialInstallSpec(
        [
            PartialInstance("m", as_key("M 1")),
            PartialInstance("a", as_key(f"{picked} 1"), inside_id="m"),
            PartialInstance("b", as_key(f"{names[-1]} 1"), inside_id="m"),
        ]
    )
    engine = ConfigurationEngine(registry)
    spec_out = engine.configure(partial).spec
    assert "a" in spec_out
    assert "b" in spec_out
    assert "m" in spec_out


@settings(max_examples=40, deadline=None)
@given(layer_specs)
def test_topological_order_respects_links(spec):
    registry, names = build_library(spec)
    partial = PartialInstallSpec(
        [
            PartialInstance("m", as_key("M 1")),
            PartialInstance("top", as_key(f"{names[-1]} 1"), inside_id="m"),
        ]
    )
    engine = ConfigurationEngine(registry)
    full = engine.configure(partial).spec
    position = {
        instance.id: index
        for index, instance in enumerate(full.topological_order())
    }
    for instance in full:
        for upstream in instance.upstream_ids():
            assert position[upstream] < position[instance.id]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1,
                                                          max_value=4))
def test_abstract_frontier_disjunction_picks_exactly_one(variants, users):
    """A library with one abstract type and N concrete variants: any
    number of dependents must agree on a single deployed variant (the
    JDK/JRE pattern at arbitrary width)."""
    registry = ResourceTypeRegistry()
    registry.register(define("M", "1", driver="machine").build())
    registry.register(
        define("Variant", abstract=True).inside("M 1").build()
    )
    for index in range(variants):
        registry.register(
            define(f"V{index}", "1", extends="Variant").build()
        )
    for index in range(users):
        registry.register(
            define(f"U{index}", "1").inside("M 1").env("Variant").build()
        )
    partial = PartialInstallSpec(
        [PartialInstance("m", as_key("M 1"))]
        + [
            PartialInstance(f"u{index}", as_key(f"U{index} 1"),
                            inside_id="m")
            for index in range(users)
        ]
    )
    engine = ConfigurationEngine(registry)
    full = engine.configure(partial).spec
    deployed_variants = [
        instance for instance in full if instance.key.name.startswith("V")
    ]
    assert len(deployed_variants) == 1


@settings(max_examples=25, deadline=None)
@given(layer_specs)
def test_json_roundtrip_of_generated_specs(spec):
    from repro.dsl import full_from_json, full_to_json

    registry, names = build_library(spec)
    partial = PartialInstallSpec(
        [
            PartialInstance("m", as_key("M 1")),
            PartialInstance("top", as_key(f"{names[-1]} 1"), inside_id="m"),
        ]
    )
    engine = ConfigurationEngine(registry)
    full = engine.configure(partial).spec
    again = full_from_json(full_to_json(full))
    assert again.ids() == full.ids()
    for iid in full.ids():
        assert again[iid] == full[iid]
