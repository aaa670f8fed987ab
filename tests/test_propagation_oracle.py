"""Propagation checked against a hand-rolled reference oracle.

Random dependency *chains* where each service's output appends its own
name to its upstream's value let us predict exactly what must come out
of topological propagation -- any ordering or wiring bug shows up as a
wrong accumulated string.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigurationEngine
from repro.core import (
    Format,
    Lit,
    PartialInstallSpec,
    PartialInstance,
    ResourceTypeRegistry,
    STRING,
    as_key,
    config_ref,
    define,
    input_ref,
)


def chain_registry(names: list[str]) -> ResourceTypeRegistry:
    """S0 <- S1 <- ... each appending "/<name>" to the chain value."""
    registry = ResourceTypeRegistry()
    registry.register(
        define("M", "1", driver="machine")
        .config("hostname", STRING, "m")
        .output("root", STRING, Lit("ROOT"))
        .build()
    )
    previous: str | None = None
    for name in names:
        builder = define(name, "1").inside("M 1")
        if previous is None:
            builder.inside("M 1", root="prev")
        else:
            builder.inside("M 1")
            builder.env(f"{previous} 1", chain="prev")
        builder.input("prev", STRING)
        builder.config("name", STRING, name, static=True)
        builder.output(
            "chain",
            STRING,
            Format.of("{p}/{n}", p=input_ref("prev"), n=config_ref("name")),
        )
        registry.register(builder.build())
        previous = name
    return registry


names_strategy = st.lists(
    st.integers(min_value=0, max_value=99).map(lambda i: f"Svc{i}"),
    min_size=1,
    max_size=10,
    unique=True,
)


@settings(max_examples=50, deadline=None)
@given(names_strategy)
def test_chain_value_accumulates_in_order(names):
    registry = chain_registry(names)
    partial = PartialInstallSpec(
        [
            PartialInstance("m", as_key("M 1")),
            PartialInstance("top", as_key(f"{names[-1]} 1"), inside_id="m"),
        ]
    )
    engine = ConfigurationEngine(registry)
    spec = engine.configure(partial).spec
    expected = "ROOT" + "".join(f"/{name}" for name in names)
    assert spec["top"].outputs["chain"] == expected


@settings(max_examples=30, deadline=None)
@given(names_strategy, st.integers(min_value=0, max_value=9))
def test_chain_prefix_observable_at_every_link(names, pick):
    """Every intermediate service's output is the prefix the oracle
    predicts -- not just the chain head."""
    registry = chain_registry(names)
    picked = names[pick % len(names)]
    partial = PartialInstallSpec(
        [
            PartialInstance("m", as_key("M 1")),
            PartialInstance("top", as_key(f"{names[-1]} 1"), inside_id="m"),
            PartialInstance("probe", as_key(f"{picked} 1"), inside_id="m"),
        ]
    )
    engine = ConfigurationEngine(registry)
    spec = engine.configure(partial).spec
    index = names.index(picked)
    expected = "ROOT" + "".join(f"/{n}" for n in names[: index + 1])
    assert spec["probe"].outputs["chain"] == expected


def test_fleet_scale_deployment(registry, infrastructure, drivers):
    """A 25-machine fleet, each with its own MySQL, deploys fully and in
    reasonable wall-clock -- a scale smoke test."""
    instances = []
    for index in range(25):
        instances.append(
            PartialInstance(
                f"m{index:02d}", as_key("Ubuntu-Linux 10.04"),
                config={"hostname": f"fleet{index:02d}"},
            )
        )
        instances.append(
            PartialInstance(
                f"db{index:02d}", as_key("MySQL 5.1"),
                inside_id=f"m{index:02d}",
            )
        )
    from repro.runtime import DeploymentEngine

    spec = ConfigurationEngine(registry).configure(
        PartialInstallSpec(instances)
    ).spec
    assert len(spec) == 50
    system = DeploymentEngine(registry, infrastructure, drivers).deploy(spec)
    assert system.is_deployed()
    for index in range(25):
        assert infrastructure.network.can_connect(f"fleet{index:02d}", 3306)
