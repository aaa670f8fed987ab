"""Configure by shape: a replicated fleet is generated, encoded and
solved once per shape, and a session keeps shapes, not copies.

The counts are the evidence and repeat exactly: a cold 256-machine
fleet of three stacks encodes and solves three times, and a day-2
session over a growing and shrinking django fleet holds a handful of
group graphs and encodings however many steps it has seen.  The
property draws small fleets whose generated ids cross a sort boundary
(``python_runtime_10`` sorts before ``python_runtime_2``) and checks the
shape-shared session, the monolithic engine and a fresh partitioned
engine byte for byte.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.core import PartialInstallSpec
from repro.dsl import full_to_json
from repro.library import standard_registry
from repro.library.fleet import (
    FleetTopology,
    fleet_partial,
    fleet_spec_entries,
)
from repro.sat.solver import CdclSolver

REGISTRY = standard_registry()


class TestCounts:
    def test_a_cold_fleet_encodes_and_solves_once_per_shape(
        self, monkeypatch
    ):
        # 256 machines of three replicas each, one stack per machine:
        # three shapes, however many machines carry each.
        partial = fleet_partial(FleetTopology(replicas=768, machines=256))
        cold = ConfigurationSession(REGISTRY, partition=True).configure(
            partial
        )
        cache = cold.cache
        assert cache.components_total == 256
        assert (cache.shapes, cache.encodes, cache.solves) == (3, 3, 3)
        assert cache.graph_runs == cache.groups_generated == 3
        # The engine is the same call with a memo it drops afterwards.
        solves = []
        solve = CdclSolver.solve

        def counting(solver, *args, **kwargs):
            solves.append(solver)
            return solve(solver, *args, **kwargs)

        monkeypatch.setattr(CdclSolver, "solve", counting)
        result = ConfigurationEngine(REGISTRY, partition=True).configure(
            partial
        )
        assert len(solves) == len(set(map(id, solves))) == 3
        assert result.partition.count == 256
        assert full_to_json(result.spec) == full_to_json(cold.spec)

    def test_a_day2_session_keeps_shapes_not_copies(self):
        # fleet_evolve's traffic: 64 machines from 640 replicas, growing
        # by 1-20 for ten steps, then shrinking for ten.
        rng = random.Random(11)
        replicas = 640
        session = ConfigurationSession(REGISTRY, partition=True)
        for step in range(21):
            if step:
                replicas += (1 if step <= 10 else -1) * rng.randint(1, 20)
            cache = session.configure(fleet_partial(FleetTopology(
                replicas=replicas, machines=64, stacks=("django",)
            ))).cache
            assert cache.shapes <= 2
        stats = session.stats
        assert stats.graph_misses == 21
        assert stats.group_shapes <= 5
        assert stats.encodings <= 5
        assert stats.encodes == stats.solves == stats.graph_runs <= 5


# -- Shape-shared = monolithic = fresh engine ----------------------------


def three_paths(machines, stacks, replicas):
    """Configure each step's fleet through one session (shapes kept
    across the steps), the monolithic engine and a fresh partitioned
    engine; every step's full specification must be the same bytes."""
    session = ConfigurationSession(REGISTRY, partition=True)
    monolithic = ConfigurationEngine(REGISTRY)
    for count in replicas:
        partial = fleet_partial(FleetTopology(
            replicas=count, machines=machines, stacks=stacks
        ))
        expected = full_to_json(monolithic.configure(partial).spec)
        fresh = ConfigurationEngine(REGISTRY, partition=True)
        assert full_to_json(fresh.configure(partial).spec) == expected
        assert full_to_json(session.configure(partial).spec) == expected


STACKS = st.lists(
    st.sampled_from(("openmrs", "jasper", "django")),
    min_size=1, max_size=3, unique=True,
).map(tuple)


@st.composite
def fleets(draw):
    """1-12 machines and a 3-step walk of replica counts.  With ten or
    more machines carrying a django replica, a generated runtime is
    numbered ``_10`` and sorts before ``_2``."""
    machines = draw(st.integers(min_value=1, max_value=12))
    first = draw(st.integers(min_value=1, max_value=2 * machines + 2))
    steps = draw(st.lists(
        st.integers(min_value=-machines, max_value=machines),
        min_size=2, max_size=2,
    ))
    replicas = [first]
    for step in steps:
        replicas.append(max(1, replicas[-1] + step))
    return machines, draw(STACKS), replicas


@settings(max_examples=25, deadline=None, derandomize=True)
@given(fleets())
def test_shape_shared_is_monolithic_is_fresh(fleet):
    three_paths(*fleet)


@pytest.mark.fuzz
@settings(max_examples=500, deadline=None)
@given(fleets())
def test_shape_shared_is_monolithic_is_fresh_fuzz(fleet):
    three_paths(*fleet)


def test_generated_ids_cross_a_sort_boundary():
    # Twelve django machines: runtimes python_runtime .. _12, and the
    # install order and merge see "_10" before "_2".
    three_paths(12, ("django",), [12, 24, 13])
    result = ConfigurationEngine(REGISTRY, partition=True).configure(
        fleet_partial(FleetTopology(
            replicas=12, machines=12, stacks=("django",)
        ))
    )
    ids = [instance.id for instance in result.spec]
    assert "python_runtime_10" in ids and "python_runtime_2" in ids


def test_groups_that_differ_only_in_containers_are_two_shapes():
    # Two OpenMRS replicas per machine; on host001 each webapp is moved
    # into the other replica's Tomcat.  Keys and id order agree with
    # host000's group, so only the inside positions tell the two group
    # shapes apart.
    swap = {"openmrs001": "tomcat003", "openmrs003": "tomcat001"}
    partial = PartialInstallSpec(
        dataclasses.replace(
            entry, inside_id=swap.get(entry.id, entry.inside_id)
        )
        for entry in fleet_spec_entries(FleetTopology(
            replicas=4, machines=2, stacks=("openmrs",)
        ))
    )
    expected = full_to_json(ConfigurationEngine(REGISTRY).configure(
        partial
    ).spec)
    session = ConfigurationSession(REGISTRY, partition=True)
    result = session.configure(partial)
    assert (result.cache.groups_generated, result.cache.shapes) == (2, 2)
    assert full_to_json(result.spec) == expected
    fresh = ConfigurationEngine(REGISTRY, partition=True)
    assert full_to_json(fresh.configure(partial).spec) == expected
