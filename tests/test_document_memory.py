"""A document is written row by row: each writer's allocation peak is a
small multiple of the text it returns, and it leaves no garbage.

Building a document's whole payload tree and then joining nested texts
with ``+`` chains peaked at about four times the text (4.1 for the spec,
4.6 for the state file, 4.0 for the world, 4.4 for a bundle, at any
fleet size); writing one row at a time and joining the document once
peaks near twice it.  ``tracemalloc`` counts allocations, not time, so
the floor is deterministic for a given interpreter.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import cli
from repro.config import ConfigurationEngine
from repro.dsl import full_to_json
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import DeploymentEngine, save_system
from repro.sim import save_world

#: A writer's traced allocation peak per character of its text.
PEAK_PER_CHAR = 3.0


WRITERS = ["full_to_json", "save_system", "save_world", "Bundle.write"]


@pytest.fixture(scope="module")
def writers(tmp_path_factory):
    """``name -> (write, text)``: a call of each writer on an 8-machine
    fleet, and the text that call writes."""
    registry = standard_registry()
    spec = ConfigurationEngine(registry, partition=True).configure(
        fleet_partial(FleetTopology(replicas=24, machines=8))
    ).spec
    infrastructure = standard_infrastructure()
    system = DeploymentEngine(
        registry, infrastructure, standard_drivers()
    ).deploy(spec)
    path = tmp_path_factory.mktemp("bundle") / "bundle.json"
    bundle = cli.Bundle(str(path), registry, infrastructure)
    bundle.system = system
    calls = {
        "full_to_json": lambda: full_to_json(spec),
        "save_system": lambda: save_system(system),
        "save_world": lambda: save_world(infrastructure),
        "Bundle.write": bundle.write,
    }
    texts = {name: write() for name, write in calls.items()}
    texts["Bundle.write"] = path.read_text(encoding="utf-8")
    return {name: (calls[name], texts[name]) for name in WRITERS}


@pytest.mark.parametrize("writer", WRITERS)
def test_peak_is_a_small_multiple_of_the_text(writers, writer):
    write, text = writers[writer]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_PER_CHAR * len(text), (
        f"{writer}: peak {peak} B is {peak / len(text):.2f}x its "
        f"{len(text)}-character text"
    )


@pytest.mark.parametrize("writer", WRITERS)
def test_a_writer_leaves_no_garbage(writers, writer):
    # With the collector off throughout, nothing but the collection
    # below can free a cycle the call left behind.
    write, _ = writers[writer]
    gc.collect()
    gc.disable()
    try:
        write()
        assert gc.collect() == 0
    finally:
        gc.enable()
