"""Shared fixtures: the standard library world and the S2 OpenMRS spec,
and the static check of every specification configure produces, with
the order and indexes it inherits from its components."""

from __future__ import annotations

import functools

import pytest

from repro.config import session, spec_problems
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.instances import InstallSpec, kahn_order
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)


@pytest.fixture(autouse=True, scope="session")
def configure_output_is_well_typed():
    """Every specification any test configures passes static checking.

    The engine does not run the checker on its own output: Theorem 1
    and propagation's per-value type check make that output well-typed
    by construction, and the checker guards the specs a bundle or state
    file brings in.  This is the net under that claim.
    ``session.configure_call`` is the pipeline both the engine and a
    session answer through, so reused session answers are checked too.

    The specification also derives none of its order and indexes: it
    inherits them from its components (:meth:`InstallSpec.assembled`),
    so each call checks them against a spec built afresh from the same
    instances, the order against Kahn's recomputed.
    """
    call = session.configure_call

    @functools.wraps(call)
    def checked_call(registry, *args, **kwargs):
        result = call(registry, *args, **kwargs)
        assert spec_problems(registry, result.spec) == []
        assert_inherited_indexes(result.spec)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session, "configure_call", checked_call)
        yield


def assert_inherited_indexes(spec: InstallSpec) -> None:
    """``spec``'s order is Kahn's, and its ``machine_of``, upstream,
    downstream and per-machine indexes are those of a fresh spec."""
    fresh = InstallSpec(list(spec))
    ids = fresh.ids()
    order = kahn_order({iid: list(fresh.upstream_ids(iid)) for iid in ids})
    assert [instance.id for instance in spec.topological_order()] == order
    assert spec.ids() == order
    for position, iid in enumerate(order):
        assert spec.position(iid) == position, iid
    for iid in ids:
        assert spec.machine_of(iid) == fresh.machine_of(iid), iid
        assert spec.upstream_ids(iid) == fresh.upstream_ids(iid), iid
        assert spec.downstream_ids(iid) == fresh.downstream_ids(iid), iid
    for machine in fresh.machines():
        assert spec.instances_on_machine(machine.id) == (
            fresh.instances_on_machine(machine.id)
        ), machine.id


@pytest.fixture
def registry():
    """A fresh copy of the standard resource library."""
    return standard_registry()


@pytest.fixture
def infrastructure():
    """A fresh simulation world with artifacts published and a cloud."""
    return standard_infrastructure()

@pytest.fixture
def drivers():
    """A driver registry covering the whole library."""
    return standard_drivers()


@pytest.fixture
def openmrs_partial():
    """The Figure 2 partial installation specification."""
    return PartialInstallSpec(
        [
            PartialInstance(
                "server",
                as_key("Mac-OSX 10.6"),
                config={"hostname": "demotest", "os_user_name": "root"},
            ),
            PartialInstance(
                "tomcat", as_key("Tomcat 6.0.18"), inside_id="server"
            ),
            PartialInstance(
                "openmrs", as_key("OpenMRS 1.8"), inside_id="tomcat"
            ),
        ]
    )
