"""Engage: a deployment management system (PLDI 2012 reproduction).

Engage configures, installs, and manages complex multi-component,
multi-machine application stacks.  Three layers:

* ``repro.core`` + ``repro.dsl`` -- the declarative resource model: typed
  ports, inside/environment/peer dependencies, subtyping, a concrete DSL.
* ``repro.config`` + ``repro.sat`` -- the configuration engine: a partial
  installation specification expands to a full one via hypergraph
  generation, Boolean constraints, and a from-scratch CDCL SAT solver.
* ``repro.drivers`` + ``repro.runtime`` + ``repro.sim`` -- the runtime:
  guarded driver state machines, a dependency-ordered deployment engine,
  multi-host coordination, provisioning, monitoring, and upgrades with
  rollback, all against a simulated infrastructure substrate.

Quickstart::

    from repro import (
        ConfigurationEngine, DeploymentEngine, PartialInstallSpec,
        PartialInstance, as_key, standard_registry, standard_drivers,
        standard_infrastructure,
    )

    registry = standard_registry()
    infra = standard_infrastructure()
    partial = PartialInstallSpec([
        PartialInstance("server", as_key("Mac-OSX 10.6"),
                        config={"hostname": "demo"}),
        PartialInstance("tomcat", as_key("Tomcat 6.0.18"), inside_id="server"),
        PartialInstance("openmrs", as_key("OpenMRS 1.8"), inside_id="tomcat"),
    ])
    full = ConfigurationEngine(registry).configure(partial).spec
    system = DeploymentEngine(registry, infra, standard_drivers()).deploy(full)
    assert system.is_deployed()
"""

from repro.core import (
    EngageError,
    InstallSpec,
    PartialInstallSpec,
    PartialInstance,
    ResourceInstance,
    ResourceKey,
    ResourceTypeRegistry,
    Version,
    VersionRange,
    as_key,
    assert_well_formed,
    check_registry,
    define,
)
from repro.config import (
    ConfigurationEngine,
    ConfigurationResult,
    ConfigurationSession,
    check_spec,
)
from repro.dsl import (
    format_module,
    full_to_json,
    line_count,
    load_resources,
    parse_module,
    partial_from_json,
    partial_to_json,
)
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.runtime import (
    BusCoordinator,
    DeployedSystem,
    DeploymentEngine,
    ProcessMonitor,
    UpgradeEngine,
    add_monitoring,
    provision_partial_spec,
)
from repro.sim import Infrastructure

__version__ = "1.0.0"

__all__ = [
    "BusCoordinator",
    "ConfigurationEngine",
    "ConfigurationSession",
    "ConfigurationResult",
    "DeployedSystem",
    "DeploymentEngine",
    "EngageError",
    "Infrastructure",
    "InstallSpec",
    "PartialInstallSpec",
    "PartialInstance",
    "ProcessMonitor",
    "ResourceInstance",
    "ResourceKey",
    "ResourceTypeRegistry",
    "UpgradeEngine",
    "Version",
    "VersionRange",
    "add_monitoring",
    "as_key",
    "assert_well_formed",
    "check_registry",
    "check_spec",
    "define",
    "format_module",
    "full_to_json",
    "line_count",
    "load_resources",
    "parse_module",
    "partial_from_json",
    "partial_to_json",
    "provision_partial_spec",
    "standard_drivers",
    "standard_infrastructure",
    "standard_registry",
    "__version__",
]
