"""The declarative resource model: keys, ports, types, subtyping,
registry, well-formedness, and installation specifications (S3)."""

from repro.core.builder import ResourceTypeBuilder, as_key, define
from repro.core.errors import (
    AbstractFrontierError,
    ConfigurationError,
    CycleError,
    DeploymentError,
    DriverError,
    DuplicateKeyError,
    EngageError,
    GuardError,
    MissingInsideError,
    ParseError,
    PortError,
    PortTypeError,
    ProvisioningError,
    ResourceModelError,
    RuntimeEngageError,
    SimulationError,
    SpecError,
    SubtypingError,
    TypecheckError,
    UnknownKeyError,
    UnsatisfiableError,
    UpgradeError,
    WellFormednessError,
)
from repro.core.instances import (
    DependencyLink,
    InstallSpec,
    InstanceRef,
    PartialInstallSpec,
    PartialInstance,
    ResourceInstance,
)
from repro.core.keys import (
    UNVERSIONED,
    ResourceKey,
    Version,
    VersionRange,
)
from repro.core.ports import (
    BOOL,
    FLOAT,
    HOSTNAME,
    INT,
    PASSWORD,
    PATH,
    STRING,
    TCP_PORT,
    Binding,
    ListType,
    Port,
    PortType,
    RecordType,
    ScalarKind,
    ScalarType,
    scalar_by_name,
)
from repro.core.registry import ResourceTypeRegistry
from repro.core.resource_type import (
    ConfigPort,
    Dependency,
    DependencyAlternative,
    DependencyKind,
    OutputPort,
    PortMapping,
    ResourceType,
)
from repro.core.subtyping import nominal_subtype, structural_subtype
from repro.core.values import (
    Expr,
    Format,
    Lit,
    ListExpr,
    PortEnv,
    RecordExpr,
    Ref,
    Space,
    config_ref,
    input_ref,
    is_constant,
)
from repro.core.wellformed import assert_well_formed, check_registry

__all__ = [name for name in dir() if not name.startswith("_")]
