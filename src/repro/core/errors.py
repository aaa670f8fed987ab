"""Exception hierarchy for the Engage reproduction.

Every error raised by the public API derives from :class:`EngageError` so
callers can catch a single base class.  Subclasses partition the failure
modes along the paper's three components: the declarative resource model,
the configuration engine, and the runtime system.
"""

from __future__ import annotations


class EngageError(Exception):
    """Base class for all errors raised by this library."""


class ResourceModelError(EngageError):
    """A problem in resource-type definitions (the declarative model)."""


class DuplicateKeyError(ResourceModelError):
    """Two resource types were registered under the same key."""


class UnknownKeyError(ResourceModelError):
    """A dependency or lookup referenced a key with no registered type."""


class SubtypingError(ResourceModelError):
    """A sub-resource type violates the Figure 4 subtyping rules."""


class WellFormednessError(ResourceModelError):
    """A set of resource types violates a well-formedness condition (S3.1)."""


class PortError(ResourceModelError):
    """A port definition, reference, or value is invalid."""


class PortTypeError(PortError):
    """A value does not inhabit the declared port type."""


class AbstractFrontierError(ResourceModelError):
    """An abstract resource has no concrete frontier (S4, GraphGen)."""


class ConfigurationError(EngageError):
    """A problem during configuration (hypergraph / constraints / solving)."""


class UnsatisfiableError(ConfigurationError):
    """The generated Boolean constraints are unsatisfiable (Theorem 1)."""


class MissingInsideError(ConfigurationError):
    """A partial instance does not resolve its inside dependency.

    The paper assumes "the partial installation specification resolves
    inside dependencies of each resource instance in it" -- the system does
    not generate new machines automatically.
    """


class SpecError(ConfigurationError):
    """An installation specification (partial or full) is malformed."""


class TypecheckError(ConfigurationError):
    """A full installation specification failed static checking."""


class CycleError(ConfigurationError):
    """Dependencies among resource instances or types form a cycle."""


class RuntimeEngageError(EngageError):
    """A problem during deployment or management."""


class DriverError(RuntimeEngageError):
    """A resource driver failed or was driven illegally."""


class GuardError(DriverError):
    """A transition was attempted while its guard was false."""


class TransientError(RuntimeEngageError):
    """A failure that may succeed if the operation is retried.

    The fault-injection layer raises these for transient failure modes
    (flaky downloads, slow dependency startup); a
    :class:`~repro.runtime.retry.RetryPolicy` classifies them as
    retryable by default.
    """


class ActionTimeout(TransientError):
    """A driver action exceeded its per-action timeout budget.

    Raised when a hung operation consumed the whole budget granted by
    the retry policy; retrying may hit a shorter (or no) hang.
    """


class DeploymentError(RuntimeEngageError):
    """The deployment engine could not bring the system to `active`."""


class DeploymentFailure(DeploymentError):
    """A deployment stopped at a consistent frontier.

    Carries everything needed to understand and resume the run: the
    write-ahead ``journal`` (the
    :class:`~repro.runtime.journal.DeploymentJournal` the failing pass
    recorded into), the ``completed`` / ``failed`` / ``skipped``
    instance-id sets, the partial ``report``, and the partially-driven
    ``system``, whose own ``journal`` is that same journal.  No instance
    is ever left mid-transition: a failed action does not advance its
    driver's state machine, and the failed instances' dependents are
    untouched.
    """

    def __init__(
        self,
        message: str,
        *,
        journal=None,
        completed=(),
        failed=(),
        skipped=(),
        report=None,
        system=None,
    ) -> None:
        super().__init__(message)
        self.journal = journal
        self.completed = frozenset(completed)
        self.failed = frozenset(failed)
        self.skipped = frozenset(skipped)
        self.report = report
        self.system = system


class ProvisioningError(RuntimeEngageError):
    """A machine could not be provisioned from the cloud provider."""


class UpgradeError(RuntimeEngageError):
    """An upgrade failed (and, per the paper, should trigger rollback)."""


class SimulationError(EngageError):
    """A problem inside the simulated infrastructure substrate."""


class ParseError(EngageError):
    """A problem while lexing or parsing DSL source text."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)

