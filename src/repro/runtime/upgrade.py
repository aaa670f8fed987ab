"""Upgrades with backup and rollback (S5.2).

"The user ... provide[s] a partial install specification describing the
desired new state of the system.  This is used to compute a full install
specification for the deployed system.  The current system is then backed
up, and any components that will be removed or that cannot be upgraded
in-place are uninstalled.  The new system is now deployed, per the
install specification, upgrading and adding components as needed.  If the
upgrade fails, the partially installed components are uninstalled and the
old version restored from the backup."

As the paper admits, "all upgrades using this approach experience the
worst case upgrade time": the ``"replace"`` strategy is stop-everything /
replace / restart.  ``"delta"`` hands the same backup/rollback envelope
to the delta planner (:mod:`repro.runtime.delta`), which touches only
what the diff requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import DeploymentError, UpgradeError
from repro.core.instances import InstallSpec, PartialInstallSpec
from repro.config.engine import ConfigurationEngine
from repro.runtime.delta import (
    SpecDiff,
    diff_specs,
    execute_delta,
    plan_delta,
    retire_machines,
    retired_hostnames,
)
from repro.runtime.deploy import (
    DeployedSystem,
    DeploymentEngine,
    machine_hostname,
)
from repro.runtime.reconcile import require_no_transition


def _describe_exception(exc: BaseException) -> str:
    """``"ExceptionType: message"`` -- never empty.

    ``str(exc)`` alone is empty for bare exceptions and silently drops
    the type either way, which left CLI failure output blank exactly
    when the error was least expected."""
    message = str(exc)
    name = type(exc).__name__
    return f"{name}: {message}" if message else name


@dataclass
class UpgradeResult:
    """Outcome of an upgrade attempt.

    ``error`` is a human-readable ``"ExceptionType: message"`` string;
    ``exception`` carries the original exception object for callers
    that need to branch on its type (the CLI names the class in its
    failure line)."""

    succeeded: bool
    rolled_back: bool
    diff: SpecDiff
    system: DeployedSystem
    error: Optional[str] = None
    exception: Optional[BaseException] = None


class UpgradeEngine:
    """Executes the backup / replace / rollback protocol.

    Every pass -- uninstall, redeploy, delta, and the rollback redeploy
    -- runs under ``deployment_engine``'s retry policy and worker
    bounds, so a transient fault during recovery does not turn a failed
    upgrade into a lost system."""

    def __init__(
        self,
        config_engine: ConfigurationEngine,
        deployment_engine: DeploymentEngine,
    ) -> None:
        self._config = config_engine
        self._deploy = deployment_engine

    def upgrade(
        self,
        system: DeployedSystem,
        new_partial: PartialInstallSpec,
        *,
        strategy: str = "replace",
    ) -> UpgradeResult:
        """Upgrade a deployed system to the state described by
        ``new_partial``.  On any failure the machines are restored from
        backup and the old system redeployed; the returned result says
        which happened.

        ``strategy`` selects the execution plan:

        * ``"replace"`` -- the paper's implemented approach: stop and
          uninstall everything, deploy the new specification ("all
          upgrades ... experience the worst case upgrade time").  Kept
          as the reference the delta ablation compares against.
        * ``"delta"`` -- the optimisation the paper leaves as future
          work, as plan synthesis (:mod:`repro.runtime.delta`): untouched
          instances keep running; only changed/removed instances and
          their transitive dependents are stopped, replaced, and
          restarted.  Still transactional here (failure rolls back from
          backup); use ``deploy --delta`` for the journalled
          resume-on-crash path.
        """
        if strategy not in ("replace", "delta"):
            raise UpgradeError(f"unknown upgrade strategy: {strategy!r}")
        require_no_transition(system)
        new_spec = self._config.configure(new_partial).spec
        diff = diff_specs(system.spec, new_spec)

        # Back up every machine (filesystem + package database) before
        # touching anything.
        infrastructure = self._deploy.infrastructure
        backups: dict[str, dict] = {}
        for machine in set(system.machines.values()):
            backups[machine.hostname] = {
                "machine": machine.snapshot(),
                "packages": infrastructure.package_manager(machine).snapshot(),
            }

        old_spec = system.spec
        try:
            if strategy == "replace":
                self._deploy.uninstall(system)
                retire_machines(
                    infrastructure,
                    retired_hostnames(old_spec, new_spec, diff.removed),
                )
                new_system = self._deploy.deploy(new_spec)
            else:
                new_system = execute_delta(
                    self._deploy, system, plan_delta(system, new_spec)
                ).system
            return UpgradeResult(
                succeeded=True,
                rolled_back=False,
                diff=diff,
                system=new_system,
            )
        except Exception as exc:
            rolled_back_system = self._rollback(
                system, old_spec, new_spec, backups
            )
            return UpgradeResult(
                succeeded=False,
                rolled_back=True,
                diff=diff,
                system=rolled_back_system,
                error=_describe_exception(exc),
                exception=exc,
            )

    def _rollback(
        self,
        system: DeployedSystem,
        old_spec: InstallSpec,
        new_spec: InstallSpec,
        backups: dict[str, dict],
    ) -> DeployedSystem:
        """Restore machine filesystems and redeploy the old system.

        The failed new-spec deploy may have registered machines the old
        system never had; restoring only the backed-up hosts would
        leave those as ghost hosts on the network, so every machine the
        new spec introduced (no backup recorded for its hostname) is
        deregistered first.  Hosts the upgrade retired before
        failing are re-registered so their snapshot restore lands on a
        network-visible machine again.
        """
        infrastructure = self._deploy.infrastructure
        network = infrastructure.network
        retire_machines(
            infrastructure,
            (
                hostname
                for instance in new_spec.machines()
                if (hostname := machine_hostname(instance)) is not None
                and hostname not in backups
            ),
        )
        for machine in set(system.machines.values()):
            backup = backups[machine.hostname]
            if not network.has_machine(machine.hostname):
                network.register_machine(machine)
            machine.restore(backup["machine"])
            infrastructure.package_manager(machine).restore(backup["packages"])
        try:
            return self._deploy.deploy(old_spec)
        except DeploymentError as exc:  # pragma: no cover - defensive
            raise UpgradeError(
                f"rollback failed after upgrade failure: {exc}"
            ) from exc
