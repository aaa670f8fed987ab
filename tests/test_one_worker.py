"""One worker is the serial executor: a differential test.

Every pass runs through :class:`~repro.runtime.scheduler.DagScheduler`,
and a serial pass is its one-worker case.  The reference below is the
serial executor that used to sit beside it, copied verbatim (only the
imports it needs are added), and :class:`SerialEngine` routes every pass
through it the way the default engine used to.

On success the two must agree byte for byte: journal entries, action
records, the clock's event log and the persisted state document.  On
failure the serial executor stopped at the first fatal failure while the
scheduler finishes independent branches, so the scheduler completes at
least what the reference did and skips exactly the failed instances'
dependents within the pass.
"""

from __future__ import annotations

import random

import pytest

from repro.config import ConfigurationEngine
from repro.core import InstallSpec
from repro.core.errors import (
    DeploymentFailure,
    EngageError,
    GuardError,
)
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial
from repro.runtime import (
    DeploymentEngine,
    DeploymentReport,
    detect_drift,
    execute_delta,
    execute_plan,
    plan_delta,
    plan_repair,
    save_system,
)
from repro.sim import FaultPlan, lose_machine

# -- The reference: the serial executor, verbatim --------------------------


def _new_report() -> "DeploymentReport":
    return DeploymentReport()


def _selected_instances(system, target, *, reverse, only):
    order = system.spec.topological_order()
    if reverse:
        order = list(reversed(order))
    return [i for i in order if only is None or i.id in only]


def execute_serial(
    engine,
    system,
    target,
    *,
    reverse,
    only=None,
):
    """Drive instances one at a time in (reverse) dependency order.

    On a fatal per-instance failure the pass stops at a consistent
    frontier: the failed transition did not advance its driver, and
    every instance after the failure point in the order -- which
    includes all dependents of the failed instance -- is untouched.
    """
    report = _new_report()
    selected = _selected_instances(system, target, reverse=reverse, only=only)
    finish_times: dict[str, float] = {}
    clock = engine.infrastructure.clock
    for index, instance in enumerate(selected):
        started = clock.now
        try:
            engine._drive_instance(system, instance.id, target, report)
        except GuardError:
            # A guard violation is a protocol error by the caller
            # (wrong closure, wrong order), not a deployment fault:
            # propagate it unwrapped.
            raise
        except EngageError as exc:
            _finish_counterfactual(report, finish_times)
            system.report = report
            skipped = [other.id for other in selected[index + 1:]]
            journal = system.journal
            completed = set(journal.completed)
            journal.mark_failed(instance.id, str(exc))
            journal.mark_skipped(skipped)
            raise DeploymentFailure(
                f"deployment stopped at {instance.id!r}: {exc}",
                journal=journal,
                completed=completed,
                failed={instance.id},
                skipped=skipped,
                report=report,
                system=system,
            ) from exc
        duration = clock.now - started
        neighbour_finishes = [
            finish_times.get(other, 0.0)
            for other in (
                system.spec.downstream_ids(instance.id)
                if reverse
                else instance.upstream_ids()
            )
        ]
        earliest = max(neighbour_finishes, default=0.0)
        finish_times[instance.id] = earliest + duration
    _finish_counterfactual(report, finish_times)
    return report


def _finish_counterfactual(
    report: "DeploymentReport", finish_times: dict[str, float]
) -> None:
    """Serial-mode report totals: the makespan is the *counterfactual*
    critical path a maximally parallel execution would have needed."""
    report.sequential_seconds = sum(a.duration for a in report.actions)
    report.makespan_seconds = max(finish_times.values(), default=0.0)
    report.critical_path_seconds = report.makespan_seconds


class SerialEngine(DeploymentEngine):
    """The engine as it was with no worker bound: every pass serial."""

    def _drive(self, system, target, *, reverse, only=None, restart=()):
        # The serial executor predates restart nodes: no pass compared
        # here has any.
        assert not restart
        return execute_serial(
            self, system, target, reverse=reverse, only=only
        )


# -- Worlds ----------------------------------------------------------------


def topology(seed: int, grow: int = 0) -> FleetTopology:
    rng = random.Random(seed)
    stacks = ("openmrs", "jasper", "django")
    return FleetTopology(
        replicas=rng.randint(2, 5) + grow,
        machines=rng.randint(1, 3),
        stacks=tuple(rng.sample(stacks, rng.randint(1, 3))),
    )


def configure(registry, fleet: FleetTopology):
    return ConfigurationEngine(
        registry, partition=True
    ).configure(fleet_partial(fleet)).spec


def world(engine_class, seed: int):
    """A fresh world, an engine of ``engine_class`` and the seed's
    configured fleet."""
    registry = standard_registry()
    infrastructure = standard_infrastructure()
    engine = engine_class(registry, infrastructure, standard_drivers())
    return infrastructure, engine, configure(registry, topology(seed))


def record(system, report):
    """Everything a pass leaves behind that must match byte for byte."""
    return {
        "entries": list(system.journal.entries),
        "actions": list(report.actions),
        "state": save_system(system),
    }


def differential(seed, passes):
    """Run ``passes`` (each ``(engine, system) -> (system, report)``)
    from the deployed fleet on both engines, comparing after each."""
    observed = []
    for engine_class in (SerialEngine, DeploymentEngine):
        _, engine, spec = world(engine_class, seed)
        system = engine.deploy(spec)
        runs = [(record(system, system.report), system.report)]
        for one_pass in passes:
            system, report = one_pass(engine, system)
            runs.append((record(system, report), report))
        observed.append(runs)
    for (reference, old), (scheduled, new) in zip(*observed):
        assert scheduled == reference
        # The serial executor reported the critical-path bound as its
        # makespan; the scheduler measures the makespan and reports the
        # same bound beside it.
        assert new.critical_path_seconds == old.makespan_seconds
        assert new.makespan_seconds == pytest.approx(
            sum(a.duration + a.backoff_seconds for a in new.actions)
        )


SEEDS = range(4)


class TestSuccessPathsAreByteIdentical:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_deploy_stop_start_uninstall(self, seed):
        """Forward and reverse passes over the whole spec (``drive_down``
        selects every instance through ``only=``)."""
        differential(seed, [
            lambda engine, system: (system, engine.shutdown(system)),
            lambda engine, system: (system, engine.start(system)),
            lambda engine, system: (system, engine.uninstall(system)),
        ])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delta_up_pass(self, seed):
        """A grown fleet's delta: the up pass drives only the new
        instances."""

        def grow(engine, system):
            spec = configure(engine.registry, topology(seed, grow=2))
            result = execute_delta(engine, system, plan_delta(system, spec))
            return result.system, result.report

        differential(seed, [grow])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reconcile_redeploy_set(self, seed):
        """A lost machine's instances: the repair redeploys only them."""

        def repair(engine, system):
            lose_machine(system.infrastructure, "fleet-000")
            plan = plan_repair(system, detect_drift(system))
            return system, execute_plan(engine, system, plan)

        differential(seed, [repair])


def closure(spec, failed, selected, reverse):
    """Everything in ``selected`` that waits, through ``selected``, on a
    member of ``failed``: its dependents, or for a reverse pass its
    dependencies."""
    reached, frontier = set(), list(failed)
    while frontier:
        current = frontier.pop()
        nxt = (
            spec[current].upstream_ids() if reverse
            else spec.downstream_ids(current)
        )
        for other in nxt:
            if other in selected and other not in reached:
                reached.add(other)
                frontier.append(other)
    return reached - set(failed)


class ActionFaults(FaultPlan):
    """:meth:`FaultPlan.seeded`'s per-site draws on one action's sites
    only."""

    action = ""

    def _state_for(self, site):
        if not site.endswith(f":{self.action}"):
            return None
        return super()._state_for(site)


def failing(engine_class, seed, rate, action, one_pass):
    """``one_pass`` on the seed's deployed fleet, with a seeded fault
    plan on ``action``; returns the failure."""
    infrastructure, engine, spec = world(engine_class, seed)
    system = engine.deploy(spec)
    plan = ActionFaults.seeded(seed, rate)
    plan.action = action
    infrastructure.set_fault_plan(plan)
    with pytest.raises(DeploymentFailure) as excinfo:
        one_pass(engine, system)
    return excinfo.value


FAULTED = [(seed, rate) for seed in (1, 2, 3, 5) for rate in (0.3, 0.6)]


class TestFailurePathsSkipOnlyDependents:
    @staticmethod
    def compare(seed, rate, action, one_pass, selected, target):
        """``one_pass`` fails on both engines; ``selected(spec)`` is the
        failing pass's instances, driven towards ``target``."""
        reference = failing(SerialEngine, seed, rate, action, one_pass)
        failure = failing(DeploymentEngine, seed, rate, action, one_pass)
        # Up to the reference's failure both ran the same actions.
        prefix = len(reference.report.actions)
        assert failure.report.actions[:prefix] == reference.report.actions
        assert failure.failed >= reference.failed
        spec = failure.system.spec
        chosen = set(selected(spec))
        reached = lambda f: {  # noqa: E731
            iid for iid in chosen if f.system.state_of(iid) == target
        }
        assert reached(failure) >= reached(reference)
        assert failure.completed == set(failure.journal.completed)
        assert set(failure.skipped) == closure(
            spec, failure.failed, chosen, target != "active"
        )
        # A skipped instance still at the journal's target stays completed.
        assert failure.journal.skipped == failure.skipped - failure.completed

    @pytest.mark.parametrize("seed,rate", FAULTED)
    def test_forward_pass(self, seed, rate):
        """A stop, then a faulted start over the whole spec."""

        def start(engine, system):
            engine.shutdown(system)
            engine.start(system)

        self.compare(
            seed, rate, "start", start, InstallSpec.ids, "active"
        )

    @pytest.mark.parametrize("seed,rate", FAULTED)
    def test_reverse_pass(self, seed, rate):
        self.compare(
            seed, rate, "stop", lambda engine, system: engine.shutdown(system),
            InstallSpec.ids, "inactive",
        )

    @pytest.mark.parametrize("seed,rate", FAULTED)
    def test_subset_pass(self, seed, rate):
        """``only=``: stop every other instance's closure, then start
        just those."""

        def subset(spec):
            return spec.downstream_closure(spec.ids()[::2])

        def restart(engine, system):
            ids = subset(system.spec)
            engine.drive_down(system, ids)
            engine.drive_instances(system, ids, "active")

        self.compare(seed, rate, "start", restart, subset, "active")

    @pytest.mark.parametrize("seed,rate", FAULTED)
    def test_delta_up_pass(self, seed, rate):
        """A grown fleet's up pass installs only the new instances."""
        old = configure(standard_registry(), topology(seed)).ids()

        def grow(engine, system):
            spec = configure(engine.registry, topology(seed, grow=2))
            execute_delta(engine, system, plan_delta(system, spec))

        self.compare(
            seed, rate, "install", grow,
            lambda spec: set(spec.ids()) - set(old), "active",
        )
