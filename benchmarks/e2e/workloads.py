"""Seeded input generators and the five workloads.

The generators are pure functions of ``(seed, op_index)`` built only
from ``repro``'s public ``PartialInstance`` / ``FleetTopology`` /
``BusChaos`` / ``LinkFaultPlan`` / ``MachineChurn`` API; the program
under test receives only what they produce.  Topology sizes are part of
the benchmark's definition.

A workload is a closed loop with one client: :meth:`Workload.inputs`
(untimed) makes operation ``index``'s inputs, :meth:`Workload.run_op`
(timed) runs it, :meth:`Workload.check` (untimed) verifies the outputs
against invariants computed on the spot and reduces them to the record
that is compared with the golden file.  Indices ``-2`` and ``-1`` are
the warm-up operations.

``repro`` functions that the traced pass wraps are called through their
modules (``runtime.plan_delta``), because a wrapper replaces the
binding in ``repro``'s namespaces, not a name imported here.
"""

from __future__ import annotations

import hashlib
import itertools
import pathlib
import random
import time

import repro.config as config
import repro.django as django
import repro.dsl as dsl
import repro.library as library
import repro.obs as obs
import repro.runtime as runtime
import repro.sim as sim
from repro.core import PartialInstallSpec, PartialInstance, as_key, assert_well_formed
from repro.core.errors import UnsatisfiableError
from repro.library.fleet import FleetTopology, fleet_partial
from repro.sim.faults import LinkFaultPlan

import layers
from spans import Op, Tracer

ROOT = pathlib.Path(__file__).resolve().parents[2]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Untimed operations before the timed ones, charged to ``setup_s``.
WARMUP_OPS = 2

# -- Generators -----------------------------------------------------------

FLEET_COLD = FleetTopology(replicas=768, machines=256)
BUS_FLEET = FleetTopology(replicas=104, machines=32)
EVOLVE_MACHINES = 64
EVOLVE_REPLICAS = 640
#: Grow for this many steps, then shrink for as many, and so on.
EVOLVE_HALF = 10
CHURN_RATE = 0.04
HUB_MACHINES = 64
HUB_REPLICAS_PER_MACHINE = 3


def hub_partial(conflict_host: int | None = None) -> PartialInstallSpec:
    """A hub-and-spoke fleet: every machine runs three Gunicorn + Celery
    + Tomcat/OpenMRS replicas, and every Celery and OpenMRS peers to the
    one RabbitMQ and the one MySQL pinned on ``host000``, which joins
    the whole graph into a single connected component.

    With ``conflict_host`` the spec also pins both JDK 1.6 and JRE 1.6
    on that machine, where Tomcat needs exactly one Java runtime: the
    conflict mutant, unsatisfiable by construction."""
    hosts = [f"host{machine:03d}" for machine in range(HUB_MACHINES)]
    entries = [
        PartialInstance(
            host, as_key("Ubuntu-Linux 10.4"),
            config={
                "hostname": f"hub-{machine:03d}",
                "ip_address": f"10.1.0.{machine + 1}",
            },
        )
        for machine, host in enumerate(hosts)
    ]
    entries.append(PartialInstance(
        "hubbroker", as_key("RabbitMQ 2.7"), inside_id=hosts[0],
        config={"vhost": "/hub", "port": 25672},
    ))
    entries.append(PartialInstance(
        "hubdb", as_key("MySQL 5.1"), inside_id=hosts[0],
        config={"database_name": "hub", "port": 13306},
    ))
    for replica in range(HUB_MACHINES * HUB_REPLICAS_PER_MACHINE):
        host = hosts[replica % HUB_MACHINES]
        tomcat = f"tomcat{replica:03d}"
        entries += [
            PartialInstance(f"web{replica:03d}", as_key("Gunicorn 0.13"),
                            inside_id=host, config={"port": 8000 + replica}),
            PartialInstance(f"worker{replica:03d}", as_key("Celery 2.4"),
                            inside_id=host),
            PartialInstance(tomcat, as_key("Tomcat 6.0.18"), inside_id=host,
                            config={"manager_port": 10000 + replica}),
            PartialInstance(f"openmrs{replica:03d}", as_key("OpenMRS 1.8"),
                            inside_id=tomcat,
                            config={"context_path": f"openmrs{replica:03d}"}),
        ]
    if conflict_host is not None:
        entries += [
            PartialInstance("jdk_pin", as_key("JDK 1.6"),
                            inside_id=hosts[conflict_host]),
            PartialInstance("jre_pin", as_key("JRE 1.6"),
                            inside_id=hosts[conflict_host]),
        ]
    return PartialInstallSpec(entries)


def mutant_host(seed: int, index: int) -> int:
    return random.Random(f"{seed}|mutant|{index}").randrange(HUB_MACHINES)


OS_CHOICES = ("Mac-OSX 10.5", "Mac-OSX 10.6",
              "Ubuntu-Linux 10.04", "Ubuntu-Linux 10.10")
WEB_CHOICES = ("Gunicorn 0.13", "Apache-HTTPD 2.2")
DB_CHOICES = ("SQLite 3.7", "MySQL 5.1")
OPTIONAL = ("Celery 2.4", "Redis 2.4", "Memcached 1.4", "Monit 5.3")


def paper_grid() -> list[tuple]:
    """The paper's 4 x 2 x 2 x 2^4 = 256 single-node configurations."""
    subsets = itertools.chain.from_iterable(
        itertools.combinations(OPTIONAL, size)
        for size in range(len(OPTIONAL) + 1)
    )
    return list(itertools.product(OS_CHOICES, WEB_CHOICES, DB_CHOICES, subsets))


def paper_partial(app_key, os_key, web, db, extras) -> PartialInstallSpec:
    entries = [
        PartialInstance("node", as_key(os_key), config={"hostname": "n1"}),
        PartialInstance("app", app_key, inside_id="node"),
        PartialInstance("web", as_key(web), inside_id="node"),
        PartialInstance("db", as_key(db), inside_id="node"),
    ]
    entries += [
        PartialInstance(f"opt{position}", as_key(extra), inside_id="node")
        for position, extra in enumerate(extras)
    ]
    return PartialInstallSpec(entries)


def paper_order(seed: int) -> list[tuple[int, int]]:
    """One pass over (Table 1 application, grid configuration), shuffled."""
    order = [
        (app, cell)
        for app in range(len(django.table1_apps()))
        for cell in range(len(paper_grid()))
    ]
    random.Random(f"{seed}|paper").shuffle(order)
    return order


def evolve_targets(seed: int):
    """Replica counts of the evolving fleet, one per step from the first
    warm-up on: grow by 1-20 for ten steps, shrink by 1-20 for ten, and
    so on.  A draw that would return to a count already visited is
    redrawn, so every step asks the session for a spec it has not seen
    (a revisit is served from its cache at a fifth of the cost, which
    would make the cost of an operation depend on the seed's luck)."""
    rng = random.Random(f"{seed}|evolve")
    replicas = EVOLVE_REPLICAS
    seen = {replicas}
    for index in itertools.count(-WARMUP_OPS):
        sign = 1 if index < 0 or (index // EVOLVE_HALF) % 2 == 0 else -1
        target = replicas + sign * rng.randint(1, 20)
        while target in seen:
            target = replicas + sign * rng.randint(1, 20)
        seen.add(target)
        replicas = target
        yield replicas


def evolve_topology(replicas: int) -> FleetTopology:
    return FleetTopology(
        replicas=replicas, machines=EVOLVE_MACHINES, stacks=("django",)
    )


def churn_for(seed: int, index: int, system) -> sim.MachineChurn:
    step_seed = random.Random(f"{seed}|churn|{index}").randrange(1 << 30)
    return sim.MachineChurn(system, seed=step_seed, rate=CHURN_RATE)


def chaos_for(seed: int, index: int, hosts: list[str]):
    """The link faults and the fault schedule of one chaos deploy."""
    rng = random.Random(f"{seed}|chaos|{index}")
    faults = LinkFaultPlan(
        seed=rng.randrange(1 << 30), drop=0.05, duplicate=0.05, jitter=0.5
    )
    chaos = runtime.BusChaos(
        partition_at=30, partition_for=120, failover_at=400,
        crash_machine=rng.choice(hosts), crash_after_actions=5,
        crash_down_for=60,
    )
    return faults, chaos


# -- Workloads ------------------------------------------------------------


class Workload:
    """Shared set-up: the resource library and its drivers."""

    name = ""
    why = ""
    #: Timed operations of a run that is not cut short by ``--seconds``.
    ops = 0

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.registry = library.standard_registry()
        assert_well_formed(self.registry)
        self.drivers = library.standard_drivers()

    def inputs(self, index: int) -> dict:
        raise NotImplementedError

    def run_op(self, op: Op, inputs: dict) -> dict:
        raise NotImplementedError

    def check(self, inputs: dict, out: dict) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def replay(self, tracer: Tracer, inputs: dict, out: dict) -> list[str]:
        """Traced pass only: the staged replay of this operation's
        configure call, beside the operation; returns its problems."""
        if "partial" not in out:
            return []  # no configure call inside the operation
        spec = layers.staged_configure(
            tracer, self.registry, out["partial"],
            partition=out["partition"],
        )
        if dsl.full_to_json(spec) != out["full_json"]:
            return ["staged replay is not byte-equal to the engine"]
        return []

    def probes(self) -> dict:
        """Traced pass only: one-off measurements after the timed loop,
        with the timing wrappers taken off again."""
        return {}

    # The cold path shared by fleet_cold and hub_mono.
    def cold_deploy(self, op: Op, text: str) -> dict:
        with op.span("dsl.partial_from_json", "parse"):
            partial = dsl.partial_from_json(text)
        with op.span("config.engine.configure", "configure"):
            result = config.ConfigurationEngine(
                self.registry, partition=True
            ).configure(partial)
        with op.span("dsl.full_to_json", "persist"):
            full_json = dsl.full_to_json(result.spec)
        with op.span("phase.deploy", "deploy"):
            infrastructure = library.standard_infrastructure()
            engine = runtime.DeploymentEngine(
                self.registry, infrastructure, self.drivers
            )
            journal = runtime.DeploymentJournal(result.spec)
            system = engine.deploy(result.spec, journal=journal)
        with op.span("phase.persist", "persist"):
            state = runtime.save_system(system, journal)
            world = sim.save_world(infrastructure)
            (self.scratch / "state.json").write_text(state, encoding="utf-8")
            (self.scratch / "world.json").write_text(world, encoding="utf-8")
        op.count("dsl.full_spec_bytes", len(full_json))
        op.count("runtime.state.bundle_bytes", len(state) + len(world))
        op.count("runtime.deploy.actions", len(system.report.actions))
        op.count("runtime.deploy.retries", system.report.retries)
        return {
            "partial": partial, "partition": True, "full_json": full_json,
            "system": system, "state": state, "world": world,
            "instances": len(result.spec),
            "sim_makespan_s": system.report.sequential_seconds,
        }

    @staticmethod
    def check_cold(out: dict) -> tuple[dict, list[str]]:
        problems = []
        if not out["system"].is_deployed():
            problems.append("the deployed system is not converged")
        record = {
            "full_sha256": sha256(out["full_json"]),
            # No digest of the world: a simulated machine's default IP
            # address comes from hash(hostname), which changes with the
            # interpreter's hash seed.
            "state_sha256": sha256(out["state"]),
            "instances": out["instances"],
            "sim_makespan_s": out["sim_makespan_s"],
        }
        return record, problems


class FleetCold(Workload):
    name = "fleet_cold"
    why = ("partial spec to persisted, converged 3840-instance fleet of 256 "
           "small components, everything cold: the headline run")
    ops = 12

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.text = dsl.partial_to_json(fleet_partial(FLEET_COLD))

    def inputs(self, index):
        return {"key": "fleet", "text": self.text}

    def run_op(self, op, inputs):
        return self.cold_deploy(op, inputs["text"])

    def check(self, inputs, out):
        return self.check_cold(out)

    def probes(self):
        """The process pool beside the in-process engine, and the cost
        of an installed ``repro.obs`` tracer on a deploy."""
        partial = dsl.partial_from_json(self.text)
        values: dict = {"notes": []}

        def configure_ms(**options):
            with config.ConfigurationEngine(
                self.registry, partition=True, **options
            ) as engine:
                started = time.perf_counter()
                spec = engine.configure(partial).spec
                return spec, (time.perf_counter() - started) * 1000.0

        spec, in_process_ms = configure_ms()
        try:
            _, pooled_ms = configure_ms(workers=2)
            values["notes"].append(
                f"pool of 2 (cold): {pooled_ms:.0f} ms beside "
                f"{in_process_ms:.0f} ms in process"
            )
        except TypeError as exc:
            pooled_ms = None
            values["notes"].append(f"workers= rejected: {exc}")
        values["config.parallel.pool2_configure_ms"] = pooled_ms

        best: dict[bool, float] = {}
        for installed in (False, True) * 2:
            infrastructure = library.standard_infrastructure()
            if installed:
                infrastructure.set_tracer(obs.Tracer(infrastructure.clock))
            engine = runtime.DeploymentEngine(
                self.registry, infrastructure, self.drivers
            )
            started = time.perf_counter()
            engine.deploy(spec)
            elapsed = time.perf_counter() - started
            best[installed] = min(elapsed, best.get(installed, elapsed))
        values["obs.tracer_enabled_deploy_pct"] = (
            best[True] / best[False] - 1.0
        ) * 100.0
        return values


class HubMono(Workload):
    name = "hub_mono"
    why = ("one 1026-node connected component, so partitioning buys nothing, "
           "plus an UNSAT mutant whose minimal conflict the solver must find")
    ops = 28

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.text = dsl.partial_to_json(hub_partial())

    def inputs(self, index):
        host = mutant_host(self.seed, index)
        return {
            "key": f"host{host:03d}", "host": host, "text": self.text,
            "mutant": dsl.partial_to_json(hub_partial(conflict_host=host)),
        }

    def run_op(self, op, inputs):
        out = self.cold_deploy(op, inputs["text"])
        with op.span("phase.diagnose", "diagnose"):
            try:
                config.ConfigurationEngine(
                    self.registry, partition=True
                ).configure(dsl.partial_from_json(inputs["mutant"]))
                out["unsat"] = None
            except UnsatisfiableError as exc:
                out["unsat"] = str(exc)
        return out

    def check(self, inputs, out):
        record, problems = self.check_cold(out)
        message = out["unsat"]
        record["unsat"] = message
        # The conflict is the two pinned runtimes and one Tomcat of the
        # mutated machine (replica r sits on machine r mod 64).
        tomcats = [
            f"'tomcat{inputs['host'] + HUB_MACHINES * k:03d}'"
            for k in range(HUB_REPLICAS_PER_MACHINE)
        ]
        if message is None:
            problems.append("the conflict mutant configured")
        elif not ("'jdk_pin'" in message and "'jre_pin'" in message
                  and any(tomcat in message for tomcat in tomcats)):
            problems.append("the UNSAT message does not name the conflict")
        return record, problems


class PaperStacks(Workload):
    name = "paper_stacks"
    why = ("thousands of ~5 ms single-node specs from the paper's 256-cell "
           "grid x Table 1 apps: per-call fixed cost is everything")
    ops = 4096  # two passes over the 8 x 256 combinations

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.apps = django.table1_apps()
        # Register every generated type once, so no operation pays the
        # well-formedness sweep a changed registry triggers.
        warm = library.standard_infrastructure()
        grid = paper_grid()
        keys = [
            django.package_application(app, self.registry, warm)
            for app in self.apps
        ]
        self.work = [
            (app, cell, paper_partial(keys[app], *grid[cell]))
            for app, cell in paper_order(seed)
        ]
        shop = ROOT / "examples" / "stacks" / "shop.engage"
        self.shop = shop.read_text(encoding="utf-8") if shop.exists() else None

    def inputs(self, index):
        app, cell, partial = self.work[index % len(self.work)]
        return {
            "key": f"{self.apps[app].name}/{cell}", "app": self.apps[app],
            "partial": partial,
            "shop": self.shop if index % 64 == 0 else None,
        }

    def run_op(self, op, inputs):
        with op.span("phase.package"):
            infrastructure = library.standard_infrastructure()
            django.package_application(
                inputs["app"], self.registry, infrastructure
            )
        with op.span("config.engine.configure", "configure"):
            result = config.ConfigurationEngine(self.registry).configure(
                inputs["partial"]
            )
        with op.span("phase.deploy", "deploy"):
            system = runtime.DeploymentEngine(
                self.registry, infrastructure, self.drivers
            ).deploy(result.spec)
        if inputs["shop"] is not None:
            with op.span("dsl.load_resources"):
                dsl.load_resources(inputs["shop"])
        op.count("runtime.deploy.actions", len(system.report.actions))
        op.count("runtime.deploy.retries", system.report.retries)
        return {
            "partial": inputs["partial"], "partition": False,
            "spec": result.spec, "system": system,
            "instances": len(result.spec),
        }

    def check(self, inputs, out):
        out["full_json"] = dsl.full_to_json(out["spec"])
        problems = []
        if not out["system"].is_deployed():
            problems.append("the deployed system is not converged")
        return {"full": sha256(out["full_json"])[:16]}, problems


SESSION_COUNTERS = ("graph_hits", "graph_misses", "solver_reuses",
                    "solver_builds", "typecheck_skips", "typecheck_runs")


class FleetEvolve(Workload):
    name = "fleet_evolve"
    why = ("day-2 traffic on a live 640-replica fleet: session re-configure, "
           "delta transition, three reconcile rounds under machine churn")
    ops = 20

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.targets = evolve_targets(seed)
        self.session = config.ConfigurationSession(
            self.registry, partition=True
        )
        spec = self.session.configure(
            fleet_partial(evolve_topology(EVOLVE_REPLICAS))
        ).spec
        self.engine = runtime.DeploymentEngine(
            self.registry, library.standard_infrastructure(), self.drivers
        )
        self.system = self.engine.deploy(
            spec, journal=runtime.DeploymentJournal(spec)
        )

    def inputs(self, index):
        # Steps are consumed in order: the fleet has one history.
        return {
            "key": f"{self.seed}/{index}", "index": index,
            "partial": fleet_partial(evolve_topology(next(self.targets))),
        }

    def run_op(self, op, inputs):
        stats = self.session.stats
        before = [getattr(stats, name) for name in SESSION_COUNTERS]
        with op.span("config.session.configure", "configure"):
            result = self.session.configure(inputs["partial"])
        with op.span("phase.transition", "transition"):
            delta = runtime.plan_delta(self.system, result.spec)
            self.system = runtime.execute_delta(
                self.engine, self.system, delta
            ).system
        with op.span("phase.repair", "repair"):
            churn = churn_for(self.seed, inputs["index"], self.system)
            repair = runtime.ReconcileController(
                self.engine, self.system
            ).run(rounds=3, churn=churn)
        for name, then in zip(SESSION_COUNTERS, before):
            op.count(f"config.session.{name}", getattr(stats, name) - then)
        op.count("runtime.delta.plan_steps", len(delta))
        op.count("runtime.reconcile.drift_items",
                 sum(r.drift_items for r in repair.rounds))
        op.count("runtime.reconcile.plan_steps",
                 sum(r.plan_size for r in repair.rounds))
        op.count("sim.faults.churn_machines_lost", len(churn.records))
        fleet = len(result.spec)
        return {
            "partial": inputs["partial"], "partition": True,
            "spec": result.spec, "delta": delta, "repair": repair,
            "lost": sorted(record.hostname for record in churn.records),
            "instances": fleet,
            "sim_repair_s": [r.time_to_repair for r in repair.rounds
                             if r.drift_items],
            "plan_fraction": max(
                [len(delta)] + [r.plan_size for r in repair.rounds]
            ) / fleet,
        }

    def check(self, inputs, out):
        out["full_json"] = dsl.full_to_json(out["spec"])
        problems = []
        if not out["repair"].converged:
            problems.append("the reconcile loop did not converge")
        if not self.system.is_deployed():
            problems.append("the fleet is not converged after the step")
        if self.system.spec is not out["spec"]:
            problems.append("the live system is not on the new spec")
        record = {
            "full_sha256": sha256(out["full_json"]),
            "delta_steps": len(out["delta"]),
            "repair_steps": [r.plan_size for r in out["repair"].rounds],
            "machines_lost": out["lost"],
            "sim_repair_s": out["sim_repair_s"],
        }
        return record, problems


class BusChaosWorkload(Workload):
    name = "bus_chaos"
    why = ("the control plane alone: a clean bus deploy, then one under link "
           "faults, partition, slave crash and failover; no configure")
    ops = 20

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.spec = config.ConfigurationEngine(
            self.registry, partition=True
        ).configure(fleet_partial(BUS_FLEET)).spec
        self.hosts = sorted(machine.id for machine in self.spec.machines())

    def inputs(self, index):
        faults, chaos = chaos_for(self.seed, index, self.hosts)
        return {"key": f"{self.seed}/{index}", "faults": faults,
                "chaos": chaos}

    def run_op(self, op, inputs):
        with op.span("phase.clean_deploy", "clean_deploy"):
            clean_world = library.standard_infrastructure()
            clean = runtime.BusCoordinator(
                self.registry, clean_world, self.drivers
            ).deploy(self.spec)
        with op.span("phase.chaos_deploy", "deploy"):
            chaos_world = library.standard_infrastructure()
            chaotic = runtime.BusCoordinator(
                self.registry, chaos_world, self.drivers,
                link_faults=inputs["faults"],
            ).deploy(self.spec, chaos=inputs["chaos"])
        with op.span("runtime.coordinator.fingerprint"):
            fingerprints = (
                runtime.deployment_fingerprint(clean_world, clean),
                runtime.deployment_fingerprint(chaos_world, chaotic),
            )
        report = chaotic.report
        for name in ("retransmits", "redundant_acks", "work_executions",
                     "work_resumes"):
            op.count(f"runtime.coordinator.{name}", getattr(report, name))
        op.count("runtime.coordinator.machines", len(self.hosts))
        op.count("runtime.coordinator.sim_clean_makespan_s",
                 clean.report.parallel_makespan_seconds)
        for deployment in (clean, chaotic):
            stats = deployment.report.bus_stats
            op.count("runtime.bus.sent", stats["total_sent"])
            op.count("runtime.bus.delivered", stats["total_delivered"])
        return {
            "clean": clean, "chaotic": chaotic, "fingerprints": fingerprints,
            "instances": len(self.spec),
            "sim_makespan_s": report.parallel_makespan_seconds,
        }

    def check(self, inputs, out):
        problems = []
        if not (out["clean"].is_deployed() and out["chaotic"].is_deployed()):
            problems.append("a bus deployment did not converge")
        clean, chaotic = out["fingerprints"]
        if clean != chaotic:
            problems.append("faulted and clean fingerprints differ")
        report = out["chaotic"].report
        record = {
            "fingerprint": chaotic,
            "sim_makespan_s": out["sim_makespan_s"],
            "sim_clean_makespan_s":
                out["clean"].report.parallel_makespan_seconds,
            "retransmits": report.retransmits,
            "work_executions": report.work_executions,
            "work_resumes": report.work_resumes,
        }
        return record, problems


WORKLOADS = {
    workload.name: workload
    for workload in (FleetCold, HubMono, PaperStacks, FleetEvolve,
                     BusChaosWorkload)
}
