"""Architecture guards: shapes of ``src/repro`` that a simplification
settled and that no behavioural test would notice coming back.

Each guard pins the parameter lists of one surface by AST, or bans the
names of a path that was deleted, so a change that reintroduces a
switch or a second path fails the tier-1 run.  Paths are resolved from
this file, so the guards hold for the checkout they sit in.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _modules(package: str = ""):
    """``(path, tree)`` for every module under ``src/repro/<package>``."""
    for path in sorted((SRC / package).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _sources(pattern: str = "**/*.py"):
    """``(path, text)`` for every file under ``src/repro`` matching
    ``pattern``, ``path`` relative to the checkout (``src/repro/...``)."""
    for path in sorted(SRC.glob(pattern)):
        yield path.relative_to(ROOT).as_posix(), path.read_text("utf-8")


def _statements(tree: ast.Module):
    """``(prefix, node)`` for every module- and class-level statement;
    ``prefix`` is ``"Class."`` inside a class body."""
    scopes = [("", tree)]
    for prefix, scope in scopes:
        for node in scope.body:
            if isinstance(node, ast.ClassDef):
                scopes.append((node.name + ".", node))
            yield prefix, node


def _signatures(package: str, pinned: dict) -> dict:
    """The parameter lists (``self`` left out) of the ``pinned``
    functions, keyed as ``pinned`` is: (file name, qualified name)."""
    found = {}
    for path, tree in _modules(package):
        for prefix, node in _statements(tree):
            key = (path.name, prefix + getattr(node, "name", ""))
            if isinstance(node, ast.FunctionDef) and key in pinned:
                args = node.args
                found[key] = [
                    a.arg for a in args.posonlyargs + args.args
                    + args.kwonlyargs
                    if a.arg != "self"
                ]
    return found


def test_configure_has_one_behaviour():
    # A pinned instance is a unit clause on every configure path and
    # nothing selects an encoding, skips the typecheck or the UNSAT
    # diagnosis, or picks a peer policy: the configure surface takes
    # exactly these parameters, and a component entry has no slot for
    # assumptions.  The mode is constructor state (no call overrides
    # it), a result carries no whole-graph formula, and the diagnosis
    # is handed the call's graph and component entries: there is no
    # second encoding mode, only the constraints module's own
    # assumption form of a formula configure built.
    PINNED = {
        ("engine.py", "ConfigurationEngine.__init__"):
            ["registry", "partition", "tracer"],
        ("session.py", "ConfigurationSession.__init__"):
            ["registry", "partition"],
        ("engine.py", "ConfigurationEngine.configure"): ["partial"],
        ("session.py", "ConfigurationSession.configure"): ["partial"],
        ("session.py", "configure_call"):
            ["registry", "partition", "memo", "partial", "tracer"],
        ("session.py", "shape_key"): ["component"],
        ("engine.py", "configure_component"): ["registry", "slot", "nodes"],
        ("engine.py", "raise_unsatisfiable"): ["graph", "entries"],
        ("explain.py", "explain_unsat"): ["graph", "entries"],
        ("constraints.py", "generate_constraints"): ["graph", "encoding"],
        ("hypergraph.py", "generate_graph"): ["registry", "partial"],
        ("engine.py", "canonical_model"): ["formula", "solver"],
        ("engine.py", "ComponentEntry.__init__"): ["component"],
    }
    hits = []
    for path, tree in _modules():
        for prefix, node in _statements(tree):
            if (isinstance(node, ast.Assign)
                    and prefix == "ComponentEntry."
                    and ast.unparse(node.targets[0]) == "__slots__"):
                slots = ast.literal_eval(node.value)
                if {"keep", "assumptions"} & set(slots):
                    hits.append((path, node.lineno, slots))
            if (isinstance(node, ast.AnnAssign)
                    and prefix == "ConfigurationResult."
                    and ast.unparse(node.target) == "formula"):
                hits.append((path, node.lineno, "ConfigurationResult.formula"))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.keyword, ast.arg))
                    and node.arg == "facts_as_assumptions"):
                hits.append((path, node.lineno, "facts_as_assumptions"))
    found = _signatures("config", PINNED)
    assert found == PINNED, (found, PINNED)
    assert not hits, hits


def test_reconcile_repairs_what_is_deployed():
    # The deployed spec is the only goal repair moves toward; a new goal
    # is a delta.  Nothing takes a shrunk goal, a target or a solver
    # session to re-validate against: only plan_delta hands detect_drift
    # a goal (the new spec).
    PINNED = {
        ("reconcile.py", "detect_drift"): ["system", "goal"],
        ("reconcile.py", "plan_repair"): ["system", "drift"],
        ("reconcile.py", "ReconcileController.__init__"):
            ["engine", "system", "interval"],
        ("delta.py", "plan_delta"): ["system", "new_spec"],
    }
    GONE_METHODS = {"reconfigure_components", "revalidate_instances"}
    GONE_FIELDS = {"DeltaPlan.revalidated", "ReconcileRound.reconfigured"}
    hits = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in GONE_METHODS:
                hits.append((path, node.lineno, node.name))
        for prefix, node in _statements(tree):
            if (isinstance(node, ast.AnnAssign)
                    and prefix + ast.unparse(node.target) in GONE_FIELDS):
                hits.append((path, node.lineno, ast.unparse(node)))
        text = path.read_text(encoding="utf-8")
        for word in ("EXTRA_INSTANCE", "extra_instances", "allow_new"):
            if word in text:
                hits.append((path, word))
    found = _signatures("runtime", PINNED)
    assert found == PINNED, (found, PINNED)
    assert not hits, hits


def test_one_scheduler():
    # Every pass is DagScheduler and a serial pass is its one-worker
    # case: no second executor, no event queue on the clock (the
    # scheduler's completion heap belongs to the pass), no serial
    # restart loop beside the up pass (a restart is a node of it), and
    # no branch on the worker bound where the engine hands a pass over.
    GONE = {"execute_serial", "ScheduledEvent", "schedule",
            "advance_to_next_event", "pending_events",
            "peek_next_event_time", "cancel_events",
            "restart_instances"}
    hits = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            name = (node.name if isinstance(
                        node, (ast.FunctionDef, ast.ClassDef))
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else None)
            if name in GONE:
                hits.append((path, node.lineno, name))
            if (isinstance(node, ast.ClassDef)
                    and node.name == "DeploymentEngine"):
                drive = next(f for f in node.body
                             if isinstance(f, ast.FunctionDef)
                             and f.name == "_drive")
                for inner in ast.walk(drive):
                    if isinstance(inner, (ast.If, ast.IfExp,
                                          ast.Match, ast.BoolOp)):
                        hits.append((path, inner.lineno, "branch"))
                    if (isinstance(inner, ast.Attribute)
                            and inner.attr.startswith("jobs")):
                        hits.append((path, inner.lineno, inner.attr))
    assert not hits, hits


# -- Guards that ran as inline steps of the CI workflow ----------------------
# Moved here with their assertions unchanged: each walks the same files,
# named the same way (``src/repro/...`` relative to the checkout).


def test_retry_policy_and_worker_bounds_stay_constructor_state():
    # Only the two constructors that own them may name them (a slave
    # agent is handed the coordinator's engine); a pass, planner or CLI
    # helper regaining one fails.
    NAMES = {"policy", "retry_policy", "jobs", "jobs_per_host"}
    OWNERS = {"DeploymentEngine", "BusCoordinator"}
    hits = []
    for path, text in _sources():
        tree = ast.parse(text)
        owned = {
            id(f) for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name in OWNERS
            for f in c.body
            if isinstance(f, ast.FunctionDef) and f.name == "__init__"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and id(node) not in owned:
                args = node.args.args + node.args.kwonlyargs
                hits += [
                    (path, node.lineno, node.name, a.arg)
                    for a in args if a.arg in NAMES
                ]
    assert not hits, hits


def test_the_system_owns_its_journal():
    # A pass journals to system.journal, so only the six functions whose
    # *subject* is a journal may name a parameter ``journal`` (deploy,
    # resume and adopt start from one, save_system checks one, a failure
    # carries one, canonical_journal digests one); and no layer may hand
    # the next one text to re-parse.
    OWNERS = {
        "DeploymentEngine.deploy", "DeploymentEngine.resume",
        "DeploymentEngine.adopt", "save_system",
        "DeploymentFailure.__init__", "canonical_journal",
    }
    FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
    REPARSE = re.compile(
        r"loads\((full_to_json|save_world|save_system)"
        r"|_from_json\(json\.dumps|load_world\(json\.dumps"
    )
    hits = []
    for path, text in _sources():
        tree = ast.parse(text)
        names = {
            id(f): f"{c.name}.{f.name}" for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, FUNCTIONS)
        }
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS):
                continue
            name = names.get(id(node), node.name)
            args = (node.args.posonlyargs + node.args.args
                    + node.args.kwonlyargs)
            if name not in OWNERS and any(
                a.arg == "journal" for a in args
            ):
                hits.append((path, node.lineno, name))
    assert not hits, hits
    reparsed = [
        (path, line) for path, text in _sources()
        for line in text.splitlines() if REPARSE.search(line)
    ]
    assert not reparsed, reparsed


def test_one_live_system_type_one_way_back_from_a_journal():
    # Whatever deploys a fleet returns a DeployedSystem, and a system is
    # rebuilt from a record in DeploymentEngine.adopt only
    # (system_from_payload adds what a file's states section says where
    # its journal is silent).
    ADOPTERS = {"DeploymentEngine.adopt", "system_from_payload"}
    FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
    hits = []
    for path, text in _sources("runtime/*.py"):
        tree = ast.parse(text)
        names = {
            id(f): f"{c.name}.{f.name}" for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, FUNCTIONS)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Deployment")):
                hits.append((path, node.lineno, node.name))
            if not isinstance(node, FUNCTIONS):
                continue
            name = names.get(id(node), node.name)
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "adopt_states"
                        and name not in ADOPTERS):
                    hits.append((path, call.lineno, name))
    assert not hits, hits
    merged = [
        (path, line) for path, text in _sources()
        for line in text.splitlines()
        if re.search(r"merged_system|merged_journal", line)
    ]
    assert not merged, merged


def test_one_json_emitter_one_collector_switch_one_spec_per_driver_kind():
    # Indented JSON is written by repro.core.jsontext.indented, with no
    # exception (a key-sorted document sorts a copy first); only the
    # pause helper turns the collector off and on; and a driver module
    # builds a StateMachineSpec only in the three lifecycle functions,
    # whose one spec per kind every driver shares.
    EMITTER = "src/repro/core/jsontext.py"
    PAUSE = "src/repro/core/collector.py"
    LIFECYCLES = {"service_state_machine", "package_state_machine",
                  "machine_state_machine"}
    hits = []
    for path, text in _sources():
        tree = ast.parse(text)
        lifecycle_calls = {
            id(call) for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and function.name in LIFECYCLES
            for call in ast.walk(function)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            keywords = {k.arg for k in node.keywords}
            if (name in ("json.dumps", "json.dump")
                    and "indent" in keywords
                    and path != EMITTER):
                hits.append((path, node.lineno, name))
            if name in ("gc.disable", "gc.enable") and path != PAUSE:
                hits.append((path, node.lineno, name))
            if (name == "StateMachineSpec"
                    and path.startswith("src/repro/drivers/")
                    and id(node) not in lifecycle_calls):
                hits.append((path, node.lineno, name))
    assert not hits, hits


def test_the_clock_keeps_time_not_history():
    # The clock is `now` plus overlapping spans: an advance takes only
    # its seconds (no label to build at the call site), nothing logs
    # or restores an event history, a world carries its clock as one
    # number, and `advance_to` is the one forward move.  The after-the-
    # fact trace renders the journal; the live tracer owns the spans.
    # The journal-less state format is refused, not read.
    PINNED = {("clock.py", "SimClock.advance"): ["seconds"]}
    GONE = re.compile(
        r"\b(ClockEvent|restore_events|elapsed_by_label|sync_to"
        r"|trace_from_clock_events|clock_events|STATE_FORMAT)\b"
        r"|engage-state-1"
    )
    hits = [
        (path, number, match.group())
        for path, text in _sources()
        for number, line in enumerate(text.splitlines(), start=1)
        for match in GONE.finditer(line)
    ]
    found = _signatures("sim", PINNED)
    assert found == PINNED, (found, PINNED)
    assert not hits, hits


def test_the_type_checker_guards_what_is_loaded():
    # Configure does not statically check its own output (Theorem 1
    # and propagation make it well-typed; the tier-1 conftest asserts
    # it on every result): nothing in repro.config but the checker
    # itself calls it.  A spec read back from a file is what the
    # checker is for, and system_from_payload -- the one reader of
    # state files and bundles -- calls it.
    CHECKS = {"check_spec", "spec_problems"}
    CHECKER = "src/repro/config/typecheck.py"

    def calls(tree):
        named = (
            (node.lineno, ast.unparse(node.func).rsplit(".", 1)[-1])
            for node in ast.walk(tree) if isinstance(node, ast.Call)
        )
        return [(line, name) for line, name in named if name in CHECKS]

    hits = [
        (path, line, name)
        for path, text in _sources("config/**/*.py") if path != CHECKER
        for line, name in calls(ast.parse(text))
    ]
    assert not hits, hits
    loader = next(
        node for _path, tree in _modules("runtime")
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "system_from_payload"
    )
    assert "check_spec" in {name for _line, name in calls(loader)}



def test_one_way_to_heal_a_crashed_service():
    # A crashed service comes back in a reconcile round, through its
    # driver's guarded, retried and journalled `restart` transition in
    # dependency order.  Nothing respawns a process beside the journal:
    # a machine has no restart of its own, the monitor only scans (no
    # poll, no event log), a process keeps no restart count (the
    # journal's `restart` entries are the history), and the one `src`
    # call that spawns a process is the service driver's start action,
    # which its restart reaches through stop-then-start.  The journal's
    # second view of what is out of place went with them.
    GONE = re.compile(r"\b(restart_process|MonitorEvent|JournalDiff)\b")
    GONE_MEMBERS = {
        "ProcessMonitor.poll", "ProcessMonitor.events",
        "FaultInjector.campaign", "SimProcess.restarts",
        "DeploymentJournal.diff", "DeploymentJournal.remaining",
        "DeploymentJournal.is_complete",
    }
    hits = [
        (path, number, match.group())
        for path, text in _sources()
        for number, line in enumerate(text.splitlines(), start=1)
        for match in GONE.finditer(line)
    ]

    def is_spawn(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "spawn_process")

    spawns, spawn_calls = [], 0
    for path, tree in _modules():
        where = path.relative_to(ROOT).as_posix()
        spawn_calls += sum(map(is_spawn, ast.walk(tree)))
        for prefix, node in _statements(tree):
            names = [prefix + getattr(node, "name", "")]
            if isinstance(node, ast.AnnAssign):
                names = [prefix + ast.unparse(node.target)]
            if isinstance(node, ast.ClassDef):
                names = [
                    f"{node.name}.{sub.attr}" for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and ast.unparse(sub.value) == "self"
                ]
            hits += [
                (where, node.lineno, name)
                for name in names if name in GONE_MEMBERS
            ]
            if isinstance(node, ast.FunctionDef):
                spawns += [
                    (where, names[0])
                    for call in ast.walk(node) if is_spawn(call)
                ]
    assert not hits, hits
    assert spawns == [
        ("src/repro/drivers/library.py", "ServiceDriver.do_start")
    ], spawns
    assert spawn_calls == len(spawns)


def test_history_is_kept_once():
    # A deployment keeps one journal for its whole life: a day-2 step
    # re-targets it in place, so the delta layer builds none (a rebuild
    # copied the whole history on every step), and a delta's result
    # names it only as ``result.system.journal`` (a second name could be
    # read out of step with the system).  Beside the journal the world
    # keeps no history: a process no crash count.  And whatever
    # configures or loads types checks them: no switch turns the
    # registry's well-formedness check off.
    GONE = re.compile(r"\b(verify_registry|no_verify)\b|--no-verify")
    hits = [
        (path, number, match.group())
        for path, text in _sources()
        for number, line in enumerate(text.splitlines(), start=1)
        for match in GONE.finditer(line)
    ]
    delta = ast.parse((SRC / "runtime" / "delta.py").read_text("utf-8"))
    hits += [
        ("src/repro/runtime/delta.py", node.lineno, "DeploymentJournal()")
        for node in ast.walk(delta)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] == "DeploymentJournal"
    ]
    hits += [
        ("src/repro/runtime/delta.py", node.lineno, "DeltaResult.journal")
        for prefix, node in _statements(delta)
        if prefix == "DeltaResult." and isinstance(node, ast.AnnAssign)
        and ast.unparse(node.target) == "journal"
    ]
    process = ast.parse((SRC / "sim" / "process.py").read_text("utf-8"))
    hits += [
        ("src/repro/sim/process.py", node.lineno, "SimProcess.failures")
        for prefix, node in _statements(process)
        if prefix == "SimProcess." and isinstance(node, ast.AnnAssign)
        and ast.unparse(node.target) == "failures"
    ]
    assert not hits, hits


# -- What src/ keeps ----------------------------------------------------------

ORACLE = "a reference that tests compare against"
INVERSE = "the inverse reader of a writer that something reaches"
REGISTERED = "registered by decorator, reached through its registry"

#: Definitions in ``src/repro`` that no CLI command, benchmark or example
#: names, each kept for one of the three reasons.
KEPT = {
    "src/repro/core/jsontext.py::plain": ORACLE,
    "src/repro/runtime/bus.py::MessageBus.delivery_log": ORACLE,
    "src/repro/dsl/json_spec.py::full_from_json": INVERSE,
    "src/repro/runtime/state.py::load_system": INVERSE,
    "src/repro/sat/dimacs.py::parse_dimacs": INVERSE,
    "src/repro/sim/persistence.py::load_world": INVERSE,
    "src/repro/library/fleet.py::_openmrs_replica": REGISTERED,
    "src/repro/library/fleet.py::_jasper_replica": REGISTERED,
    "src/repro/library/fleet.py::_django_replica": REGISTERED,
}


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named (read, written or called) in
    ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _traffic():
    """``(path, tree)`` for every module the program's users run: all of
    ``src/repro`` (a package ``__init__`` without its re-exports), the
    benchmarks and the examples."""
    for base in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / base).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "__init__.py":
                tree.body = [
                    node for node in tree.body
                    if not isinstance(node, (ast.Import, ast.ImportFrom))
                    and not (isinstance(node, ast.Assign)
                             and ast.unparse(node.targets[0]) == "__all__")
                ]
            yield path, tree


def test_src_keeps_what_is_reached():
    # A function or class stays in src/ only if a command, a benchmark,
    # an example or other src code names it outside its own body, or it
    # is on KEPT with its reason.  Names are matched bare (no types), so
    # a method goes unseen when a reached one shares its name; the
    # deleted ones are banned by name below.  Dunders and the drivers'
    # ``do_*`` action hooks are called by name and exempt.
    modules = list(_traffic())
    named = sum((_names(tree) for _path, tree in modules), Counter())
    unreached = {}
    for path, tree in modules:
        if path.parts[len(ROOT.parts)] != "src":
            continue
        where = path.relative_to(ROOT).as_posix()
        for prefix, node in _statements(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name.startswith("do_")):
                continue
            if named[name] == _names(node)[name]:
                unreached[f"{where}::{prefix}{name}"] = node.lineno
    assert set(unreached) - set(KEPT) == set(), sorted(unreached)
    assert set(KEPT) - set(unreached) == set(), "stale KEPT entries"


def test_test_only_surface_stays_gone():
    # The test-only fault injector and the document twins are gone, as
    # are the entry points only tests called; the options only tests set
    # are constants.  Tests drive the surface that remains: a victim
    # they name, ``Infrastructure.set_fault_plan``, ``plain`` of a
    # document, a patched ``MAX_ENTRIES``.
    GONE = {
        "FaultInjector", "FaultyWorld", "system_payload", "world_payload",
        "full_to_payload", "DeploymentJournal.to_payload",
        "SpecTransition.to_payload", "spec_to_dot", "solve_formula",
        "MessageBus.set_latency", "MessageBus.latency",
        "DeploymentReport.actions_for", "VirtualFilesystem.listdir",
        "VirtualFilesystem.file_count", "ResourceTypeRegistry.keys_in_range",
        "ResourceTypeRegistry.versions_of", "select_versions",
        "Port.check_value", "InstallSpec.replace_instance",
        "CloudProvider.deprovision", "ResourceDriver.transition_for",
        "DownloadService.is_cached", "CnfFormula.has_name",
        "PortMapping.as_dict", "Dependency.single", "fingerprint_partial",
        "app_resource_key", "DjangoAppDefinition.key_display",
    }
    PINNED = {
        ("tracer.py", "Tracer.__init__"): ["clock"],
        ("dot.py", "graph_to_dot"): ["graph"],
        ("coordinator.py", "BusCoordinator.__init__"): [
            "registry", "infrastructure", "driver_registry", "policy",
            "jobs", "jobs_per_host", "link_faults", "default_latency",
            "heartbeat_every", "heartbeat_timeout", "max_sim_seconds",
        ],
        ("faults.py", "FaultPlan.seeded"): ["cls", "seed", "rate"],
        ("faults.py", "MachineChurn.__init__"): ["system", "seed", "rate"],
        ("faults.py", "LinkFaultPlan.__init__"):
            ["seed", "drop", "duplicate", "jitter"],
        ("state_machine.py", "StateMachineSpec.__init__"): ["transitions"],
        ("provision.py", "provision_partial_spec"):
            ["registry", "partial", "infrastructure"],
        ("cloud.py", "CloudProvider.provision"): ["image_id"],
        ("__init__.py", "standard_infrastructure"): ["use_cache"],
    }
    hits = [
        (path.relative_to(ROOT).as_posix(), node.lineno, prefix + node.name)
        for path, tree in _modules()
        for prefix, node in _statements(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and prefix + node.name in GONE
    ]
    found = _signatures("", PINNED)
    assert found == PINNED, (found, PINNED)
    assert not hits, hits
