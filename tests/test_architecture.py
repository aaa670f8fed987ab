"""Architecture guards: shapes of ``src/repro`` that a simplification
settled and that no behavioural test would notice coming back.

Each guard pins the parameter lists of one surface by AST, or bans the
names of a path that was deleted, so a change that reintroduces a
switch or a second path fails the tier-1 run.  Paths are resolved from
this file, so the guards hold for the checkout they sit in.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _modules(package: str = ""):
    """``(path, tree)`` for every module under ``src/repro/<package>``."""
    for path in sorted((SRC / package).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


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
    # exactly these parameters, a component entry has no slot for
    # assumptions, and only the MUS in explain.py states facts as
    # assumption literals.
    PINNED = {
        ("engine.py", "ConfigurationEngine.__init__"):
            ["registry", "verify_registry", "partition", "tracer"],
        ("session.py", "ConfigurationSession.__init__"):
            ["registry", "verify_registry", "partition",
             "max_entries", "tracer"],
        ("engine.py", "configure_component"): ["registry", "entry"],
        ("engine.py", "raise_unsatisfiable"):
            ["registry", "partial", "graph"],
        ("explain.py", "explain_unsat"):
            ["registry", "partial", "graph"],
        ("hypergraph.py", "generate_graph"): ["registry", "partial"],
        ("engine.py", "canonical_model"): ["formula", "solver"],
        ("engine.py", "ComponentEntry.__init__"): ["component"],
    }
    EXPLAIN = SRC / "config" / "explain.py"
    hits = []
    for path, tree in _modules():
        for prefix, node in _statements(tree):
            if (isinstance(node, ast.Assign)
                    and prefix == "ComponentEntry."
                    and ast.unparse(node.targets[0]) == "__slots__"):
                slots = ast.literal_eval(node.value)
                if {"keep", "assumptions"} & set(slots):
                    hits.append((path, node.lineno, slots))
        for node in ast.walk(tree):
            if (isinstance(node, ast.keyword)
                    and node.arg == "facts_as_assumptions"
                    and ast.unparse(node.value) != "False"
                    and path != EXPLAIN):
                hits.append((path, node.lineno, ast.unparse(node)))
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
