"""Unsatisfiability explanation.

Theorem 1 tells the user *whether* a partial installation specification
extends to a full one; when it does not, a bare "unsatisfiable" is a
poor error message.  This module computes a *minimal conflicting subset*
of the user's pinned instances -- a deletion-based minimal unsatisfiable
subset (MUS) over the partial-spec facts, using solver assumptions --
so errors read like "pinning both 'web' (Gunicorn 0.13) and 'opt0'
(Apache-HTTPD 2.2) violates the exactly-one web-server dependency of
'app'" rather than "no".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.instances import PartialInstallSpec
from repro.core.registry import ResourceTypeRegistry
from repro.config.constraints import assumption_form, generate_constraints
from repro.config.engine import ComponentEntry
from repro.config.hypergraph import ResourceGraph, generate_graph
from repro.config.partition import partition_graph
from repro.sat.solver import CdclSolver


@dataclass
class UnsatExplanation:
    """Why a partial installation specification has no extension."""

    #: A minimal set of pinned instance ids that cannot coexist.
    conflicting_ids: list[str]
    #: Hyperedges connecting the conflict (source id, target ids).
    related_edges: list[tuple[str, tuple[str, ...]]] = field(
        default_factory=list
    )

    def message(self, graph: Optional[ResourceGraph] = None) -> str:
        if not self.conflicting_ids:
            return (
                "the resource library itself admits no deployment of the "
                "requested components"
            )
        if graph is not None:
            named = [
                f"{iid!r} ({graph.node(iid).key})"
                for iid in self.conflicting_ids
            ]
        else:
            named = [repr(iid) for iid in self.conflicting_ids]
        lines = [
            "these pinned instances cannot be deployed together: "
            + ", ".join(named)
        ]
        for source, targets in self.related_edges:
            lines.append(
                f"  {source!r} requires exactly one of {list(targets)}"
            )
        return "\n".join(lines)


def explain_unsat(
    graph: ResourceGraph, entries: list[ComponentEntry]
) -> Optional[UnsatExplanation]:
    """Explain why ``graph`` is unsatisfiable; None if it is fine.

    ``entries`` are the components of ``graph`` a configure call ran --
    the whole graph on the monolithic path, its connected components on
    the partitioned one -- and the diagnosis reuses each one's encoding:
    the MUS solver is built from the entry's formula without its unit
    facts (:func:`~repro.config.constraints.assumption_form`).  An entry
    the call did not reach is encoded here, the one way configure does,
    and the encoding is not left on it.

    Runs a deletion-based MUS over the partial-spec facts: visit each
    pinned instance in id order and drop it whenever the rest is still
    unsatisfiable.  The survivors are a minimal conflicting subset.

    The sweep runs with one incremental solver per component -- the
    clause database (and the clauses learned refuting earlier subsets)
    is shared, each candidate subset is just a new assumption vector.
    A trial subset is unsatisfiable iff some component's slice of it
    is, and dropping a fact only changes its own component's slice.

    Most trials need no solve.  Each unsatisfiable component keeps the
    core ``C`` of its latest refutation (the facts
    :meth:`~repro.sat.solver.CdclSolver.failed_assumptions` names), and
    ``C ⊆ kept`` always holds: a skip drops a fact outside ``C``, and
    every refutation replaces ``C`` with a core of the subset it kept.
    So a candidate outside ``C`` is dropped unsolved -- the rest still
    contains ``C`` and is still unsatisfiable.  When another component
    already conflicts every drop is kept, and only a component whose
    core loses a member is re-solved (a satisfiable slice stays so with
    fewer facts).  Every keep/drop decision is thus the semantic answer
    a solve of that trial would give, which makes the survivors the
    ones a solve-every-candidate sweep keeps: a diagnosis costs about
    one solve per core member rather than one per pinned instance, and
    its text is the same byte for byte.  Satisfiability decomposes over
    components, so each trial also gets the answer a whole-graph solve
    would give, and the diagnosis is the same however ``graph`` was
    split into ``entries``.
    """
    solvers: list[CdclSolver] = []
    # Per component, the facts still kept (id -> assumption literal, in
    # id order) and the id each assumption literal asserts.
    kept: list[dict[str, int]] = []
    fact_ids: list[dict[int, str]] = []
    component_of: dict[str, int] = {}
    for index, entry in enumerate(entries):
        part = entry.component.graph
        formula = entry.formula
        if formula is None:
            formula, _stats = generate_constraints(part)
        formula, facts = assumption_form(part, formula)
        solvers.append(CdclSolver(formula))
        kept.append({iid: facts[iid] for iid in sorted(facts)})
        fact_ids.append({literal: iid for iid, literal in facts.items()})
        for fact_id in facts:
            component_of[fact_id] = index

    def refute(
        index: int, without: Optional[str] = None
    ) -> Optional[set[str]]:
        """Solve component ``index`` on its kept facts less ``without``:
        None if satisfiable, else the ids of the refutation's core."""
        solver = solvers[index]
        if solver.solve(
            [literal for iid, literal in kept[index].items() if iid != without]
        ):
            return None
        names = fact_ids[index]
        return {names[literal] for literal in solver.failed_assumptions()}

    cores = [refute(index) for index in range(len(kept))]
    conflicted = sum(core is not None for core in cores)
    if not conflicted:
        return None

    for candidate in sorted(component_of):
        index = component_of[candidate]
        core = cores[index]
        if core is not None and candidate not in core:
            pass  # the rest still contains the core: unsatisfiable
        elif conflicted > (core is not None):
            # Another component conflicts, so the drop is kept whatever
            # this one says; only a core that loses a member can turn
            # this component's verdict.
            if core is not None:
                cores[index] = refute(index, candidate)
                conflicted -= cores[index] is None
        else:
            trial = refute(index, candidate)
            if trial is None:
                continue  # satisfiable without it: the candidate stays
            cores[index] = trial
        del kept[index][candidate]

    return _finish(graph, sorted(iid for ids in kept for iid in ids))


def _finish(graph: ResourceGraph, core: list[str]) -> UnsatExplanation:
    related: list[tuple[str, tuple[str, ...]]] = []
    core_set = set(core)
    for edge in graph.edges():
        if len(edge.targets) > 1 and core_set & set(edge.targets):
            related.append((edge.source_id, edge.targets))
    return UnsatExplanation(conflicting_ids=core, related_edges=related)


def explain_message(
    registry: ResourceTypeRegistry, partial: PartialInstallSpec
) -> Optional[str]:
    """The human-readable explanation, or None when satisfiable: the
    sweep over ``partial``'s connected components."""
    graph = generate_graph(registry, partial)
    entries = [
        ComponentEntry(component)
        for component in partition_graph(graph).components
    ]
    explanation = explain_unsat(graph, entries)
    if explanation is None:
        return None
    return explanation.message(graph)
