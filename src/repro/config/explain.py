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
from repro.config.constraints import fact_literals, generate_constraints
from repro.config.hypergraph import ResourceGraph, generate_graph
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
    registry: ResourceTypeRegistry,
    partial: PartialInstallSpec,
    *,
    partition: bool = False,
    graph: Optional[ResourceGraph] = None,
) -> Optional[UnsatExplanation]:
    """Explain why ``partial`` is unsatisfiable; None if it is fine.

    ``graph`` is the hypergraph already generated for ``partial`` (the
    one whose constraints just proved unsatisfiable); without it
    GraphGen runs here, under the default peer policy.

    Runs a deletion-based MUS over the partial-spec facts: drop each
    pinned instance in turn and keep the drop whenever the rest is still
    unsatisfiable.  The survivors are a minimal conflicting subset.

    The sweep runs over a list of components with one incremental solver
    each -- the clause database (and the clauses learned refuting earlier
    subsets) is shared, each candidate subset is just a new assumption
    vector.  With ``partition`` they are the graph's connected
    components: a trial subset is unsatisfiable iff some component's
    slice of it is, and dropping a fact only changes its own component's
    slice, so each trial costs one small solve (plus one re-solve when
    another component already conflicts and the drop is kept).  Without
    it the whole graph is the only component.  Satisfiability decomposes
    over components, so each trial gets the same answer either way and
    the diagnosis is byte-identical.
    """
    from repro.config.partition import partition_graph, whole_graph_component

    if graph is None:
        graph = generate_graph(registry, partial)
    components = (
        partition_graph(graph).components
        if partition
        else [whole_graph_component(graph)]
    )
    solvers: list[CdclSolver] = []
    fact_maps: list[dict[str, int]] = []
    kept: list[list[str]] = []
    component_of: dict[str, int] = {}
    for component in components:
        # The constraint formula *without* the partial-spec unit facts;
        # the facts become assumption literals instead.
        formula, _stats = generate_constraints(
            component.graph, facts_as_assumptions=True
        )
        facts = fact_literals(component.graph, formula)
        solvers.append(CdclSolver(formula))
        fact_maps.append(facts)
        kept.append(sorted(facts))
        for fact_id in facts:
            component_of[fact_id] = component.index

    def solve_component(index: int, fact_ids: list[str]) -> bool:
        return solvers[index].solve(
            [fact_maps[index][iid] for iid in fact_ids]
        )

    satisfiable = [
        solve_component(index, kept[index]) for index in range(len(kept))
    ]
    if all(satisfiable):
        return None

    for candidate in sorted(component_of):
        index = component_of[candidate]
        trial = [iid for iid in kept[index] if iid != candidate]
        if any(
            not ok for other, ok in enumerate(satisfiable) if other != index
        ):
            # Some other component already conflicts: the trial is
            # unsatisfiable no matter what, so the drop is kept; refresh
            # this component's verdict under its reduced fact set.
            kept[index] = trial
            satisfiable[index] = solve_component(index, trial)
        elif not solve_component(index, trial):
            kept[index] = trial  # still unsat without it: drop for good
            satisfiable[index] = False

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
    """The human-readable explanation, or None when satisfiable."""
    graph = generate_graph(registry, partial)
    explanation = explain_unsat(registry, partial, graph=graph)
    if explanation is None:
        return None
    return explanation.message(graph)
