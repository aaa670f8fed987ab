"""The configuration engine (S4): hypergraph generation, Boolean
constraint generation, SAT solving, port-value propagation, and static
checking of installation specifications."""

from repro.config.constraints import (
    ConstraintStats,
    generate_constraints,
    selected_nodes,
)
from repro.config.engine import (
    ConfigurationEngine,
    ConfigurationResult,
    PhaseTimings,
    SessionCacheInfo,
)
from repro.config.explain import (
    UnsatExplanation,
    explain_message,
    explain_unsat,
)
from repro.config.hypergraph import (
    GraphNode,
    HyperEdge,
    ResourceGraph,
    generate_graph,
    lower_alternatives,
)
from repro.config.propagation import propagate
from repro.config.session import ConfigurationSession, SessionStats
from repro.config.typecheck import check_spec, spec_problems

__all__ = [
    "ConfigurationEngine",
    "ConfigurationResult",
    "ConfigurationSession",
    "ConstraintStats",
    "GraphNode",
    "HyperEdge",
    "PhaseTimings",
    "ResourceGraph",
    "SessionCacheInfo",
    "SessionStats",
    "UnsatExplanation",
    "check_spec",
    "explain_message",
    "explain_unsat",
    "generate_constraints",
    "generate_graph",
    "lower_alternatives",
    "propagate",
    "selected_nodes",
    "spec_problems",
]
