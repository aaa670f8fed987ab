"""E12 -- solver and encoding ablations (DESIGN.md section 6).

The paper used MiniSat; our substitute is the from-scratch CDCL solver.
These benchmarks measure (a) configuration-engine scaling as the
resource library grows, (b) CDCL vs plain DPLL on the generated
constraint shapes, and (c) the pairwise vs sequential exactly-one
encodings.
"""

from __future__ import annotations

import time

import pytest

from repro.config import (
    ConfigurationEngine,
    generate_constraints,
    generate_graph,
)
from repro.core import (
    PartialInstallSpec,
    PartialInstance,
    ResourceTypeRegistry,
    as_key,
    define,
)
from repro.sat import (
    CdclSolver,
    CnfFormula,
    DpllSolver,
    ExactlyOneEncoding,
    exactly_one,
)


def synthetic_library(layers: int, width: int) -> ResourceTypeRegistry:
    """A layered library: ``layers`` levels, each with ``width`` variants
    under an abstract type; every level's consumer depends on the level
    below through the abstract type (so every dependency is a
    width-way disjunction after frontier lowering)."""
    registry = ResourceTypeRegistry()
    registry.register(define("M", "1", driver="machine").build())
    for layer in range(layers):
        abstract = define(f"L{layer}", abstract=True).inside("M 1")
        if layer > 0:
            abstract.env(f"L{layer - 1}")
        registry.register(abstract.build())
        for variant in range(width):
            registry.register(
                define(f"L{layer}V{variant}", "1",
                       extends=f"L{layer}").build()
            )
    return registry


def top_partial(layers: int) -> PartialInstallSpec:
    return PartialInstallSpec(
        [
            PartialInstance("m", as_key("M 1")),
            PartialInstance(
                "top", as_key(f"L{layers - 1}V0 1"), inside_id="m"
            ),
        ]
    )


@pytest.mark.parametrize("layers", [2, 4, 8])
def test_e12_engine_scaling_with_library_depth(benchmark, layers):
    registry = synthetic_library(layers, width=3)
    engine = ConfigurationEngine(registry)
    partial = top_partial(layers)
    result = benchmark(engine.configure, partial)
    benchmark.extra_info.update(
        {
            "layers": layers,
            "types": len(registry),
            "graph_nodes": len(result.graph),
            "variables": result.constraint_stats.variables,
            "clauses": result.constraint_stats.clauses,
        }
    )
    assert "top" in result.spec


@pytest.mark.parametrize("width", [2, 4, 8])
def test_e12_engine_scaling_with_disjunction_width(benchmark, width):
    registry = synthetic_library(layers=4, width=width)
    engine = ConfigurationEngine(registry)
    partial = top_partial(4)
    result = benchmark(engine.configure, partial)
    benchmark.extra_info.update(
        {
            "width": width,
            "graph_nodes": len(result.graph),
            "clauses": result.constraint_stats.clauses,
        }
    )
    assert "top" in result.spec


def test_e12_cdcl_vs_dpll_on_engage_constraints(benchmark):
    """Both solvers handle Engage's constraint shapes; CDCL's learned
    clauses are unnecessary on these easy instances, so the comparison
    is about constant factors, not asymptotics."""
    registry = synthetic_library(layers=6, width=4)
    graph = generate_graph(registry, top_partial(6))
    formula, _ = generate_constraints(graph)

    def solve_both():
        cdcl = CdclSolver(formula.copy())
        t0 = time.perf_counter()
        sat_cdcl = cdcl.solve()
        cdcl_seconds = time.perf_counter() - t0

        dpll = DpllSolver(formula.copy())
        t0 = time.perf_counter()
        sat_dpll = dpll.solve()
        dpll_seconds = time.perf_counter() - t0
        assert sat_cdcl == sat_dpll is True
        return cdcl_seconds, dpll_seconds, cdcl.stats

    cdcl_seconds, dpll_seconds, stats = benchmark.pedantic(
        solve_both, rounds=3, iterations=1
    )
    benchmark.extra_info.update(
        {
            "cdcl_seconds": round(cdcl_seconds, 5),
            "dpll_seconds": round(dpll_seconds, 5),
            "cdcl_conflicts": stats.conflicts,
            "cdcl_propagations": stats.propagations,
        }
    )


def test_e12_vsids_ablation(benchmark):
    """VSIDS vs static variable order on a hard unsat instance (PHP):
    both are correct; the decision counts quantify the heuristic's
    value on structured instances."""
    from repro.sat import CnfFormula

    def pigeonhole(holes):
        pigeons = holes + 1
        formula = CnfFormula()
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[(p, h)] = formula.new_var()
        for p in range(pigeons):
            formula.add_clause([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    formula.add_clause([-var[(p1, h)], -var[(p2, h)]])
        return formula

    def both():
        formula = pigeonhole(6)
        with_vsids = CdclSolver(formula.copy(), use_vsids=True)
        assert not with_vsids.solve()
        static = CdclSolver(formula.copy(), use_vsids=False)
        assert not static.solve()
        return with_vsids.stats, static.stats

    vsids_stats, static_stats = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "vsids_conflicts": vsids_stats.conflicts,
            "static_conflicts": static_stats.conflicts,
            "vsids_decisions": vsids_stats.decisions,
            "static_decisions": static_stats.decisions,
        }
    )


@pytest.mark.parametrize("n", [10, 40, 120])
def test_e12_exactly_one_encoding_sizes(benchmark, n):
    """Pairwise is O(n^2) clauses; sequential is O(n) with O(n) auxiliary
    variables -- the classic trade-off, measured on our encodings."""

    def build_both():
        pairwise = CnfFormula()
        xs = [pairwise.new_var() for _ in range(n)]
        exactly_one(pairwise, xs, ExactlyOneEncoding.PAIRWISE)

        sequential = CnfFormula()
        ys = [sequential.new_var() for _ in range(n)]
        exactly_one(sequential, ys, ExactlyOneEncoding.SEQUENTIAL)
        return pairwise, sequential

    pairwise, sequential = benchmark(build_both)
    benchmark.extra_info.update(
        {
            "n": n,
            "pairwise_clauses": pairwise.num_clauses,
            "sequential_clauses": sequential.num_clauses,
            "sequential_aux_vars": sequential.num_vars - n,
        }
    )
    assert pairwise.num_clauses == 1 + n * (n - 1) // 2
    assert sequential.num_clauses < pairwise.num_clauses
    # Both remain satisfiable with exactly one true.
    solver = CdclSolver(sequential)
    assert solver.solve()


def test_e12_encodings_agree_on_engage_constraints(benchmark):
    registry = synthetic_library(layers=5, width=5)
    graph = generate_graph(registry, top_partial(5))

    def compare():
        pairwise, stats_p = generate_constraints(
            graph, ExactlyOneEncoding.PAIRWISE
        )
        sequential, stats_s = generate_constraints(
            graph, ExactlyOneEncoding.SEQUENTIAL
        )
        assert CdclSolver(pairwise).solve() == CdclSolver(sequential).solve()
        return stats_p, stats_s

    stats_p, stats_s = benchmark(compare)
    benchmark.extra_info.update(
        {
            "pairwise_clauses": stats_p.clauses,
            "sequential_clauses": stats_s.clauses,
            "pairwise_vars": stats_p.variables,
            "sequential_vars": stats_s.variables,
        }
    )
