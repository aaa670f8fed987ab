"""Failed-assumption cores, the VSIDS order heap, and assumption checks.

* After an UNSAT answer, ``CdclSolver.failed_assumptions()`` is a subset
  of that call's assumptions that the formula alone refutes (Hypothesis:
  25 derandomised examples in tier 1, 500 under ``fuzz``), and on small
  formulas CDCL, DPLL and a truth table agree on every answer.
* The order heap branches exactly as the linear activity scan it
  replaced: a subclass keeps the scan, and both must agree on every
  answer, model and statistic.
* Both solvers validate assumption literals the same way.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.sat import CdclSolver, CnfFormula, DpllSolver
from repro.sat.solver import _ORDER_SLACK, UNASSIGNED

SMALL = settings(max_examples=25, deadline=None, derandomize=True)
FUZZ = settings(max_examples=500, deadline=None)


def formula_from(clauses, num_vars):
    f = CnfFormula()
    for _ in range(num_vars):
        f.new_var()
    for clause in clauses:
        f.add_clause(clause)
    return f


# -- Cores: pinned edge cases -------------------------------------------------


class TestFailedAssumptions:
    def test_formula_alone_unsat_at_level_zero(self):
        s = CdclSolver(formula_from([[1], [-1]], 2))
        assert not s.solve([2])
        assert s.failed_assumptions() == []

    def test_formula_alone_unsat_found_in_search(self):
        # PHP(4, 3) over variables 1..12 plus a free variable 13: the
        # refutation never touches the assumption.
        pigeons, holes = 4, 3
        var = {
            (p, h): p * holes + h + 1
            for p in range(pigeons)
            for h in range(holes)
        }
        clauses = [[var[(p, h)] for h in range(holes)] for p in range(pigeons)]
        clauses += [
            [-var[(p1, h)], -var[(p2, h)]]
            for h in range(holes)
            for p1 in range(pigeons)
            for p2 in range(p1 + 1, pigeons)
        ]
        s = CdclSolver(formula_from(clauses, 13))
        assert not s.solve([13])
        assert s.stats.conflicts > 0
        assert s.failed_assumptions() == []

    def test_complementary_assumptions(self):
        s = CdclSolver(formula_from([[1, 2]], 3))
        assert not s.solve([3, 1, -3])
        assert s.failed_assumptions() == [3, -3]

    def test_assumption_false_at_level_zero(self):
        s = CdclSolver(formula_from([[-1], [2, 3]], 3))
        assert not s.solve([2, 1, 3])
        assert s.failed_assumptions() == [1]

    def test_refutation_through_propagation(self):
        # 1 -> 2 -> 3 and 4 -> -3: assuming 1 and 4 conflicts; 5 is idle.
        s = CdclSolver(formula_from([[-1, 2], [-2, 3], [-4, -3]], 5))
        assert not s.solve([5, 4, 1])
        assert s.failed_assumptions() == [4, 1]

    def test_core_after_add_clause(self):
        s = CdclSolver(formula_from([[1, 2, 3]], 4))
        assert s.solve([1, 2])
        assert s.failed_assumptions() == []
        s.add_clause([-1, -2])
        assert not s.solve([1, 4, 2])
        assert s.failed_assumptions() == [1, 2]

    def test_empty_after_a_sat_answer(self):
        s = CdclSolver(formula_from([[-1, -2]], 3))
        assert not s.solve([1, 2])
        assert s.failed_assumptions() == [1, 2]
        assert s.solve([1, 3])
        assert s.failed_assumptions() == []

    def test_each_call_gets_a_fresh_list(self):
        s = CdclSolver(formula_from([[-1, -2]], 2))
        assert not s.solve([1, 2])
        s.failed_assumptions().clear()
        assert s.failed_assumptions() == [1, 2]


# -- Cores: the property ------------------------------------------------------


class TruthTable:
    """Every satisfying assignment of a small formula, as bit masks."""

    def __init__(self, num_vars, clauses):
        self.full = (1 << num_vars) - 1
        self.models = range(1 << num_vars)
        self.extend(clauses)

    def extend(self, clauses):
        """Keep the models that also satisfy ``clauses``."""
        masks = [
            (
                sum(1 << (l - 1) for l in set(clause) if l > 0),
                sum(1 << (-l - 1) for l in set(clause) if l < 0),
            )
            for clause in clauses
        ]
        self.models = [
            m for m in self.models
            if all(m & pos or ~m & self.full & neg for pos, neg in masks)
        ]

    def satisfiable(self, assumptions):
        literals = set(assumptions)
        if any(-l in literals for l in literals):
            return False
        fixed = sum(1 << (abs(l) - 1) for l in literals)
        value = sum(1 << (l - 1) for l in literals if l > 0)
        return any(m & fixed == value for m in self.models)


LITERAL = st.integers(1, 12).flatmap(lambda v: st.sampled_from([v, -v]))
CLAUSES = st.lists(st.lists(LITERAL, min_size=1, max_size=4), max_size=40)
QUERIES = st.lists(
    st.tuples(
        st.lists(st.lists(LITERAL, min_size=1, max_size=3), max_size=2),
        st.lists(LITERAL, max_size=8),
    ),
    min_size=1,
    max_size=4,
)


def check_cores(clauses, queries):
    """One incremental CDCL solver answers every query (clauses added,
    then a solve under assumptions); each answer is checked against a
    fresh DPLL solver and a truth table, and each refutation's core
    against the assumptions and a fresh solver."""
    num_vars = 12
    solver = CdclSolver(formula_from(clauses, num_vars))
    table = TruthTable(num_vars, clauses)
    everything = list(clauses)
    for added, assumptions in queries:
        for clause in added:
            solver.add_clause(clause)
        everything += added
        table.extend(added)
        answer = solver.solve(assumptions)
        dpll = DpllSolver(formula_from(everything, num_vars))
        assert answer == dpll.solve(assumptions) == table.satisfiable(
            assumptions
        )
        core = solver.failed_assumptions()
        if answer:
            assert core == []
            continue
        assert set(core) <= set(assumptions)
        assert core == [l for l in assumptions if l in set(core)]
        fresh = CdclSolver(formula_from(everything, num_vars))
        assert not fresh.solve(core)
        assert not table.satisfiable(core)


@SMALL
@given(CLAUSES, QUERIES)
def test_core_is_a_refuted_subset(clauses, queries):
    check_cores(clauses, queries)


@pytest.mark.fuzz
@FUZZ
@given(CLAUSES, QUERIES)
def test_core_is_a_refuted_subset_fuzz(clauses, queries):
    check_cores(clauses, queries)


# -- The order heap branches as the scan did ---------------------------------


class ScanSolver(CdclSolver):
    """The linear VSIDS scan the order heap replaced, kept as reference."""

    def _pick_branch_var(self):
        best = None
        if self._use_vsids:
            best_activity = -1.0
            for var in range(1, self._num_vars + 1):
                if self._assign[var] == UNASSIGNED:
                    if self._activity[var] > best_activity:
                        best_activity = self._activity[var]
                        best = var
        else:
            for var in range(1, self._num_vars + 1):
                if self._assign[var] == UNASSIGNED:
                    best = var
                    break
        return best


def random_clauses(rng, num_vars, count, width=3):
    return [
        [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), min(width, num_vars))
        ]
        for _ in range(count)
    ]


def assert_heap_covers_unassigned(solver):
    """Every unassigned variable has a heap entry at its activity."""
    current = {
        var
        for negated, var in solver._order
        if -negated == solver._activity[var]
    }
    missing = [
        var
        for var in range(1, solver._num_vars + 1)
        if solver._assign[var] == UNASSIGNED and var not in current
    ]
    assert not missing


def run_both(rng, num_vars, clauses, *, steps, var_inc=None, **options):
    """Drive a heap solver and a scan solver through the same incremental
    session; return the heap solver and the scan solver's stats."""
    solvers = [
        kind(formula_from(clauses, num_vars), **options)
        for kind in (CdclSolver, ScanSolver)
    ]
    if var_inc is not None:
        for solver in solvers:
            solver._var_inc = var_inc
    for _ in range(steps):
        added = random_clauses(rng, num_vars, rng.randint(0, 2))
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 4))
        ]
        answers = []
        for solver in solvers:
            for clause in added:
                solver.add_clause(clause)
            answer = solver.solve(assumptions)
            answers.append(
                (
                    answer,
                    solver.model() if answer else solver.failed_assumptions(),
                    dataclasses.astuple(solver.stats),
                )
            )
        assert answers[0] == answers[1]
        assert_heap_covers_unassigned(solvers[0])
    return solvers[0]


class TestHeapMatchesScan:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"restart_base": 2},
            {"restart_base": 5, "max_learned": 4},
            {"use_restarts": False, "max_learned": 50},
        ],
        ids=["default", "restarts", "reduction", "steady"],
    )
    def test_same_search(self, seed, options):
        rng = random.Random(seed)
        for _ in range(8):
            num_vars = rng.randint(10, 40)
            clauses = random_clauses(rng, num_vars, int(4.3 * num_vars))
            run_both(rng, num_vars, clauses, steps=5, **options)

    def test_conflicts_and_reductions_happen(self):
        rng = random.Random(3)
        clauses = random_clauses(rng, 45, int(4.3 * 45))
        solver = run_both(
            rng, 45, clauses, steps=6, restart_base=2, max_learned=4
        )
        assert solver.stats.conflicts > 50
        assert solver.stats.restarts > 0
        assert solver.stats.deleted_clauses > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_activity_rescale(self, seed):
        rng = random.Random(100 + seed)
        clauses = random_clauses(rng, 40, int(4.3 * 40))
        solver = run_both(rng, 40, clauses, steps=4, var_inc=6e99)
        assert solver.stats.conflicts > 0
        assert solver._var_inc < 1e90  # activities were rescaled

    def test_heap_stays_bounded(self):
        rng = random.Random(11)
        num_vars = 60
        solver = CdclSolver(
            formula_from(random_clauses(rng, num_vars, 200), num_vars)
        )
        bound = 2 * num_vars + _ORDER_SLACK
        for _ in range(300):
            solver.solve(
                [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1), 5)
                ]
            )
            assert len(solver._order) <= bound
            assert_heap_covers_unassigned(solver)
        assert solver.stats.decisions > 1000
        assert solver.stats.conflicts > 100

    def test_variables_added_between_solves_are_branched_on(self):
        s = CdclSolver(formula_from([[1, 2]], 2))
        assert s.solve()
        s.add_clause([3, 4])
        s.add_clause([-3])
        assert s.solve([5])
        model = s.model()
        assert model[4] and not model[3] and model[5]


# -- Assumption literals are validated by both solvers -----------------------


@pytest.mark.parametrize("kind", [CdclSolver, DpllSolver])
class TestAssumptionValidation:
    def test_literal_zero_is_named(self, kind):
        solver = kind(formula_from([[1, 2]], 2))
        with pytest.raises(ConfigurationError, match="literal 0"):
            solver.solve([1, 0])

    def test_variable_beyond_the_formula_is_added(self, kind):
        solver = kind(formula_from([[1, 2]], 2))
        assert solver.solve([5])
        assert solver.model()[5] is True
        assert set(solver.model()) == {1, 2, 3, 4, 5}
        assert solver.solve([-5, -1])
        assert solver.model()[5] is False and solver.model()[2] is True
