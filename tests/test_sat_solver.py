"""The CDCL solver, cross-checked against the DPLL baseline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.sat import CdclSolver, CnfFormula, DpllSolver


def formula_from(clauses, num_vars):
    f = CnfFormula()
    for _ in range(num_vars):
        f.new_var()
    for clause in clauses:
        f.add_clause(clause)
    return f


def check_model(formula, model):
    for clause in formula.clauses():
        assert any(model[abs(l)] == (l > 0) for l in clause), clause


class TestBasics:
    def test_trivial_sat(self):
        f = formula_from([[1]], 1)
        s = CdclSolver(f)
        assert s.solve()
        assert s.model()[1] is True

    def test_trivial_unsat(self):
        f = formula_from([[1], [-1]], 1)
        assert not CdclSolver(f).solve()

    def test_unit_propagation_chain(self):
        f = formula_from([[1], [-1, 2], [-2, 3], [-3, 4]], 4)
        s = CdclSolver(f)
        assert s.solve()
        assert all(s.model()[v] for v in range(1, 5))
        assert s.stats.decisions == 0  # pure propagation

    def test_requires_search(self):
        f = formula_from([[1, 2], [-1, 2], [1, -2]], 2)
        s = CdclSolver(f)
        assert s.solve()
        check_model(f, s.model())

    def test_model_before_solve_raises(self):
        with pytest.raises(ConfigurationError):
            CdclSolver(formula_from([[1]], 1)).model()

    def test_tautology_dropped(self):
        s = CdclSolver()
        s.add_clause([1, -1])
        s.add_clause([2])
        assert s.solve()

    def test_duplicate_literals_collapsed(self):
        s = CdclSolver()
        s.add_clause([1, 1, 1])
        assert s.solve()
        assert s.model()[1] is True

    def test_empty_clause_is_unsat(self):
        s = CdclSolver()
        s.add_clause([])
        assert not s.solve()

    def test_resolvable_after_unsat_stays_unsat(self):
        f = formula_from([[1], [-1]], 1)
        s = CdclSolver(f)
        assert not s.solve()
        assert not s.solve()  # idempotent


class TestAssumptions:
    def test_assumption_forces_value(self):
        f = formula_from([[1, 2]], 2)
        s = CdclSolver(f)
        assert s.solve([-1])
        assert s.model()[1] is False
        assert s.model()[2] is True

    def test_conflicting_assumptions(self):
        f = formula_from([[1, 2]], 2)
        s = CdclSolver(f)
        assert not s.solve([-1, -2])

    def test_assumption_against_unit(self):
        f = formula_from([[1]], 1)
        s = CdclSolver(f)
        assert not s.solve([-1])

    def test_solver_reusable_after_assumptions(self):
        f = formula_from([[1, 2]], 2)
        s = CdclSolver(f)
        assert not s.solve([-1, -2])
        assert s.solve([])
        assert s.solve([-1])


class TestIncremental:
    """One solver instance answering many queries (MiniSat-style)."""

    @staticmethod
    def relaxed_pigeonhole(holes):
        """PHP(holes+1, holes) with a relaxation literal ``r`` added to
        every hole-exclusivity clause: UNSAT under ``-r``, trivially SAT
        under ``r``."""
        pigeons = holes + 1
        f = CnfFormula()
        r = f.new_var()
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[(p, h)] = f.new_var()
        for p in range(pigeons):
            f.add_clause([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    f.add_clause([r, -var[(p1, h)], -var[(p2, h)]])
        return f, r

    def test_assumptions_fully_undone_between_solves(self):
        f = formula_from([[1, 2], [-2, 3]], 3)
        s = CdclSolver(f)
        assert s.solve([-1])
        assert s.model()[1] is False
        # The opposite assumption must be satisfiable on the same
        # solver: nothing from the first call may stay on the trail.
        assert s.solve([1, -2])
        assert s.model()[1] is True
        assert s.solve([])

    def test_learned_clauses_persist_across_solves(self):
        f, r = self.relaxed_pigeonhole(4)
        s = CdclSolver(f)
        assert not s.solve([-r])
        first_conflicts = s.stats.conflicts
        assert first_conflicts > 0
        assert s.solve([r])  # relaxed: satisfiable
        sat_conflicts = s.stats.conflicts
        assert not s.solve([-r])  # same hard query again
        # The clauses learned during the first refutation are still in
        # the database, so the re-refutation takes fewer new conflicts.
        assert s.stats.conflicts - sat_conflicts < first_conflicts
        assert s.stats.solve_calls == 3

    def test_unsat_under_assumptions_does_not_poison_later_sat(self):
        f, r = self.relaxed_pigeonhole(3)
        s = CdclSolver(f)
        assert not s.solve([-r])
        assert s.solve([])
        check_model(f, s.model())
        assert not s.solve([-r])
        assert s.solve([r])
        check_model(f, s.model())

    def test_add_clause_after_solve_flips_answer(self):
        f = formula_from([[1, 2]], 2)
        s = CdclSolver(f)
        assert s.solve()
        s.add_clause([-1])
        assert s.solve()
        assert s.model()[1] is False
        assert s.model()[2] is True
        s.add_clause([-2])
        assert not s.solve()

    def test_add_clause_after_solve_participates_in_propagation(self):
        # The clause added mid-stream must get watches: its unit
        # consequences have to fire inside later searches.
        f = formula_from([[1, 2], [3, 4]], 4)
        s = CdclSolver(f)
        assert s.solve([-1])
        s.add_clause([-2, 3])
        s.add_clause([-3, -4])
        for assumptions in ([-1], [-1, -4], [2, 3]):
            assert s.solve(assumptions)
            check_model(f, s.model())
            m = s.model()
            assert (not m[2]) or m[3]
            assert (not m[3]) or (not m[4])
        assert not s.solve([2, 4])

    def test_incremental_matches_fresh_solver(self):
        rng = random.Random(7)
        f = CnfFormula()
        for _ in range(12):
            f.new_var()
        s = CdclSolver(f)
        clauses = []
        for _ in range(40):
            clause = rng.sample(range(1, 13), 3)
            clause = [v if rng.random() < 0.5 else -v for v in clause]
            clauses.append(clause)
            s.add_clause(clause)
            fresh = CdclSolver(formula_from(clauses, 12))
            assert s.solve() == fresh.solve()


class TestPigeonhole:
    """PHP(n+1, n) is classically hard for resolution and a good
    stress test for conflict analysis."""

    @staticmethod
    def pigeonhole(holes):
        pigeons = holes + 1
        f = CnfFormula()
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[(p, h)] = f.new_var()
        for p in range(pigeons):
            f.add_clause([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    f.add_clause([-var[(p1, h)], -var[(p2, h)]])
        return f

    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_unsat(self, holes):
        assert not CdclSolver(self.pigeonhole(holes)).solve()

    def test_satisfiable_variant(self):
        # n pigeons in n holes is satisfiable.
        f = CnfFormula()
        n = 4
        var = {}
        for p in range(n):
            for h in range(n):
                var[(p, h)] = f.new_var()
        for p in range(n):
            f.add_clause([var[(p, h)] for h in range(n)])
        for h in range(n):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    f.add_clause([-var[(p1, h)], -var[(p2, h)]])
        s = CdclSolver(f)
        assert s.solve()
        check_model(f, s.model())


class TestAgainstDpll:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_3sat_agreement(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(5, 14)
            m = rng.randint(n, 5 * n)
            clauses = []
            for _ in range(m):
                lits = rng.sample(range(1, n + 1), min(3, n))
                clauses.append(
                    [l if rng.random() < 0.5 else -l for l in lits]
                )
            f = formula_from(clauses, n)
            cdcl = CdclSolver(f.copy())
            dpll = DpllSolver(f.copy())
            sat_cdcl = cdcl.solve()
            sat_dpll = dpll.solve()
            assert sat_cdcl == sat_dpll
            if sat_cdcl:
                check_model(f, cdcl.model())
                check_model(f, dpll.model())

    def test_no_vsids_agreement(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(5, 12)
            clauses = [
                [
                    l if rng.random() < 0.5 else -l
                    for l in rng.sample(range(1, n + 1), 3)
                ]
                for _ in range(3 * n)
            ]
            f = formula_from(clauses, n)
            with_vsids = CdclSolver(f.copy(), use_vsids=True).solve()
            without = CdclSolver(f.copy(), use_vsids=False).solve()
            assert with_vsids == without

    def test_no_restarts_agreement(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(5, 12)
            clauses = [
                [
                    l if rng.random() < 0.5 else -l
                    for l in rng.sample(range(1, n + 1), 3)
                ]
                for _ in range(4 * n)
            ]
            f = formula_from(clauses, n)
            restarting = CdclSolver(f.copy(), use_restarts=True).solve()
            steady = CdclSolver(f.copy(), use_restarts=False).solve()
            assert restarting == steady


class TestClauseReduction:
    def test_reduction_preserves_answers(self):
        """Aggressive clause-database reduction must not change
        satisfiability on random instances."""
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(8, 14)
            clauses = [
                [
                    l if rng.random() < 0.5 else -l
                    for l in rng.sample(range(1, n + 1), 3)
                ]
                for _ in range(4 * n)
            ]
            f = formula_from(clauses, n)
            baseline = CdclSolver(f.copy(), max_learned=1 << 30).solve()
            aggressive = CdclSolver(
                f.copy(), max_learned=4, restart_base=5
            )
            assert aggressive.solve() == baseline

    def test_reduction_fires_on_hard_instance(self):
        f = TestPigeonhole.pigeonhole(6)
        s = CdclSolver(f, max_learned=20, restart_base=5)
        assert not s.solve()
        assert s.stats.deleted_clauses > 0

    def test_binary_learned_clauses_kept(self):
        f = TestPigeonhole.pigeonhole(5)
        s = CdclSolver(f, max_learned=1, restart_base=5)
        assert not s.solve()  # still correct with a 1-clause budget


class TestLuby:
    def test_prefix(self):
        """Regression: an earlier formulation infinite-looped at i=2."""
        from repro.sat.solver import _luby

        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_restarts_fire_and_terminate(self):
        f = TestPigeonhole.pigeonhole(5)
        s = CdclSolver(f, use_restarts=True, restart_base=10)
        assert not s.solve()
        assert s.stats.restarts > 0


class TestStats:
    def test_conflicts_counted(self):
        f = formula_from([[1], [-1]], 1)
        s = CdclSolver(f)
        s.solve()
        # Unsat found at preprocessing: no conflicts counted mid-search,
        # but the solver must report unsat either way.
        assert not s.solve()

    def test_learned_clauses_on_hard_instance(self):
        f = TestPigeonhole.pigeonhole(4)
        s = CdclSolver(f)
        s.solve()
        assert s.stats.conflicts > 0
        assert s.stats.learned_clauses > 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=1, max_value=8).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=30,
    )
)
def test_cdcl_matches_dpll_property(clauses):
    f = formula_from(clauses, 8)
    cdcl = CdclSolver(f.copy())
    dpll = DpllSolver(f.copy())
    assert cdcl.solve() == dpll.solve()
