"""CNF formula construction and name mapping."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sat import CnfFormula


class TestVariables:
    def test_new_var_sequential(self):
        f = CnfFormula()
        assert f.new_var() == 1
        assert f.new_var() == 2
        assert f.num_vars == 2

    def test_named_variables(self):
        f = CnfFormula()
        v = f.var("rsrc(server)")
        assert f.var("rsrc(server)") == v  # memoised
        assert f.name_of(v) == "rsrc(server)"
        assert f.name_of(-v) == "rsrc(server)"

    def test_duplicate_explicit_name_rejected(self):
        f = CnfFormula()
        f.new_var("x")
        with pytest.raises(ConfigurationError):
            f.new_var("x")

    def test_name_of_unnamed(self):
        f = CnfFormula()
        v = f.new_var()
        assert f.name_of(v) is None


class TestClauses:
    def test_add_clause(self):
        f = CnfFormula()
        a, b = f.new_var(), f.new_var()
        f.add_clause([a, -b])
        assert list(f.clauses()) == [(a, -b)]
        assert f.num_clauses == 1

    def test_empty_clause_rejected(self):
        f = CnfFormula()
        with pytest.raises(ConfigurationError):
            f.add_clause([])

    def test_zero_literal_rejected(self):
        f = CnfFormula()
        f.new_var()
        with pytest.raises(ConfigurationError):
            f.add_clause([0])

    def test_out_of_range_literal_rejected(self):
        f = CnfFormula()
        f.new_var()
        with pytest.raises(ConfigurationError):
            f.add_clause([5])

    def test_helpers(self):
        f = CnfFormula()
        a, b, c = f.new_var(), f.new_var(), f.new_var()
        f.add_fact(a)
        f.add_implies(a, b)
        f.add_implies_clause(a, [b, c])
        assert list(f.clauses()) == [(a,), (-a, b), (-a, b, c)]


class TestCopyAndDecode:
    def test_copy_is_independent(self):
        f = CnfFormula()
        a = f.var("a")
        f.add_fact(a)
        g = f.copy()
        g.add_fact(-a)
        assert f.num_clauses == 1
        assert g.num_clauses == 2
        assert g.var("a") == a

    def test_decode_model(self):
        f = CnfFormula()
        a, b = f.var("a"), f.var("b")
        model = {a: True, b: False}
        assert f.decode_model(model) == {"a": True, "b": False}

    def test_decode_missing_defaults_false(self):
        f = CnfFormula()
        f.var("a")
        assert f.decode_model({}) == {"a": False}
