"""CNF formulas over named variables.

The configuration engine's atomic propositions are ``rsrc(id)`` facts
about resource instances (S4); this module maps such names to DIMACS-style
integer variables and accumulates clauses.  Literals are non-zero ints:
``v`` asserts variable ``v`` true, ``-v`` false -- the MiniSat convention
the paper's implementation consumed.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional

from repro.core.errors import ConfigurationError


class CnfFormula:
    """A growable CNF formula with a name <-> variable mapping."""

    def __init__(self) -> None:
        self._clauses: list[tuple[int, ...]] = []
        self._name_to_var: dict[Hashable, int] = {}
        self._var_to_name: dict[int, Hashable] = {}
        self._num_vars = 0
        self._normalized = True

    # -- Variables ------------------------------------------------------

    def new_var(self, name: Optional[Hashable] = None) -> int:
        """Allocate a fresh variable, optionally bound to ``name``."""
        if name is not None and name in self._name_to_var:
            raise ConfigurationError(f"variable name already used: {name!r}")
        self._num_vars += 1
        var = self._num_vars
        if name is not None:
            self._name_to_var[name] = var
            self._var_to_name[var] = name
        return var

    def var(self, name: Hashable) -> int:
        """The variable for ``name``, allocating one on first use."""
        existing = self._name_to_var.get(name)
        if existing is not None:
            return existing
        return self.new_var(name)

    def name_of(self, var: int) -> Optional[Hashable]:
        return self._var_to_name.get(abs(var))

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def is_normalized(self) -> bool:
        """True while every clause added so far is free of duplicate
        literals and tautologies (no variable appears twice).

        Solvers use this to skip per-clause normalization when ingesting
        the formula -- the hottest loop of solver construction.
        """
        return self._normalized

    # -- Clauses --------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = tuple(literals)
        if not clause:
            raise ConfigurationError("empty clause added (trivially unsat)")
        seen_vars = set()
        for literal in clause:
            if literal == 0 or abs(literal) > self._num_vars:
                raise ConfigurationError(f"literal out of range: {literal}")
            seen_vars.add(abs(literal))
        if len(seen_vars) != len(clause):
            # Duplicate literal or tautology: still legal, but solvers
            # must normalize this clause themselves.
            self._normalized = False
        self._clauses.append(clause)

    def add_fact(self, literal: int) -> None:
        """Assert a single literal (a unit clause)."""
        self.add_clause([literal])

    def add_implies(self, antecedent: int, consequent: int) -> None:
        """``antecedent -> consequent``."""
        self.add_clause([-antecedent, consequent])

    def add_implies_clause(self, antecedent: int, consequents: Iterable[int]) -> None:
        """``antecedent -> (c1 | c2 | ...)``."""
        self.add_clause([-antecedent, *consequents])

    def clauses(self) -> Iterator[tuple[int, ...]]:
        return iter(self._clauses)

    def copy(self) -> "CnfFormula":
        return self.without_first(0)

    def without_first(self, count: int) -> "CnfFormula":
        """A copy that leaves out the first ``count`` clauses."""
        clone = CnfFormula()
        clone._clauses = self._clauses[count:]
        clone._name_to_var = dict(self._name_to_var)
        clone._var_to_name = dict(self._var_to_name)
        clone._num_vars = self._num_vars
        clone._normalized = self._normalized
        return clone

    def decode_model(self, model: dict[int, bool]) -> dict[Hashable, bool]:
        """Translate a variable-indexed model back to names."""
        return {
            name: model.get(var, False)
            for name, var in self._name_to_var.items()
        }

    def __str__(self) -> str:
        return f"CnfFormula({self._num_vars} vars, {len(self._clauses)} clauses)"
