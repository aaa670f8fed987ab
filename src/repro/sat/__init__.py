"""A from-scratch SAT substrate: CNF formulas, cardinality encodings, a
CDCL solver (the paper's MiniSat substitute), and DIMACS I/O."""

from repro.sat.cnf import CnfFormula
from repro.sat.dimacs import dimacs_text, parse_dimacs, read_dimacs, write_dimacs
from repro.sat.encodings import (
    ExactlyOneEncoding,
    at_least_one,
    at_most_one_pairwise,
    at_most_one_sequential,
    exactly_one,
    implies_exactly_one,
)
from repro.sat.solver import CdclSolver, DpllSolver, SolverStats

__all__ = [
    "CnfFormula",
    "CdclSolver",
    "DpllSolver",
    "SolverStats",
    "ExactlyOneEncoding",
    "at_least_one",
    "at_most_one_pairwise",
    "at_most_one_sequential",
    "exactly_one",
    "implies_exactly_one",
    "dimacs_text",
    "parse_dimacs",
    "read_dimacs",
    "write_dimacs",
]
