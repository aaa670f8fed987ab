"""A CDCL SAT solver (the MiniSat substitute).

The paper: "We use the MiniSat satisfiability solver to solve Boolean
constraints."  This module is a from-scratch conflict-driven clause
learning solver with the standard MiniSat ingredients:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and backjumping,
* VSIDS-style variable activities with exponential decay, branched on
  from an order heap,
* phase saving,
* Luby-sequence restarts,
* failed-assumption cores (MiniSat's ``analyzeFinal``).

A plain DPLL solver (:class:`DpllSolver`) is provided as the experiment
E12 ablation baseline.  Both expose the same interface:
``add_clause`` / ``solve(assumptions)`` / ``model()``.

:class:`CdclSolver` is *incremental* in the MiniSat sense: it may be
kept alive across many ``solve(assumptions=...)`` calls.  Learned
clauses, VSIDS activities, and saved phases all persist between calls
(assumptions are fully undone -- they are replayed as pseudo-decisions
and retracted by the final backjump to level 0), and ``add_clause``
may be called between solves to narrow the formula without rebuilding
watches.  Families of near-identical queries -- the configuration
sweeps of §6.2, unsat-core shrinking -- thus share one clause database
instead of paying a cold solve each.  After an UNSAT answer,
:meth:`CdclSolver.failed_assumptions` names the assumptions the
refutation used, so a shrinking loop can skip every subset that still
contains them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.sat.cnf import CnfFormula

TRUE, FALSE, UNASSIGNED = 1, -1, 0

#: How far past twice the variable count the order heap may grow before
#: it is rebuilt from the unassigned variables.
_ORDER_SLACK = 64


@dataclass
class SolverStats:
    """Counters exposed for the benchmarks."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    restarts: int = 0
    max_learned_length: int = 0
    #: Number of :meth:`solve` calls answered by this solver instance --
    #: values above 1 mean the clause database (and any learned clauses)
    #: were reused incrementally.
    solve_calls: int = 0
    #: Number of independently solved subproblems these counters cover:
    #: 1 for a single solver, the component count when the configuration
    #: pipeline ran component-partitioned and aggregated per-component
    #: solver stats (see :mod:`repro.config.partition`).
    components: int = 1


def _highest_variable(assumptions: Sequence[int]) -> int:
    """The largest variable ``assumptions`` name (0 for none); the
    literal 0 names no variable and is an error."""
    if not assumptions:
        return 0
    if 0 in assumptions:
        raise ConfigurationError("assumption literal 0 names no variable")
    return max(map(abs, assumptions))


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (the MiniSat formulation)."""
    x = i - 1
    size, sequence = 1, 0
    while size < x + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        sequence -= 1
        x %= size
    return 1 << sequence


class CdclSolver:
    """Conflict-driven clause-learning solver over integer literals."""

    def __init__(
        self,
        formula: Optional[CnfFormula] = None,
        *,
        use_vsids: bool = True,
        use_restarts: bool = True,
        restart_base: int = 100,
        max_learned: int = 4000,
    ) -> None:
        self._num_vars = 0
        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        #: Indices of learned clauses with their activity, for reduction.
        self._learned: dict[int, float] = {}
        self._clause_inc = 1.0
        self._max_learned = max_learned
        self._num_problem_clauses = 0
        self._assign: list[int] = [UNASSIGNED]  # 1-indexed by variable
        self._level: list[int] = [0]
        self._reason: list[Optional[int]] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._activity: list[float] = [0.0]
        #: Lazy VSIDS order heap of ``(-activity, var)``: every unassigned
        #: variable has an entry carrying its current activity; entries of
        #: assigned variables and outdated activities are dropped when
        #: they reach the top (see :meth:`_pick_branch_var`).
        self._order: list[tuple[float, int]] = []
        #: Whether the variable has an entry at its current activity in
        #: ``_order``, so unassigning it needs no push.
        self._queued: list[bool] = [False]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._phase: list[bool] = [False]
        self._use_vsids = use_vsids
        self._use_restarts = use_restarts
        self._restart_base = restart_base
        self._ok = True
        self._model: Optional[dict[int, bool]] = None
        self._core: list[int] = []
        self.stats = SolverStats()
        if formula is not None:
            self._ensure_vars(formula.num_vars)
            if formula.is_normalized:
                # Fast path: the formula guarantees no duplicate literals
                # and no tautologies, so skip the per-clause
                # ``sorted(set(...))`` / tautology rebuild and go straight
                # to level-0 reduction and watch setup.
                for clause in formula.clauses():
                    if not self._ok:
                        break
                    self._ingest(list(clause))
            else:
                for clause in formula.clauses():
                    self.add_clause(clause)

    # -- Setup ----------------------------------------------------------

    def _ensure_vars(self, num_vars: int) -> None:
        while self._num_vars < num_vars:
            self._num_vars += 1
            self._assign.append(UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            # Zero activity and the highest index: the last entry in heap
            # order, so appending keeps the heap a heap.
            self._order.append((-0.0, self._num_vars))
            self._queued.append(True)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a problem clause.

        May be called before the first :meth:`solve` *or* between solves
        (incremental strengthening): after a solve the trail holds only
        level-0 assignments, so the clause is reduced against those,
        watches are attached normally, and any implied unit propagates
        immediately.  Only adding clauses *during* a search (never
        observable from outside) is forbidden.
        """
        if self._trail_lim:
            raise ConfigurationError("cannot add clauses mid-search")
        clause = sorted(set(literals), key=abs)
        if not clause:
            self._ok = False
            return
        self._ensure_vars(max(abs(l) for l in clause))
        # Drop tautologies (p and not-p together).
        by_var: dict[int, int] = {}
        for literal in clause:
            if by_var.get(abs(literal), literal) != literal:
                return
            by_var[abs(literal)] = literal
        self._ingest(clause)

    def _ingest(self, clause: list[int]) -> None:
        """Reduce a normalized clause against level 0 and install it."""
        # Remove literals already false at level 0; satisfied clauses drop.
        reduced: list[int] = []
        for literal in clause:
            value = self._value(literal)
            if value == TRUE:
                return
            if value == UNASSIGNED:
                reduced.append(literal)
        if not reduced:
            self._ok = False
            return
        if len(reduced) == 1:
            if not self._enqueue(reduced[0], None):
                self._ok = False
            elif self._propagate() is not None:
                self._ok = False
            return
        self._attach(reduced)

    def _attach(self, clause: list[int]) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches.setdefault(clause[0], []).append(index)
        self._watches.setdefault(clause[1], []).append(index)
        return index

    def _detach(self, index: int) -> None:
        clause = self._clauses[index]
        for literal in clause[:2]:
            watchlist = self._watches.get(literal)
            if watchlist and index in watchlist:
                watchlist.remove(index)
        self._clauses[index] = []

    def _reduce_learned(self) -> None:
        """Forget the less active half of the learned clauses (MiniSat's
        clause-database reduction).  Called at restart points, where only
        level-0 assignments (whose reasons are locked) exist."""
        if len(self._learned) <= self._max_learned:
            return
        locked = {r for r in self._reason if r is not None}
        target = len(self._learned) // 2
        removed = 0
        for index, _activity in sorted(
            self._learned.items(), key=lambda item: item[1]
        ):
            if removed >= target:
                break
            if index in locked or len(self._clauses[index]) <= 2:
                continue
            self._detach(index)
            del self._learned[index]
            removed += 1
        self.stats.deleted_clauses += removed

    # -- Assignment primitives -------------------------------------------

    def _value(self, literal: int) -> int:
        value = self._assign[abs(literal)]
        return value if literal > 0 else -value

    def _enqueue(self, literal: int, reason: Optional[int]) -> bool:
        current = self._value(literal)
        if current == TRUE:
            return True
        if current == FALSE:
            return False
        var = abs(literal)
        self._assign[var] = TRUE if literal > 0 else FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(literal)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        while self._qhead < len(self._trail):
            p = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_literal = -p
            watchlist = self._watches.get(false_literal)
            if not watchlist:
                continue
            kept: list[int] = []
            i = 0
            while i < len(watchlist):
                ci = watchlist[i]
                i += 1
                clause = self._clauses[ci]
                # Normalise: the false literal sits at position 1.
                if clause[0] == false_literal:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._value(clause[0]) == TRUE:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if not self._enqueue(clause[0], ci):
                    # Conflict: keep the untouched tail of the watch list.
                    kept.extend(watchlist[i:])
                    self._watches[false_literal] = kept
                    self._qhead = len(self._trail)
                    return ci
            self._watches[false_literal] = kept
        return None

    # -- Conflict analysis -------------------------------------------------

    def _bump(self, var: int) -> None:
        # Only assigned variables are bumped (analysis walks false and
        # implied literals): any entry the variable has is now outdated,
        # and _backtrack pushes a current one when it unassigns it.
        self._activity[var] += self._var_inc
        self._queued[var] = False
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_order()

    def _rebuild_order(self) -> None:
        """One heap entry per unassigned variable, at its current
        activity: after a rescale, or when outdated entries pile up."""
        activity, assign = self._activity, self._assign
        unassigned = [
            v for v in range(1, self._num_vars + 1) if assign[v] == UNASSIGNED
        ]
        self._order = [(-activity[v], v) for v in unassigned]
        heapify(self._order)
        self._queued = [False] * (self._num_vars + 1)
        for v in unassigned:
            self._queued[v] = True

    def _decay(self) -> None:
        self._var_inc /= self._var_decay

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP analysis: returns (learned clause, backjump level)."""
        learned: list[int] = [0]  # slot 0 becomes the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        p: Optional[int] = None
        index = len(self._trail) - 1
        current_level = len(self._trail_lim)

        while True:
            if conflict in self._learned:
                self._learned[conflict] += self._clause_inc
            clause = self._clauses[conflict]
            start = 0 if p is None else 1
            for q in clause[start:]:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Walk the trail backwards to the next marked literal.
            while not seen[abs(self._trail[index])]:
                index -= 1
            p = self._trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[abs(p)]
            assert reason is not None, "UIP literal must have a reason"
            # Invariant: a reason clause has its propagated literal at
            # slot 0 (enqueue always passes clause[0], and propagation
            # never swaps a true watch away).
            assert self._clauses[reason][0] == p
            conflict = reason

        learned[0] = -p
        if len(learned) == 1:
            backjump = 0
        else:
            # Second-highest decision level in the clause.
            backjump = max(self._level[abs(q)] for q in learned[1:])
            # Move a literal of the backjump level to slot 1 for watching.
            for k in range(1, len(learned)):
                if self._level[abs(learned[k])] == backjump:
                    learned[1], learned[k] = learned[k], learned[1]
                    break
        return learned, backjump

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        order, queued, activity = self._order, self._queued, self._activity
        for literal in reversed(self._trail[limit:]):
            var = abs(literal)
            self._phase[var] = self._assign[var] == TRUE
            self._assign[var] = UNASSIGNED
            self._reason[var] = None
            # Every unassigned variable needs an entry at its current
            # activity; a propagated variable that was never bumped
            # still has one.
            if not queued[var]:
                queued[var] = True
                heappush(order, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)
        # Outdated entries of bumped variables are only dropped when they
        # reach the top; past twice the variable count, start afresh.
        if len(order) > 2 * self._num_vars + _ORDER_SLACK:
            self._rebuild_order()

    # -- Decisions ----------------------------------------------------------

    def _pick_branch_var(self) -> Optional[int]:
        """The unassigned variable of highest activity, ties to the
        lowest index (``(-activity, var)`` orders exactly so); without
        VSIDS, the lowest unassigned index."""
        if len(self._trail) == self._num_vars:
            return None  # everything is assigned
        if not self._use_vsids:
            for var in range(1, self._num_vars + 1):
                if self._assign[var] == UNASSIGNED:
                    return var
            return None
        order, queued = self._order, self._queued
        assign, activity = self._assign, self._activity
        while order:
            negated, var = heappop(order)
            if -negated != activity[var]:
                continue  # outdated: the variable was bumped since
            # The variable's current entry is gone: an assigned one gets
            # a new entry when it is unassigned.
            queued[var] = False
            if assign[var] == UNASSIGNED:
                return var
        return None

    # -- Main loop ------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Search for a model extending ``assumptions``.

        Returns True (model available via :meth:`model`) or False (the
        assumptions the refutation used via :meth:`failed_assumptions`).

        The solver survives the call either way: assumptions are fully
        retracted, learned clauses/activities/phases are kept, and
        further :meth:`solve` or :meth:`add_clause` calls are legal.
        An UNSAT answer under one set of assumptions does not poison
        later calls unless the formula itself is unsatisfiable.

        An assumption on a variable beyond the formula's adds that
        variable, as :meth:`add_clause` does; the literal 0 is an error.
        """
        self._model = None
        self._core = []
        self.stats.solve_calls += 1
        self._ensure_vars(_highest_variable(assumptions))
        if not self._ok:
            return False
        self._backtrack(0)

        conflicts_until_restart = self._restart_limit(1)
        restart_count = 1

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if len(self._trail_lim) <= len(assumptions):
                    # Conflict under the assumptions alone: unsatisfiable.
                    self._core = self._analyze_final(
                        self._clauses[conflict], assumptions
                    )
                    self._backtrack(0)
                    return False
                learned, backjump = self._analyze(conflict)
                # Backjumping below the assumption boundary is fine: the
                # decision loop replays assumptions as pseudo-decisions.
                self._backtrack(backjump)
                self.stats.learned_clauses += 1
                self.stats.max_learned_length = max(
                    self.stats.max_learned_length, len(learned)
                )
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        return False
                else:
                    index = self._attach(learned)
                    self._learned[index] = self._clause_inc
                    self._enqueue(learned[0], index)
                self._decay()
                self._clause_inc /= 0.999
                conflicts_until_restart -= 1
                if self._use_restarts and conflicts_until_restart <= 0:
                    self.stats.restarts += 1
                    restart_count += 1
                    conflicts_until_restart = self._restart_limit(restart_count)
                    self._backtrack(0)
                    self._reduce_learned()
                continue

            # Replay assumptions as pseudo-decisions.
            if len(self._trail_lim) < len(assumptions):
                literal = assumptions[len(self._trail_lim)]
                value = self._value(literal)
                if value == FALSE:
                    self._core = self._analyze_final(
                        (literal,), assumptions, literal
                    )
                    self._backtrack(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if value == UNASSIGNED:
                    self._enqueue(literal, None)
                continue

            var = self._pick_branch_var()
            if var is None:
                self._model = {
                    v: self._assign[v] == TRUE
                    for v in range(1, self._num_vars + 1)
                }
                self._backtrack(0)
                return True
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            literal = var if self._phase[var] else -var
            self._enqueue(literal, None)

    def _analyze_final(
        self,
        false_literals: Sequence[int],
        assumptions: Sequence[int],
        falsified: Optional[int] = None,
    ) -> list[int]:
        """MiniSat's ``analyzeFinal``: the assumptions that force every
        literal of ``false_literals`` false -- plus ``falsified``, the
        assumption they contradict, if any -- in ``assumptions`` order.

        Runs under the assumption boundary, where every decision is an
        assumption: walk the trail back, expanding each marked literal's
        reason clause; a marked literal above level 0 without a reason
        is an assumption the refutation used.  Literals false at level 0
        need no assumption, so a level-0 conflict has an empty core.
        """
        level, reason, clauses = self._level, self._reason, self._clauses
        seen = {abs(q) for q in false_literals if level[abs(q)] > 0}
        used = set() if falsified is None else {falsified}
        if seen:
            trail = self._trail
            for i in range(len(trail) - 1, self._trail_lim[0] - 1, -1):
                literal = trail[i]
                var = abs(literal)
                if var not in seen:
                    continue
                why = reason[var]
                if why is None:
                    used.add(literal)
                    continue
                for q in clauses[why][1:]:
                    if level[abs(q)] > 0:
                        seen.add(abs(q))
        return [literal for literal in assumptions if literal in used]

    def failed_assumptions(self) -> list[int]:
        """After :meth:`solve` answered False: the assumptions of that
        call the refutation depends on, in the order the call listed
        them.  The formula plus these alone is unsatisfiable.

        Empty when the formula is unsatisfiable without assumptions, and
        after a satisfiable answer.
        """
        return list(self._core)

    def _restart_limit(self, count: int) -> int:
        if not self._use_restarts:
            return 1 << 62
        return self._restart_base * _luby(count)

    def model(self) -> dict[int, bool]:
        if self._model is None:
            raise ConfigurationError("no model available (call solve first)")
        return dict(self._model)


class DpllSolver:
    """A plain recursive DPLL solver (no learning) -- the E12 baseline."""

    def __init__(self, formula: Optional[CnfFormula] = None) -> None:
        self._clauses: list[tuple[int, ...]] = []
        self._num_vars = 0
        self._model: Optional[dict[int, bool]] = None
        self.stats = SolverStats()
        if formula is not None:
            self._num_vars = formula.num_vars
            for clause in formula.clauses():
                self.add_clause(clause)

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = tuple(literals)
        if clause:
            self._num_vars = max(self._num_vars, max(abs(l) for l in clause))
        self._clauses.append(clause)

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Assumptions are validated as :meth:`CdclSolver.solve` does."""
        self.stats.solve_calls += 1
        self._num_vars = max(self._num_vars, _highest_variable(assumptions))
        assignment: dict[int, bool] = {}
        for literal in assumptions:
            value = literal > 0
            var = abs(literal)
            if assignment.get(var, value) != value:
                return False
            assignment[var] = value
        result = self._search(assignment)
        if result is None:
            self._model = None
            return False
        for var in range(1, self._num_vars + 1):
            result.setdefault(var, False)
        self._model = result
        return True

    def _search(self, assignment: dict[int, bool]) -> Optional[dict[int, bool]]:
        assignment = dict(assignment)
        # Unit propagation to fixpoint.
        while True:
            unit: Optional[int] = None
            for clause in self._clauses:
                unassigned: list[int] = []
                satisfied = False
                for literal in clause:
                    var = abs(literal)
                    if var in assignment:
                        if assignment[var] == (literal > 0):
                            satisfied = True
                            break
                    else:
                        unassigned.append(literal)
                if satisfied:
                    continue
                if not unassigned:
                    self.stats.conflicts += 1
                    return None
                if len(unassigned) == 1:
                    unit = unassigned[0]
                    break
            if unit is None:
                break
            self.stats.propagations += 1
            assignment[abs(unit)] = unit > 0

        # Pick the first unassigned variable appearing in an unsatisfied clause.
        branch_var: Optional[int] = None
        for clause in self._clauses:
            if any(
                abs(l) in assignment and assignment[abs(l)] == (l > 0)
                for l in clause
            ):
                continue
            for literal in clause:
                if abs(literal) not in assignment:
                    branch_var = abs(literal)
                    break
            if branch_var is not None:
                break
        if branch_var is None:
            return assignment

        self.stats.decisions += 1
        for value in (True, False):
            assignment[branch_var] = value
            result = self._search(assignment)
            if result is not None:
                return result
        del assignment[branch_var]
        return None

    def model(self) -> dict[int, bool]:
        if self._model is None:
            raise ConfigurationError("no model available (call solve first)")
        return dict(self._model)


def solve_formula(
    formula: CnfFormula,
    assumptions: Sequence[int] = (),
    *,
    solver: str = "cdcl",
    use_vsids: bool = True,
) -> Optional[dict]:
    """Solve ``formula``; return the name-decoded model or None if unsat."""
    engine: CdclSolver | DpllSolver
    if solver == "cdcl":
        engine = CdclSolver(formula, use_vsids=use_vsids)
    elif solver == "dpll":
        engine = DpllSolver(formula)
    else:
        raise ConfigurationError(f"unknown solver: {solver!r}")
    if not engine.solve(assumptions):
        return None
    return formula.decode_model(engine.model())
