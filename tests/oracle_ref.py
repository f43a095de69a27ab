"""Brute-force ground truth that the tests check latfix against.

Least solutions by Kleene iteration, lower monotonization by enumerating all
larger assignments, finite concrete systems, and soundness checks through
explicit Galois connections.  Nothing in latfix or its benchmark calls these;
they exist to validate the checks latfix ships (`latfix.oracle`).  The
enumeration helpers below are a copy kept apart from `latfix.oracle`, so the
reference and the checks it validates share no enumeration code.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from latfix.eqsys import (
    Answer,
    Assignment,
    EquationSystem,
    Query,
    Tree,
    eval_tree,
    extend_top,
    tree_dep,
)
from latfix.lattice import LatticeOps, Powerset, Value, make_domain
from latfix.oracle import (
    DEFAULT_EVAL_BUDGET,
    OracleBudgetError,
    OracleError,
    _Budget,
)


def kleene_least_solution(system: EquationSystem, ops: LatticeOps, *,
                          eval_budget: int = DEFAULT_EVAL_BUDGET) -> Assignment:
    """Least solution of a finite monotone system, from bottom upward.

    All right-hand sides are re-evaluated simultaneously per round.  A system
    that fails to stabilize within the theoretical |D|^|Y| bound cannot be
    monotone, which is reported as the likely cause.
    """
    variables = system.all_vars
    if variables is None:
        raise OracleError("kleene iteration needs an explicit variable list")
    if not ops.is_finite:
        raise OracleError("kleene iteration needs a finite lattice")
    nvalues = len(ops.values())
    round_cap = nvalues ** len(variables) + 1
    current = {v: ops.bot for v in variables}
    evals = 0
    for _ in range(round_cap):
        evals += len(variables)
        if evals > eval_budget:
            raise OracleBudgetError("kleene iteration exceeded the evaluation budget")
        updated = {v: eval_tree(system.rhs(v), current) for v in variables}
        if updated == current:
            return Assignment(ops, current)
        current = updated
    raise OracleError(
        "no convergence within the |D|^|Y| bound; a right-hand side is "
        "probably not monotone")


def _base_map(base, variables, ops):
    if isinstance(base, Assignment):
        lookup = extend_top(base)
        return {v: lookup(v) for v in variables}
    return {v: base[v] for v in variables}


def _upsets(base_map, variables, ops):
    all_values = ops.values()
    per_var = []
    for v in variables:
        lo = base_map[v]
        per_var.append([w for w in all_values if ops.leq(lo, w)])
    return per_var


def lower_mono_value(tree: Tree, base, variables, ops: LatticeOps, *,
                     eval_budget: int = DEFAULT_EVAL_BUDGET) -> Value:
    """Greatest monotone under-approximation of the tree, at one point.

    Computes the meet of the tree's value over every total assignment that
    lies above `base` (given as an Assignment, top-extended, or a dict total
    on `variables`), by exhaustive enumeration.
    """
    variables = list(variables)
    base_map = _base_map(base, variables, ops)
    per_var = _upsets(base_map, variables, ops)
    budget = _Budget(eval_budget)
    count = 1
    for options in per_var:
        count *= len(options)
    budget.spend(0)
    if count > budget.limit:
        raise OracleBudgetError(
            f"{count} assignments above the base exceed the budget of "
            f"{budget.limit}; shrink the instance")
    acc = None
    for combo in itertools.product(*per_var):
        budget.spend()
        value = eval_tree(tree, dict(zip(variables, combo)))
        acc = value if acc is None else ops.meet(acc, value)
        if ops.eq(acc, ops.bot):
            break
    return acc


# --- concrete systems and soundness -----------------------------------------

@dataclass
class ConcreteSystem:
    """Finite concrete system over the powerset of a state set.

    Right-hand sides must be monotone; the builders below only combine
    queries, unions, and literals, which keeps that true by construction.
    """

    states: tuple
    variables: tuple
    rhs: dict
    ops: LatticeOps

    def system(self) -> EquationSystem:
        return EquationSystem(self.rhs, all_vars=list(self.variables))


def _union_chain(var_list, seed, k):
    """Query the listed variables in order, folding their values by union."""
    def go(i, acc):
        if i == len(var_list):
            return k(acc)
        return Query(var_list[i], lambda val, i=i, acc=acc: go(i + 1, acc | val))

    return go(0, seed)


def call_loop_system(states: Iterable, transfer: dict) -> ConcreteSystem:
    """Concrete tabulation system for a loop that calls a procedure twice.

    Point u iterates a loop whose body calls procedure v twice in a row; the
    procedure itself loops at point v applying `transfer` to single states.
    Variables are (point, state) pairs holding the states reachable at the
    point when entered in that calling context.
    """
    states = tuple(states)
    ops = make_domain(Powerset(tuple(str(s) for s in states)))

    def norm(s):
        return str(s)

    transfer_n = {norm(s): frozenset(norm(t) for t in ts)
                  for s, ts in transfer.items()}

    def rhs_v(q):
        def finish(seen):
            out = frozenset().union(*(transfer_n[s] for s in sorted(seen))) \
                if seen else frozenset()
            return Answer(out | {q})

        return Query(("v", q), lambda seen: finish(seen))

    def rhs_u(q):
        def second(stage1):
            inner = [("v", s) for s in sorted(stage1)]
            return _union_chain(
                inner, frozenset(), lambda stage2: Answer(stage2 | {q}))

        def first(entry):
            outer = [("v", s) for s in sorted(entry)]
            return _union_chain(outer, frozenset(), second)

        return Query(("u", q), first)

    variables = []
    rhs = {}
    for q in sorted(norm(s) for s in states):
        variables.append(("u", q))
        rhs[("u", q)] = rhs_u(q)
    for q in sorted(norm(s) for s in states):
        variables.append(("v", q))
        rhs[("v", q)] = rhs_v(q)
    return ConcreteSystem(tuple(norm(s) for s in states), tuple(variables), rhs, ops)


@dataclass
class GaloisConnection:
    """Adjoint pair between a concrete and an abstract domain."""

    alpha: Callable[[Value], Value]
    gamma: Callable[[Value], Value]
    conc_ops: LatticeOps
    abs_ops: LatticeOps

    def adjunction_holds(self, rng=None, samples: int = 2000) -> bool:
        """alpha(c) <= d iff c <= gamma(d), exhaustively where possible."""
        conc_values = self.conc_ops.values()
        if self.abs_ops.is_finite:
            abs_values = self.abs_ops.values()
        else:
            rng = rng or random.Random(0)
            abs_values = [self.abs_ops.sample(rng) for _ in range(samples)]
        for c in conc_values:
            for d in abs_values:
                left = self.abs_ops.leq(self.alpha(c), d)
                right = self.conc_ops.leq(c, self.gamma(d))
                if left != right:
                    return False
        return True


def identity_galois(ops: LatticeOps) -> GaloisConnection:
    return GaloisConnection(lambda c: c, lambda d: d, ops, ops)


def powerset_interval_galois(pow_ops: LatticeOps,
                             interval_ops: LatticeOps) -> GaloisConnection:
    """Sets of small integers abstracted by their convex hull."""
    atoms = sorted(pow_ops.atoms, key=int)

    def alpha(c):
        if not c:
            return None
        ints = sorted(int(a) for a in c)
        return (ints[0], ints[-1])

    def gamma(d):
        if d is None:
            return frozenset()
        lo, hi = d
        return frozenset(a for a in atoms if lo <= int(a) <= hi)

    return GaloisConnection(alpha, gamma, pow_ops, interval_ops)


def check_sound(conc: ConcreteSystem, abs_assignment: Assignment,
                galois: GaloisConnection, relation) -> bool:
    """Least concrete solution described by the abstract assignment?

    `relation` pairs concrete with abstract variables; the check is that each
    related concrete value is contained in the concretization of the
    (top-extended) abstract value.
    """
    solution = kleene_least_solution(conc.system(), conc.ops)
    abs_lookup = extend_top(abs_assignment)
    for x, y in relation:
        if not conc.ops.leq(solution[x], galois.gamma(abs_lookup(y))):
            return False
    return True


def check_sigma_closed(conc: ConcreteSystem, solution, subset) -> bool:
    """Does the subset contain all dependencies of its members under `solution`?"""
    subset = set(subset)
    if isinstance(solution, Assignment):
        lookup = solution.values
    else:
        lookup = solution
    for x in subset:
        if not tree_dep(conc.rhs[x], lookup) <= subset:
            return False
    return True
