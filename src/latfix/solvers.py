"""Fixpoint solvers with termination-enforcing operator selection.

Four engines over one equation-system interface:

  tsrr          structured round-robin iteration over an explicit variable
                list, with a soundness flag steering narrowing vs widening
  tstp          demand-driven two-phase solver: a widening pass over sigma0
                followed by a narrowing pass over sigma1, sharing priorities,
                influence sets, and the work queue
  tsmp          demand-driven mixed-phase solver interleaving both modes per
                variable, guided by a Boolean phase flag
  warrow_solve  fuel-limited baseline on the tsmp skeleton that replaces the
                phase flags with the derived warrowing operator

All solvers assign priorities in discovery order (0, -1, -2, ...), detect
widening/narrowing points dynamically (a variable queried at priority not
below its querier's), and keep a priority queue with set semantics.

Each solver's nested functions reference one another through their closure
cells.  A solver empties those cells when it is done, so that reference
counting frees its state at once instead of leaving it for the cycle
collector, which runs rarely now that evaluation allocates little.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush

from .eqsys import Assignment, EquationSystem, UnknownVariableError, eval_tree
from .lattice import LatticeOps, Value


class SolveStatus(enum.Enum):
    COMPLETED = "completed"
    FUEL_EXHAUSTED = "fuel-exhausted"


@dataclass
class Stats:
    vars_encountered: int = 0
    rhs_evals: int = 0
    widen_apps: int = 0
    narrow_apps: int = 0
    fuel_used: int = 0


@dataclass
class SolverResult:
    assignment: Assignment
    stats: Stats
    status: SolveStatus
    sigma0: Assignment | None = None


class VarBudgetExceeded(RuntimeError):
    def __init__(self, budget):
        super().__init__(f"variable budget of {budget} exceeded")
        self.budget = budget


DEFAULT_VAR_BUDGET = 10**6


def warrow(ops: LatticeOps, a: Value, b: Value) -> Value:
    """Derived operator: narrow when the new value is below the old, else widen."""
    return ops.narrow(a, b) if ops.leq(b, a) else ops.widen(a, b)


class _PrioQueue:
    """Priority queue with set semantics; inserting a present key is a no-op.

    Priorities are unique per solve and a key is in the heap at most once, so
    heap entries never tie on the priority and variables are never compared.
    """

    def __init__(self):
        self._heap = []
        self._members = set()

    def insert(self, prio, var):
        if var in self._members:
            return
        self._members.add(var)
        heappush(self._heap, (prio, var))

    def extract_min(self):
        _, var = heappop(self._heap)
        self._members.discard(var)
        return var

    def min_prio(self):
        return self._heap[0][0]

    def __bool__(self):
        return bool(self._heap)


def tsrr(variables, system: EquationSystem, ops: LatticeOps) -> SolverResult:
    """Round-robin iteration over an ordered, finite variable list.

    The first listed variable has the highest priority; in each sweep the
    lowest-priority variables are (re)stabilized before a higher one is
    re-evaluated.  The flag `b` records that a sound value has been reached
    for the variable under consideration, switching updates from widening to
    narrowing.
    """
    order = list(variables)
    n = len(order)
    sigma = {v: ops.bot for v in order}
    stats = Stats(vars_encountered=n)

    def lookup(z):
        try:
            return sigma[z]
        except KeyError:
            raise UnknownVariableError(z) from None

    def solve(b, i):
        if i <= 0:
            return
        y = order[n - i]
        while True:
            solve(b, i - 1)
            stats.rhs_evals += 1
            tmp = eval_tree(system.rhs(y), lookup)
            b2 = b
            if b:
                tmp = ops.narrow(sigma[y], tmp)
                stats.narrow_apps += 1
            elif ops.leq(tmp, sigma[y]):
                tmp = ops.narrow(sigma[y], tmp)
                stats.narrow_apps += 1
                b2 = True
            else:
                tmp = ops.widen(sigma[y], tmp)
                stats.widen_apps += 1
            if ops.eq(sigma[y], tmp):
                return
            sigma[y] = tmp
            b = b2

    solve(False, n)
    # Break the closure cycle (see the module docstring).
    del solve
    return SolverResult(Assignment(ops, sigma), stats, SolveStatus.COMPLETED)


def tstp(system: EquationSystem, start, ops: LatticeOps, *,
         var_budget: int = DEFAULT_VAR_BUDGET) -> SolverResult:
    """Demand-driven two-phase solving from one start variable.

    Phase 0 runs a local widening iteration into sigma0; phase 1 copies each
    value over on first touch and narrows in sigma1.  Fresh variables met
    during narrowing are first driven through phase 0 so they enter sigma1
    with a sound initial value.

    In phase 1 every value only descends: points apply `narrow`, and other
    variables take the meet of old and new value.  A non-monotonic right-hand
    side may return more than before; overwriting a non-point with that would
    let a point reading it be clipped by `narrow` below the lower
    monotonization f↓.  With descending updates the final assignment is below
    the one each update evaluated on, so f↓(σ_final) ⊑ f↓(σ_eval) ⊑ f(σ_eval),
    and the old value bounds f↓(σ_final) by induction (it starts from the
    post-solution sigma0): sigma1 is a post-solution of f↓.  The paper's
    abstract gives no solver text; this clamp is a stated departure from it.
    """
    sigma0: dict = {}
    sigma1: dict = {}
    dom0: set = set()
    dom1: set = set()
    infl: dict = {}
    point: set = set()
    prio: dict = {}
    queue = _PrioQueue()
    stats = Stats()

    def next_prio():
        return -len(prio)

    def solve0(y):
        if y in dom0:
            return
        if len(dom0) >= var_budget:
            raise VarBudgetExceeded(var_budget)
        dom0.add(y)
        prio[y] = next_prio()
        sigma0[y] = ops.bot
        infl[y] = set()
        do_var0(y)
        iterate0(prio[y])

    def iterate0(n):
        while queue and queue.min_prio() <= n:
            do_var0(queue.extract_min())

    def do_var0(y):
        isp = y in point
        point.discard(y)

        def eval0(z):
            solve0(z)
            if prio[z] >= prio[y]:
                point.add(z)
            infl[z].add(y)
            return sigma0[z]

        stats.rhs_evals += 1
        tmp = eval_tree(system.rhs(y), eval0)
        if isp:
            tmp = ops.widen(sigma0[y], tmp)
            stats.widen_apps += 1
        if ops.eq(sigma0[y], tmp):
            return
        sigma0[y] = tmp
        for z in infl[y]:
            queue.insert(prio[z], z)
        infl[y] = set()

    def solve1(y, n):
        if y in dom1:
            return
        solve0(y)
        dom1.add(y)
        assert dom1 <= dom0
        sigma1[y] = sigma0[y]
        for z in {y} | infl[y]:
            queue.insert(prio[z], z)
        infl[y] = set()
        iterate1(n)

    def iterate1(n):
        while queue and queue.min_prio() <= n:
            y = queue.extract_min()
            solve1(y, prio[y] - 1)
            do_var1(y)

    def do_var1(y):
        isp = y in point
        point.discard(y)

        def eval1(z):
            solve1(z, prio[y] - 1)
            if prio[z] >= prio[y]:
                point.add(z)
            infl[z].add(y)
            return sigma1[z]

        stats.rhs_evals += 1
        tmp = eval_tree(system.rhs(y), eval1)
        if isp:
            tmp = ops.narrow(sigma1[y], tmp)
            stats.narrow_apps += 1
        else:
            tmp = ops.meet(sigma1[y], tmp)
        if ops.eq(sigma1[y], tmp):
            return
        sigma1[y] = tmp
        for z in infl[y]:
            queue.insert(prio[z], z)
        infl[y] = set()

    solve1(start, 0)
    # Break the closure cycle (see the module docstring).
    del next_prio, solve0, iterate0, do_var0, solve1, iterate1, do_var1
    assert not queue
    stats.vars_encountered = len(dom0)
    return SolverResult(
        Assignment(ops, sigma1),
        stats,
        SolveStatus.COMPLETED,
        sigma0=Assignment(ops, sigma0),
    )


def tsmp(system: EquationSystem, start, ops: LatticeOps, *,
         var_budget: int = DEFAULT_VAR_BUDGET) -> SolverResult:
    """Demand-driven mixed-phase solving from one start variable.

    One assignment; per update the flag decides the operator: narrowing once
    a sound value has been observed (new value below old), widening before.
    When an update flips a sub-iteration into narrowing mode, lower-priority
    variables are fully narrowed before the enclosing widening run resumes.

    In narrowing mode every value only descends: points apply `narrow`, and
    other variables take the meet of old and new value, for the reason given
    in `tstp`: a risen non-point would let `narrow` clip a point reading it
    below the lower monotonization, whereas descending updates keep
    f↓(σ_final) ⊑ f↓(σ_eval) ⊑ f(σ_eval) with the old value as bound.  This
    clamp is a stated departure from the paper's solver text.
    """
    sigma: dict = {}
    dom: set = set()
    infl: dict = {}
    point: set = set()
    prio: dict = {}
    queue = _PrioQueue()
    stats = Stats()

    def solve(y):
        if y in dom:
            return
        if len(dom) >= var_budget:
            raise VarBudgetExceeded(var_budget)
        dom.add(y)
        prio[y] = -len(prio)
        sigma[y] = ops.bot
        infl[y] = set()
        b2 = do_var(False, y)
        iterate(b2, prio[y])

    def iterate(b, n):
        while queue and queue.min_prio() <= n:
            y = queue.extract_min()
            b2 = do_var(b, y)
            n2 = prio[y]
            if b != b2 and n > n2:
                iterate(b2, n2)
            else:
                b = b2

    def do_var(b, y):
        isp = y in point
        point.discard(y)

        def eval_(z):
            solve(z)
            if prio[z] >= prio[y]:
                point.add(z)
            infl[z].add(y)
            return sigma[z]

        stats.rhs_evals += 1
        tmp = eval_tree(system.rhs(y), eval_)
        b2 = b
        if isp:
            if b:
                tmp = ops.narrow(sigma[y], tmp)
                stats.narrow_apps += 1
            elif ops.leq(tmp, sigma[y]):
                tmp = ops.narrow(sigma[y], tmp)
                stats.narrow_apps += 1
                b2 = True
            else:
                tmp = ops.widen(sigma[y], tmp)
                stats.widen_apps += 1
        elif b:
            tmp = ops.meet(sigma[y], tmp)
        if ops.eq(sigma[y], tmp):
            # A stable evaluation leaves a value that is sound as it stands.
            return True
        sigma[y] = tmp
        for z in infl[y]:
            queue.insert(prio[z], z)
        infl[y] = set()
        return b2

    solve(start)
    # Break the closure cycle (see the module docstring).
    del solve, iterate, do_var
    assert not queue
    stats.vars_encountered = len(dom)
    return SolverResult(Assignment(ops, sigma), stats, SolveStatus.COMPLETED)


class _OutOfFuel(Exception):
    pass


def warrow_solve(system: EquationSystem, start, ops: LatticeOps, fuel: int, *,
                 var_budget: int = DEFAULT_VAR_BUDGET) -> SolverResult:
    """Warrowing baseline on the tsmp skeleton, limited by an evaluation fuel.

    No phase flags: at widening/narrowing points the update applies the
    warrowing operator to old and new value.  Point membership is sampled
    after the evaluation, so a self-dependency discovered in the current
    round already counts; this is what lets the operator flip between
    widening and narrowing forever on non-monotonic systems, which is the
    divergence this baseline exists to exhibit.  Each right-hand-side
    evaluation burns one unit of fuel; running dry is reported as a status,
    with the partial state reached so far.
    """
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    sigma: dict = {}
    dom: set = set()
    infl: dict = {}
    point: set = set()
    prio: dict = {}
    queue = _PrioQueue()
    stats = Stats()

    def solve(y):
        if y in dom:
            return
        if len(dom) >= var_budget:
            raise VarBudgetExceeded(var_budget)
        dom.add(y)
        prio[y] = -len(prio)
        sigma[y] = ops.bot
        infl[y] = set()
        do_var(y)
        iterate(prio[y])

    def iterate(n):
        while queue and queue.min_prio() <= n:
            do_var(queue.extract_min())

    def do_var(y):
        def eval_(z):
            solve(z)
            if prio[z] >= prio[y]:
                point.add(z)
            infl[z].add(y)
            return sigma[z]

        if stats.fuel_used >= fuel:
            raise _OutOfFuel
        stats.fuel_used += 1
        stats.rhs_evals += 1
        tmp = eval_tree(system.rhs(y), eval_)
        isp = y in point
        point.discard(y)
        if isp:
            if ops.leq(tmp, sigma[y]):
                tmp = ops.narrow(sigma[y], tmp)
                stats.narrow_apps += 1
            else:
                tmp = ops.widen(sigma[y], tmp)
                stats.widen_apps += 1
        if ops.eq(sigma[y], tmp):
            return
        sigma[y] = tmp
        for z in infl[y]:
            queue.insert(prio[z], z)
        infl[y] = set()

    try:
        solve(start)
        status = SolveStatus.COMPLETED
        assert not queue
    except _OutOfFuel:
        status = SolveStatus.FUEL_EXHAUSTED
    # Break the closure cycle (see the module docstring).
    del solve, iterate, do_var
    stats.vars_encountered = len(dom)
    return SolverResult(Assignment(ops, sigma), stats, status)
