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

The last three are drivers over one demand-driven core, `_demand`.  It gives
priorities in discovery order (0, -1, -2, ...), detects widening/narrowing
points dynamically (a variable queried at priority not below its querier's),
keeps influence sets and a priority queue with set semantics, and applies one
update rule.  At points the driver's mode picks the operator: WIDEN widens
(tstp's phase 0); NARROW narrows, and other variables take the meet, so
values only descend (tstp's phase 1, tsmp with its flag set); WARROW narrows
if the new value is below the old one and widens otherwise (tsmp with its
flag unset; narrowing sets the flag).  WARROW_LATE (warrow_solve) is WARROW
with point membership sampled after the evaluation, so a self-dependency
found by that very evaluation already counts.  This lets the operator flip
between widening and narrowing forever on non-monotonic systems, which is the
divergence warrow_solve exists to exhibit, and why it runs on fuel.

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


WIDEN, NARROW, WARROW, WARROW_LATE = range(4)


class _OutOfFuel(Exception):
    pass


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


def _demand(system: EquationSystem, ops: LatticeOps, var_budget: int, fuel=None):
    """The core of tstp, tsmp and warrow_solve (see the module docstring).

    Returns (prio, infl, queue, stats, discover, requeue, reading, do_var).
    The drivers own the assignments, whose keys are the variables solved into
    them.  Once `fuel` evaluations are spent, do_var raises _OutOfFuel.
    """
    prio: dict = {}
    infl: dict = {}
    point: set = set()
    queue = _PrioQueue()
    stats = Stats()
    reader = None  # the variable whose right-hand side is being evaluated

    def discover(y):
        if len(prio) >= var_budget:
            raise VarBudgetExceeded(var_budget)
        prio[y] = -len(prio)
        infl[y] = set()

    def requeue(y):
        for z in infl[y]:
            queue.insert(prio[z], z)
        infl[y] = set()

    def reading(sigma, solve):
        # One look-up per assignment; solve(z, n) gets the reader's priority n.
        def lookup(z):
            n = prio[reader]
            solve(z, n)
            if prio[z] >= n:
                point.add(z)
            infl[z].add(reader)
            return sigma[z]

        return lookup

    def do_var(y, sigma, mode, lookup):
        """Re-evaluate y; True if stable, narrowed or in NARROW mode (sound)."""
        nonlocal reader
        if mode != WARROW_LATE:
            isp = y in point
            point.discard(y)
        if stats.rhs_evals == fuel:
            raise _OutOfFuel
        stats.rhs_evals += 1
        outer, reader = reader, y
        new = eval_tree(system.rhs(y), lookup)
        reader = outer
        if mode == WARROW_LATE:
            isp = y in point
            point.discard(y)
        old = sigma[y]
        sound = mode == NARROW
        if isp:
            if mode == WIDEN or not (sound or ops.leq(new, old)):
                new = ops.widen(old, new)
                stats.widen_apps += 1
            else:
                new = ops.narrow(old, new)
                stats.narrow_apps += 1
                sound = True
        elif sound:
            new = ops.meet(old, new)
        if ops.eq(old, new):
            # A stable evaluation leaves a value that is sound as it stands.
            return True
        sigma[y] = new
        requeue(y)
        return sound

    return prio, infl, queue, stats, discover, requeue, reading, do_var


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
    prio, infl, queue, stats, discover, requeue, reading, do_var = _demand(
        system, ops, var_budget)
    sigma0: dict = {}
    sigma1: dict = {}

    def solve0(y, _n=None):
        if y in sigma0:
            return
        discover(y)
        sigma0[y] = ops.bot
        do_var(y, sigma0, WIDEN, eval0)
        n = prio[y]
        while queue and queue.min_prio() <= n:
            do_var(queue.extract_min(), sigma0, WIDEN, eval0)

    def solve1(y, n):
        # Variables with priority below n (the reader's) are stabilized first.
        if y in sigma1:
            return
        solve0(y)
        sigma1[y] = sigma0[y]
        infl[y].add(y)  # queue y itself along with its readers
        requeue(y)
        while queue and queue.min_prio() < n:
            z = queue.extract_min()
            solve1(z, prio[z])
            do_var(z, sigma1, NARROW, eval1)

    eval0 = reading(sigma0, solve0)
    eval1 = reading(sigma1, solve1)
    solve1(start, 1)
    # Break the closure cycle (see the module docstring).
    del solve0, solve1, eval0, eval1
    assert not queue
    stats.vars_encountered = len(sigma0)
    return SolverResult(Assignment(ops, sigma1), stats, SolveStatus.COMPLETED,
                        sigma0=Assignment(ops, sigma0))


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
    prio, _, queue, stats, discover, _, reading, do_var = _demand(
        system, ops, var_budget)
    sigma: dict = {}

    def solve(y, _n=None):
        if y in sigma:
            return
        discover(y)
        sigma[y] = ops.bot
        iterate(do_var(y, sigma, WARROW, lookup), prio[y])

    def iterate(b, n):
        while queue and queue.min_prio() <= n:
            y = queue.extract_min()
            b2 = do_var(y, sigma, NARROW if b else WARROW, lookup)
            n2 = prio[y]
            if b != b2 and n > n2:
                iterate(b2, n2)
            else:
                b = b2

    lookup = reading(sigma, solve)
    solve(start)
    # Break the closure cycle (see the module docstring).
    del solve, iterate, lookup
    assert not queue
    stats.vars_encountered = len(sigma)
    return SolverResult(Assignment(ops, sigma), stats, SolveStatus.COMPLETED)


def warrow_solve(system: EquationSystem, start, ops: LatticeOps, fuel: int, *,
                 var_budget: int = DEFAULT_VAR_BUDGET) -> SolverResult:
    """Warrowing baseline on the tsmp skeleton, limited by an evaluation fuel.

    No phase flags: at widening/narrowing points the update applies the
    warrowing operator to old and new value, with point membership sampled
    after the evaluation (WARROW_LATE in the module docstring), which is why
    it can diverge.  Each right-hand-side evaluation burns one unit of fuel;
    running dry is reported as a status, with the partial state reached so
    far.
    """
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    prio, _, queue, stats, discover, _, reading, do_var = _demand(
        system, ops, var_budget, fuel)
    sigma: dict = {}

    def solve(y, _n=None):
        if y in sigma:
            return
        discover(y)
        sigma[y] = ops.bot
        do_var(y, sigma, WARROW_LATE, lookup)
        n = prio[y]
        while queue and queue.min_prio() <= n:
            do_var(queue.extract_min(), sigma, WARROW_LATE, lookup)

    lookup = reading(sigma, solve)
    try:
        solve(start)
        status = SolveStatus.COMPLETED
        assert not queue
    except _OutOfFuel:
        status = SolveStatus.FUEL_EXHAUSTED
    # Break the closure cycle (see the module docstring).
    del solve, lookup
    stats.fuel_used = stats.rhs_evals
    stats.vars_encountered = len(sigma)
    return SolverResult(Assignment(ops, sigma), stats, status)
