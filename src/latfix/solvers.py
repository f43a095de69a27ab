"""Fixpoint solvers with termination-enforcing operator selection.

Four engines over one equation-system interface:

  tsrr          structured round-robin iteration over an explicit variable
                list, with a soundness flag steering narrowing vs widening
  tstp          demand-driven two-phase solver: widening into sigma0, then
                narrowing into sigma1, sharing priorities, influence and queue
  tsmp          demand-driven mixed-phase solver interleaving both modes per
                variable, guided by a Boolean phase flag
  warrow_solve  fuel-limited baseline on the tsmp skeleton that replaces the
                phase flags with the derived warrowing operator

The last three are drivers over one demand-driven core, `_demand`.  It gives
each variable a dense int slot in discovery order, whose negation is its
priority.  Influence sets, points, the work queue and the drivers' assignments
all hold slots, so a look-up hashes its variable once; results are renamed
back to variables.  The core detects widening/narrowing points dynamically (a
variable queried at priority not below its querier's), keeps a priority queue
with set semantics, and applies one update rule.  At points the driver's mode
picks the operator: WIDEN widens (tstp's phase 0); NARROW narrows, and other
variables take the meet, so values only descend (tstp's phase 1, tsmp with its
flag set); WARROW narrows if the new value is below the old one and widens
otherwise (tsmp with its flag unset; narrowing sets the flag).  WARROW_LATE
(warrow_solve) is WARROW with point membership sampled after the evaluation,
so a self-dependency that evaluation finds already counts.  This lets the
operator flip between widening and narrowing forever on non-monotonic systems:
the divergence warrow_solve exists to exhibit, and why it runs on fuel.

A look-up calls the driver's solve only for a variable not yet in the
assignment it reads.  Every solver requests a variable's right-hand side
once per solve: tsrr before it starts, the others at the variable's first
evaluation, after the fuel check, so a run that runs dry on meeting an
unknown variable reports that, not the unknown variable.  `tstp` and `tsmp`
take an optional fuel as well; spending it ends the run with FUEL_EXHAUSTED
and the partial assignments.

tstp's phase 1 reuses results: a NARROW evaluation replays through its look-up
the (variable, value) reads of its variable's last WIDEN evaluation.  A pure
program reading these values makes these look-ups and returns the recorded
result, which is reused; at a mismatch it runs, fed the values already read.

A demand-driven solver empties its nested functions' closure cells when done,
so reference counting, not the rarely run cycle collector, frees its state.
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
_STALE = object()  # no evaluation result to reuse (None can be a value)


class _OutOfFuel(Exception):
    pass


class _PrioQueue:
    """Priority queue with set semantics; inserting a present key is a no-op.

    Priorities are unique per solve and a key is in the heap at most once, so
    heap entries never tie on the priority and keys are never compared.
    """

    def __init__(self):
        self._heap = []
        self._members = set()

    def insert(self, prio, key):
        if key in self._members:
            return
        self._members.add(key)
        heappush(self._heap, (prio, key))

    def extract_min(self):
        _, key = heappop(self._heap)
        self._members.discard(key)
        return key

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
    narrowing.  A variable listed twice is a ValueError.

    The rule runs on a level (a listed variable's index) only while it is
    unsettled.  A level settles when the rule leaves its value unchanged and
    stays settled while nothing its last evaluation read changes (right-hand
    sides are pure, see `eqsys`, so that result is reused), its own value
    stands and so does the operator: the rule narrows whatever the flag if
    the result is below the value, else the flag alone picks, so the level is
    parked by its flag until a sweep flips it.  The sweeps reach level k just
    after every larger level was found stable, and only a change unsettles a
    level; so the next step that can change anything is at the largest
    unsettled level, taken from a max-heap.  With deterministic lattice
    operations, the steps skipped are exactly those that would keep the old
    value: assignments and evaluations, in order, are the full sweeps', and
    only `widen_apps` and `narrow_apps` fall.
    """
    order = list(variables)
    n = len(order)
    index: dict = {}  # variable -> level
    for k, y in enumerate(order):
        if index.setdefault(y, k) != k:
            raise ValueError(f"variable {y!r} is listed twice")
    trees = [system.rhs(y) for y in order]  # each one is evaluated at least once
    sigma = [ops.bot] * n
    last = [_STALE] * n             # level -> its last evaluation's result
    infl = [set() for _ in order]   # level -> levels that read it since it changed
    flags = [False] * n             # level -> `b` of its current sweep
    work = list(range(1 - n, 1))    # unsettled levels, negated: a max-heap
    parked = ([], [])               # flag -> heap of (-level, stamp) settled by it alone
    stamp = [0] * n                 # level -> rule applications, to spot stale entries
    stats = Stats(vars_encountered=n)

    def lookup(z):
        t = index.get(z)
        if t is None:
            raise UnknownVariableError(z)
        infl[t].add(reader)
        return sigma[t]

    while work:
        k = -heappop(work)
        while work and work[0] == -k:  # a level unsettled twice is one step
            heappop(work)
        stamp[k] += 1
        new = last[k]
        if new is _STALE:
            stats.rhs_evals += 1
            reader = k  # the level that lookup records as the reader
            new = last[k] = eval_tree(trees[k], lookup)
        old = sigma[k]
        below = ops.leq(new, old)
        b = flags[k] or below
        if b:
            new = ops.narrow(old, new)
            stats.narrow_apps += 1
        else:
            new = ops.widen(old, new)
            stats.widen_apps += 1
        if ops.eq(old, new):
            if not below:
                heappush(parked[b], (-k, stamp[k]))
            continue
        sigma[k] = new
        for r in infl[k]:
            last[r] = _STALE
            heappush(work, -r)
        infl[k] = set()
        flags[k:] = [b] * (n - k)  # a new sweep of k and every level below it
        heappush(work, -k)  # the rule may move k again, as narrowing after widening
        flipped = parked[not b]
        while flipped and flipped[0][0] < -k:
            j, s = heappop(flipped)
            if stamp[-j] == s:
                heappush(work, j)
    return SolverResult(Assignment(ops, dict(zip(order, sigma))), stats, SolveStatus.COMPLETED)


def _demand(system: EquationSystem, ops: LatticeOps, var_budget: int, fuel=None):
    """The core of tstp, tsmp and warrow_solve (see the module docstring).

    Returns (infl, queue, discover, requeue, reading, do_var, result); the
    drivers own the assignments, keyed by slot.  do_var raises _OutOfFuel once
    `fuel` evaluations are spent; a reused result is none.  A NARROW do_var
    replays t's record with the look-ups' side effects, in the same order.
    """
    if fuel is not None and fuel < 1:
        raise ValueError("fuel must be >= 1")
    slot: dict = {}         # variable -> slot
    variables: list = []    # slot -> variable
    trees: list = []        # slot -> right-hand side, once requested
    infl: list = []         # slot -> slots of its readers
    point: set = set()
    queue = _PrioQueue()
    stats = Stats()
    reader = None  # the slot whose right-hand side is being evaluated
    reads: list = []        # (variable, value) read by the WIDEN evaluations under way
    recorded: dict = {}     # slot -> (reads, result): its record, while replays match

    def discover(y):
        t = len(variables)
        if t >= var_budget:
            raise VarBudgetExceeded(var_budget)
        slot[y] = t
        variables.append(y)
        trees.append(None)
        infl.append(set())
        return t

    def requeue(t):
        for u in infl[t]:
            queue.insert(-u, u)
        infl[t] = set()

    def reading(sigma, solve, record=False):
        # One look-up per assignment; solve(t, n) gets the reader's priority n.
        # Only tstp's phase 0 records its reads.  A flag keeps that in the one
        # body: wrapping the look-up would add a frame per nesting level.
        def lookup(z):
            r = reader
            t = slot.get(z)
            if t is None:
                t = discover(z)
            if t not in sigma:
                solve(t, -r)
            if t <= r:
                point.add(t)
            infl[t].add(r)
            if record:
                reads.append((z, sigma[t]))
            return sigma[t]

        return lookup

    def feeding(fed, lookup):
        # `lookup`, but its first reads get the values of the iterator `fed`.
        return lambda z: d if (d := next(fed, _STALE)) is not _STALE else lookup(z)

    def do_var(t, sigma, mode, lookup):
        """Re-evaluate t; True if stable, narrowed or in NARROW mode (sound)."""
        nonlocal reader
        if mode != WARROW_LATE:
            isp = t in point
            point.discard(t)
        outer, reader = reader, t
        new = _STALE
        if mode == NARROW and t in recorded:  # replay t's record
            seen, new = recorded[t]
            for i, (z, d) in enumerate(seen):
                v = lookup(z)
                if v != d:
                    new = _STALE
                    del recorded[t]
                    lookup = feeding(iter([d for _, d in seen[:i]] + [v]), lookup)
                    break
        if new is _STALE:
            if stats.rhs_evals == fuel:
                raise _OutOfFuel
            stats.rhs_evals += 1
            tree = trees[t]
            if tree is None:
                tree = trees[t] = system.rhs(variables[t])
            if mode == WIDEN:  # only here, so tsmp's evaluations pay nothing for records
                mark = len(reads)
                new = eval_tree(tree, lookup)
                recorded[t] = reads[mark:], new
                del reads[mark:]
            else:
                new = eval_tree(tree, lookup)
        reader = outer
        if mode == WARROW_LATE:
            isp = t in point
            point.discard(t)
        old = sigma[t]
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
        sigma[t] = new
        requeue(t)
        return sound

    def result(completed, sigma, sigma0=None):
        """The driver's result, its assignments keyed by variable again."""
        assert not (completed and queue)
        stats.vars_encountered = len(variables)
        if fuel is not None:
            stats.fuel_used = stats.rhs_evals

        def named(s):
            return Assignment(ops, {variables[t]: d for t, d in s.items()})

        status = SolveStatus.COMPLETED if completed else SolveStatus.FUEL_EXHAUSTED
        return SolverResult(named(sigma), stats, status,
                            None if sigma0 is None else named(sigma0))

    return infl, queue, discover, requeue, reading, do_var, result


def tstp(system: EquationSystem, start, ops: LatticeOps, *,
         var_budget: int = DEFAULT_VAR_BUDGET, fuel: int | None = None) -> SolverResult:
    """Demand-driven two-phase solving from one start variable.

    Phase 0 runs a local widening iteration into sigma0; phase 1 copies each
    value over on first touch and narrows in sigma1.  Fresh variables met
    during narrowing are first driven through phase 0 so they enter sigma1
    with a sound initial value.  Phase 1 reuses phase-0 results while the
    reads match (module docstring); a variable the queue first touches is
    updated twice, as the first update may use up the second's point mark.

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
    infl, queue, discover, requeue, reading, do_var, result = _demand(
        system, ops, var_budget, fuel)
    sigma0: dict = {}
    sigma1: dict = {}

    def solve0(t, _n=None):
        sigma0[t] = ops.bot
        do_var(t, sigma0, WIDEN, eval0)
        while queue and queue.min_prio() <= -t:
            do_var(queue.extract_min(), sigma0, WIDEN, eval0)

    def solve1(t, n):
        # Variables with priority below n (the reader's) are stabilized first.
        if t not in sigma0:
            solve0(t)
        sigma1[t] = sigma0[t]
        infl[t].add(t)  # queue t itself along with its readers
        requeue(t)
        while queue and queue.min_prio() < n:
            u = queue.extract_min()
            if u not in sigma1:
                solve1(u, -u)
            do_var(u, sigma1, NARROW, eval1)

    eval0 = reading(sigma0, solve0, record=True)
    eval1 = reading(sigma1, solve1)
    try:
        solve1(discover(start), 1)
        completed = True
    except _OutOfFuel:
        completed = False
    # Break the closure cycle (see the module docstring).
    del solve0, solve1, eval0, eval1
    return result(completed, sigma1, sigma0)


def tsmp(system: EquationSystem, start, ops: LatticeOps, *,
         var_budget: int = DEFAULT_VAR_BUDGET, fuel: int | None = None) -> SolverResult:
    """Demand-driven mixed-phase solving from one start variable.

    One assignment; per update the flag decides the operator: narrowing once
    a sound value has been observed (new value below old), widening before.
    When an update flips a sub-iteration into narrowing mode, lower-priority
    variables are fully narrowed before the enclosing widening run resumes.

    In narrowing mode every value only descends, as in tstp's phase 1 and for
    the reason given there (points narrow, other variables take the meet): a
    clamp that is a stated departure from the paper's solver text.
    """
    _, queue, discover, _, reading, do_var, result = _demand(
        system, ops, var_budget, fuel)
    sigma: dict = {}

    def solve(t, _n=None):
        sigma[t] = ops.bot
        iterate(do_var(t, sigma, WARROW, lookup), -t)

    def iterate(b, n):
        while queue and queue.min_prio() <= n:
            t = queue.extract_min()
            b2 = do_var(t, sigma, NARROW if b else WARROW, lookup)
            if b != b2 and n > -t:
                iterate(b2, -t)
            else:
                b = b2

    lookup = reading(sigma, solve)
    try:
        solve(discover(start))
        completed = True
    except _OutOfFuel:
        completed = False
    # Break the closure cycle (see the module docstring).
    del solve, iterate, lookup
    return result(completed, sigma)


def warrow_solve(system: EquationSystem, start, ops: LatticeOps, fuel: int, *,
                 var_budget: int = DEFAULT_VAR_BUDGET) -> SolverResult:
    """Warrowing baseline on the tsmp skeleton, limited by an evaluation fuel.

    No phase flags: at widening/narrowing points the update applies the
    warrowing operator to old and new value, with point membership sampled
    after the evaluation (WARROW_LATE, see the module docstring), so it can
    diverge.  Each evaluation burns one unit of fuel; running dry is a status.
    """
    _, queue, discover, _, reading, do_var, result = _demand(
        system, ops, var_budget, fuel)
    sigma: dict = {}

    def solve(t, _n=None):
        sigma[t] = ops.bot
        do_var(t, sigma, WARROW_LATE, lookup)
        while queue and queue.min_prio() <= -t:
            do_var(queue.extract_min(), sigma, WARROW_LATE, lookup)

    lookup = reading(sigma, solve)
    try:
        solve(discover(start))
        completed = True
    except _OutOfFuel:
        completed = False
    # Break the closure cycle (see the module docstring).
    del solve, lookup
    return result(completed, sigma)
