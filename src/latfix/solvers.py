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

The last three are entry points to one demand-driven core, `_demand`.  It gives
each variable a dense int slot in discovery order, whose negation is its
priority; influence sets, points, the queue and the assignments are indexed
by slot.  The core detects widening/narrowing points dynamically (a variable
queried at priority not below its querier's), keeps a priority queue with set
semantics, and applies one update rule.  At points the mode picks the
operator: WIDEN widens (tstp's phase 0); NARROW narrows, and other variables
take the meet, so values only descend (tstp's phase 1, tsmp with its flag
set); WARROW narrows if the new value is below the old one and widens
otherwise (tsmp with its flag unset; narrowing sets the flag).  WARROW_LATE
(warrow_solve) is WARROW with point membership sampled after the evaluation,
so a self-dependency that evaluation finds already counts.  This lets the
operator flip between widening and narrowing forever on non-monotonic systems:
the divergence warrow_solve exists to exhibit, and why it runs on fuel.

The core is one loop over an explicit frame stack, a flat list in which each
frame ends in its kind, so no input is too deep for it.  It runs programs
itself, with `eval_tree`'s instructions in the same operand and query order,
and serves a look-up of a variable already in the assignment read in place:
slot (one hash), point mark, influence entry, value.  A first touch suspends
the evaluation as a frame (reader, mode, point flag, pc, pending slot, bases
in the shared value stack and record list, SUSPENDED), and solves the
variable above it; once that solve's frames are gone, the look-up completes
with the saved slot.  The frame needs no code, which is the reader's own
right-hand side, and no stack top, which the value read replaces.  A hand-built tree runs as
a private program that queries the `Query` node held as its context.  Loop
frames (lo, pending, mode) re-evaluate queued slots of at least lo: tstp's
phase 0 and warrow_solve loop per first touch; in phase 1 an ENTER frame
waits for a variable's phase-0 solve, copies its value into sigma1, queues
it with its readers and turns into the NARROW loop, and a loop that pops a
slot not yet in sigma1 enters it (pending) and narrows it once that returns;
tsmp's loop mode is its flag: a WARROW loop whose evaluation (pending) narrows
nests a NARROW loop from pending's slot, and a NARROW loop nests none.

Every solver requests a variable's right-hand side once per solve: tsrr
before it starts, the others at the variable's first evaluation, after the
fuel check, so a run that runs dry on meeting an unknown variable reports
that, not the unknown variable.  `tstp` and `tsmp` take an optional fuel as
well; spending it ends the run with FUEL_EXHAUSTED and the partial
assignments.

tstp's phase 1 reuses results: a WIDEN evaluation records its reads as data,
one flat list of variable and value per read, in order, ending in its result.
A NARROW evaluation of a variable with a record replays it in a loop of its
own, which per read does what a program's look-up does (slot, by one hash of
the recorded variable; sigma1 value; point mark; influence entry) and then
compares the value with the recorded one.  A variable not yet in sigma1 has no
value to match, and suspends the replay as it would a program, as the frame
(reader, point flag, record, position, REPLAYING); the resumed replay looks
that read up afresh.  If every value is as recorded, the recorded result is
reused, which is no evaluation.  At the first that is not, the program runs
from its start, through the same fuel check and count as a fresh evaluation,
fed the values read so far: a value read before the replay was suspended may
have changed since, and the program must see the one read.  The record stays,
but is never reused whole: its values are final phase-0 values and sigma1
only descends from them, so a later replay stops at that read or before it.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

from .eqsys import (OP_CALL, OP_CELL, OP_CTX, OP_EQ, OP_GET, OP_JMP, OP_JOIN, OP_LEQ,
                    OP_LIT, OP_MEET, Assignment, EquationSystem, Program, Query,
                    UnknownVariableError, eval_tree)
from .lattice import LatticeOps


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


# Modes of an evaluation or a loop frame, up to ENTER; above them, the last
# cells of a suspended program's frame and of a suspended replay's.  `_demand`
# reads them, and the core's instructions below, as locals without the `_`.
_WIDEN, _NARROW, _WARROW, _WARROW_LATE, _ENTER, _SUSPENDED, _REPLAYING = range(7)
_STALE = object()  # no evaluation result to reuse (None can be a value)
_UNSET = object()  # outside the assignment

# The core's own instructions, below `eqsys`'s opcodes: a hand-built tree's
# query and continuation.
_TREE, _CONT = -1, -2
_TREE_CODE = (OP_CTX, _TREE, _CONT)  # run with the tree as its context


class _OutOfFuel(Exception):
    pass


def _unhashed(var):
    """The slot look-up while a rerun is fed: it hashes nothing and finds nothing."""
    return None


class _PrioQueue:
    """Queue of slots, highest first, with set semantics: inserting a present
    slot is a no-op.  The heap holds negated slots; the demand-driven core pops
    `_heap` itself.
    """

    def __init__(self):
        self._heap = []
        self._members = set()

    def insert(self, slot):
        if slot in self._members:
            return
        self._members.add(slot)
        heappush(self._heap, -slot)


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

    A change at level k starts a new sweep of k and every larger level with
    its flag.  The sweeps in force form a stack of rising start levels, and a
    level's flag is that of the last sweep starting at or below it.
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
    sweeps = [0]                    # levels where a sweep started, rising
    sweep_flags = [False]           # sweep -> its `b`, the flag of the levels it covers
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
        b = sweep_flags[bisect_right(sweeps, k) - 1] or below
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
        i = bisect_left(sweeps, k)  # a new sweep of k and every level below it
        del sweeps[i:], sweep_flags[i:]
        sweeps.append(k)
        sweep_flags.append(b)
        heappush(work, -k)  # the rule may move k again, as narrowing after widening
        flipped = parked[not b]
        while flipped and flipped[0][0] < -k:
            j, s = heappop(flipped)
            if stamp[-j] == s:
                heappush(work, j)
    return SolverResult(Assignment(ops, dict(zip(order, sigma))), stats, SolveStatus.COMPLETED)


def _demand(system: EquationSystem, start, ops: LatticeOps, first: int,
            var_budget: int, fuel) -> SolverResult:
    """tstp (first=WIDEN), tsmp (WARROW) or warrow_solve (WARROW_LATE); see
    the module docstring.  `first` is the mode of a first touch's evaluation."""
    WIDEN, NARROW, WARROW, WARROW_LATE, ENTER, SUSPENDED, REPLAYING, UNSET = (
        _WIDEN, _NARROW, _WARROW, _WARROW_LATE, _ENTER, _SUSPENDED, _REPLAYING, _UNSET)
    GET, LIT, JOIN, MEET, EQ, LEQ, JMP, CELL, CTX, CALL, TREE = (
        OP_GET, OP_LIT, OP_JOIN, OP_MEET, OP_EQ, OP_LEQ, OP_JMP, OP_CELL, OP_CTX, OP_CALL,
        _TREE)
    if fuel is not None and fuel < 1:
        raise ValueError("fuel must be >= 1")
    if var_budget < 1:
        raise VarBudgetExceeded(var_budget)
    two_phase = first == WIDEN
    flips = first == WARROW
    join, meet, eq, leq = ops.join, ops.meet, ops.eq, ops.leq
    widen, narrow, bot = ops.widen, ops.narrow, ops.bot
    system_rhs = system.rhs
    slot = {start: 0}           # variable -> slot
    slot_get = slot.get
    variables = [start]         # slot -> variable
    codes = [None]              # slot -> code of its right-hand side, once requested
    ctxs = [None]               # slot -> the context it runs with
    infl = [None]               # slot -> slots of its readers, once one registers
    point = bytearray(1)        # slot -> 1 while it is marked as a point
    sigma0 = [UNSET]            # slot -> value, UNSET outside the assignment
    sigma1 = [UNSET] if two_phase else sigma0  # tsmp and warrow_solve have one
    entered = []                # slots in the order they entered sigma1
    recorded = {}               # slot -> record of its last WIDEN evaluation
    queue = _PrioQueue()
    insert, heap, members = queue.insert, queue._heap, queue._members
    evals = widen_apps = narrow_apps = 0
    frames = []                 # loop frames and suspended evaluations (module docstring)
    stack = []                  # the value stacks of every evaluation under way
    push, pop = stack.append, stack.pop
    reads = []                  # the records of the WIDEN evaluations under way
    nxt = ret = fed = None
    isp = 0
    # Solve the start as tstp's phase 1 does for a reader at priority 1.
    u, r, mode = 0, -1, NARROW
    try:
        while True:
            if u is not None:  # solve u, first touched by r's evaluation in `mode`
                if two_phase and mode == NARROW:
                    frames += r + 1, u, ENTER
                if sigma0[u] is UNSET:
                    sigma0[u] = bot
                    frames += u, u if flips else None, first
                    nxt, nmode = u, first
            # A loop frame (lo, pending, mode) re-evaluates queued slots of at least lo.
            while nxt is None and frames and (fmode := frames[-1]) <= ENTER:
                lo, pending = frames[-3], frames[-2]
                if fmode == ENTER:  # pending's phase-0 solve returned
                    sigma1[pending] = sigma0[pending]
                    entered.append(pending)
                    s = infl[pending]
                    if s is None or pending not in s:
                        insert(pending)
                    for w in s or ():
                        insert(w)
                    infl[pending] = None
                    frames[-2] = None
                    frames[-1] = fmode = NARROW
                elif pending is not None:
                    frames[-2] = None
                    if not flips:  # pending's phase-1 solve returned: narrow it
                        nxt, nmode = pending, NARROW
                        continue
                    if ret and fmode == WARROW:  # tsmp: a narrowing nests a NARROW loop
                        frames += pending, None, NARROW
                        continue
                if heap and -heap[0] >= lo:
                    w = -heappop(heap)
                    members.remove(w)
                    if fmode == NARROW and sigma1[w] is UNSET:  # only in tstp
                        frames[-2] = w
                        frames += w + 1, w, ENTER
                    else:
                        if flips:
                            frames[-2] = w
                        nxt, nmode = w, fmode
                else:
                    del frames[-3:]
            rec = pc = None
            if nxt is not None:  # evaluate nxt in nmode
                r, mode, nxt = nxt, nmode, None
                if mode != WARROW_LATE:
                    isp = point[r]
                    point[r] = 0
                sig = sigma0 if mode == WIDEN else sigma1
                if mode == NARROW:
                    rec, i = recorded.get(r), 0
            elif not frames:
                break
            elif frames[-1] == REPLAYING:  # resume the replay at the read it stopped at
                r, isp, rec, i, _ = frames[-5:]
                del frames[-5:]
            else:  # resume the program on top: complete its look-up of u
                r, mode, isp, pc, u, base, mark, _ = frames[-8:]
                del frames[-8:]
                code, ctx = codes[r], ctxs[r]
                end = len(code)
                v = sig[u]
                if mode == WIDEN:
                    reads += variables[u], v
                if u <= r:
                    point[u] = 1
                s = infl[u]
                if s is None:
                    infl[u] = {r}
                else:
                    s.add(r)
                top, u = v, None
            if rec is not None:  # replay r's record: each read's look-up, then its check
                n = len(rec) - 1
                while i < n:
                    u = slot_get(rec[i])
                    v = sig[u]
                    if u <= r:
                        point[u] = 1
                    s = infl[u]
                    if s is None:
                        infl[u] = {r}
                    else:
                        s.add(r)
                    if v != rec[i + 1]:
                        break
                    i += 2
                if i == n:  # every value as recorded: an empty program returns the result
                    top, pc, end, base = rec[n], 0, 0, len(stack)
                elif v is UNSET:  # solve u, then resume the replay
                    frames += r, isp, rec, i, REPLAYING
                    continue
                else:  # run r's program instead, fed the values read so far
                    fed = rec[1:i:2]
                    fed.append(v)
                    fed.reverse()
                    slot_get = _unhashed
            if pc is None:  # a fresh evaluation or a fed rerun: run r's program
                if evals == fuel:
                    raise _OutOfFuel
                evals += 1
                code = codes[r]
                if code is None:  # keep no Program: one fewer object per variable
                    tree = system_rhs(variables[r])
                    if tree.__class__ is Program:
                        code, ctxs[r] = tree.code, tree.ctx
                    else:
                        code, ctxs[r] = _TREE_CODE, tree
                    codes[r] = code
                ctx = ctxs[r]
                end = len(code)
                base, mark = len(stack), len(reads)
                pc, top = 0, None
            recording = mode == WIDEN
            while pc < end:
                op = code[pc]
                if op == GET:
                    push(top)
                    z = code[pc + 1]
                    pc += 2
                elif op == LIT:
                    push(top)
                    top = code[pc + 1]
                    pc += 2
                    continue
                elif op == JOIN:
                    top = join(pop(), top)
                    pc += 1
                    continue
                elif op == MEET:
                    top = meet(pop(), top)
                    pc += 1
                    continue
                elif op >= CELL:
                    if op == CALL:
                        top = code[pc + 1](top)
                        pc += 2
                        continue
                    if op == CTX:
                        push(top)
                        top = ctx
                        pc += 1
                        continue
                    z = (code[pc + 1], top)
                    pc += 2
                elif op == EQ:
                    b = top
                    a = pop()
                    top = pop()
                    pc = pc + 2 if eq(a, b) else code[pc + 1]
                    continue
                elif op == LEQ:
                    b = top
                    a = pop()
                    top = pop()
                    pc = pc + 2 if leq(a, b) else code[pc + 1]
                    continue
                elif op == JMP:
                    pc = code[pc + 1]
                    continue
                elif op == TREE:  # top is a tree node
                    if not isinstance(top, Query):
                        top = top.value
                        pc += 2
                        continue
                    push(top)
                    z = top.var
                    pc += 1
                else:  # _CONT: apply the node's continuation to the value read
                    top = pop().cont(top)
                    pc -= 1
                    continue
                # Look z up for the reader r.
                u = slot_get(z)
                if u is None or (v := sig[u]) is UNSET or recording:
                    if u is None:
                        if fed:
                            top = fed.pop()
                            if not fed:
                                slot_get = slot.get
                            continue
                        u = len(variables)
                        if u >= var_budget:
                            raise VarBudgetExceeded(var_budget)
                        slot[z] = u
                        variables.append(z)
                        codes.append(None)
                        ctxs.append(None)
                        infl.append(None)
                        point.append(0)
                        sigma0.append(UNSET)
                        if two_phase:
                            sigma1.append(UNSET)
                        break
                    if v is UNSET:
                        break
                    reads += z, v
                if u <= r:
                    point[u] = 1
                s = infl[u]
                if s is None:
                    infl[u] = {r}
                else:
                    s.add(r)
                top = v
            else:  # r's evaluation returned top: update r
                new = top
                del stack[base:]
                if mode == WIDEN:
                    reads.append(new)
                    recorded[r] = reads[mark:]
                    del reads[mark:]
                elif mode == WARROW_LATE:
                    isp = point[r]
                    point[r] = 0
                old = sig[r]
                ret = mode == NARROW  # sound: a NARROW update, a narrowing or a stable one
                if isp:
                    if mode == WIDEN or not (ret or leq(new, old)):
                        new = widen(old, new)
                        widen_apps += 1
                    else:
                        new = narrow(old, new)
                        narrow_apps += 1
                        ret = True
                elif ret:
                    new = meet(old, new)
                if not eq(old, new):
                    sig[r] = new
                    for w in infl[r] or ():
                        insert(w)
                    infl[r] = None
                u = None
                continue
            frames += r, mode, isp, pc, u, base, mark, SUSPENDED
        completed = True
        assert not heap
    except _OutOfFuel:
        completed = False
    stats = Stats(vars_encountered=len(variables), rhs_evals=evals, widen_apps=widen_apps,
                  narrow_apps=narrow_apps, fuel_used=0 if fuel is None else evals)
    status = SolveStatus.COMPLETED if completed else SolveStatus.FUEL_EXHAUSTED
    sigma = Assignment(ops, dict(zip(variables, sigma0)))
    if not two_phase:
        return SolverResult(sigma, stats, status)
    return SolverResult(Assignment(ops, {variables[t]: sigma1[t] for t in entered}),
                        stats, status, sigma)


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
    return _demand(system, start, ops, _WIDEN, var_budget, fuel)


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
    return _demand(system, start, ops, _WARROW, var_budget, fuel)


def warrow_solve(system: EquationSystem, start, ops: LatticeOps, fuel: int, *,
                 var_budget: int = DEFAULT_VAR_BUDGET) -> SolverResult:
    """Warrowing baseline on the tsmp skeleton, limited by an evaluation fuel.

    No phase flags: at widening/narrowing points the update applies the
    warrowing operator to old and new value, with point membership sampled
    after the evaluation (WARROW_LATE, see the module docstring), so it can
    diverge.  Each evaluation burns one unit of fuel; running dry is a status.
    """
    return _demand(system, start, ops, _WARROW_LATE, var_budget, fuel)
