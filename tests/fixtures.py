"""Shared systems, trees, reference compilers and reference solvers for the tests."""

import contextlib
import functools
import io
import random
import sys
from collections import Counter
from heapq import heappop, heappush

from latfix import (
    Answer,
    Assignment,
    EquationSystem,
    Query,
    SchemeError,
    SolverResult,
    SolveStatus,
    Stats,
    UnknownVariableError,
    VarBudgetExceeded,
    eval_tree,
    gen_random_system,
)
from latfix.cli import main
from latfix.eqsys import OP_CALL, Program, as_lookup
from latfix.interproc import _cell_edges
from latfix.solvers import DEFAULT_VAR_BUDGET
from latfix.lattice import Chain, Powerset, make_domain

from oracle_ref import call_loop_system

EX1_NATINF = """\
lattice natinf
var y1 = ite (eq (get y1) (lit 0)) (lit 1) (lit 0)
"""

EX1_CHAIN4 = """\
lattice chain 4
var y1 = ite (eq (get y1) (lit 0)) (lit 1) (lit 0)
"""

EX5_NATINF = """\
lattice natinf
var y1 = join (get y1) (get y2)
var y2 = meet (get y3) (lit 2)
var y3 = inc (get y2)
"""

LIT5_NATINF = """\
lattice natinf
var y = lit 5
"""

MONOTONE_CHAIN5 = """\
lattice chain 5
var y1 = join (get y1) (lit 3)
"""

SCHEME_NESTED_NATINF = """\
scheme natinf
start u 0
point u = join (cell v (cell v (cell u ctx))) ctx
point v = join (apply meet_const:10 (apply inc (cell v ctx))) ctx
"""

SCHEME_NESTED_INTERVAL = """\
scheme interval
start u [0,0]
point u = join (cell v (cell v (cell u ctx))) ctx
point v = join (apply meet_const:[0,10] (apply inc (cell v ctx))) ctx
"""

SCHEME_RECURSIVE = """\
scheme natinf
start u 0
point u = cell u (apply inc ctx)
"""

SCHEME_CTX_SELF = """\
scheme natinf
start u 0
point u = cell u ctx
"""


# y3's first evaluation reads only y1; once y1 reaches 2, y3 reads y2 as well,
# so a later change of y2 must make y3's last result stale.
ITE_READS_NATINF = """\
lattice natinf
var y1 = lit 2
var y2 = meet (get y1) (lit 3)
var y3 = ite (leq (lit 2) (get y1)) (inc (get y2)) (get y1)
"""


def ring_text(n):
    """A natinf file whose variables y0 .. y{n-1} each read the next, in a ring."""
    lines = ["lattice natinf"]
    lines += [f"var y{i} = meet (inc (get y{(i + 1) % n})) (lit 50)" for i in range(n)]
    return "\n".join(lines) + "\n"


def stratified_chain_text(k):
    """A natinf scheme of k points, each calling the next on a computed context.

    Point p_i counts up on its own context and calls p_{i+1} on its own value,
    so every point sits one level above the next; the last reads `lit 0`.
    """
    lines = ["scheme natinf", "start p0 0"]
    for i in range(k):
        call = f"(cell p{i + 1} (cell p{i} ctx))" if i + 1 < k else "(lit 0)"
        lines.append(f"point p{i} = join (apply inc (cell p{i} ctx)) {call}")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def default_recursion_limit():
    """Run the body under Python's default recursion limit of 1,000 frames."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@functools.cache
def cli_run(*argv):
    """`latfix.cli.main`'s exit code, stdout and stderr on `argv`, run once per argv.

    The runaway sample runs to the default variable budget, which takes
    seconds; the tests that read its output share one run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


def branching_tree():
    """if y1 > 5 then 1 + y2 else y1, re-querying y1 on the else path."""

    def after_y1(d1):
        if d1 > 5:
            return Query("y2", lambda d2: Answer(1 + d2))
        return Query("y1", lambda d: Answer(d))

    return Query("y1", after_y1)


def loop_call_concrete():
    """Two states, the loop body sends q0 to q1 and kills q1."""
    return call_loop_system(["q0", "q1"], {"q0": {"q1"}, "q1": set()})


def random_corpus(count, *, monotone_only=False, seed_base=0):
    """Deterministic mixed corpus of small finite systems."""
    out = []
    for i in range(count):
        rng = random.Random(seed_base * 1_000_003 + i)
        if rng.random() < 0.5:
            descriptor = Chain(rng.randint(2, 5))
        else:
            descriptor = Powerset(tuple("abc"[: rng.randint(1, 3)]))
        nvars = rng.randint(1, 4)
        depth = rng.randint(1, 3)
        out.append(gen_random_system(seed_base * 1_000_003 + i, nvars,
                                     descriptor, depth, monotone_only))
    return out


def eval_tree_traced(tree, lookup):
    """Like eval_tree, also returning the query sequence in order."""
    lookup = as_lookup(lookup)
    trace = []

    def record(var):
        trace.append(var)
        return lookup(var)

    return eval_tree(tree, record), trace


# Only fuel bounds a solver that stops terminating while it stays in finitely
# many variables.  A termination test runs its solvers through `solve_capped`,
# and the golden scheme digest runs them on `capped` systems, so that such a
# regression fails instead of hanging.

RHS_CALL_CAP = 10**5


class EvaluationCapExceeded(BaseException):
    """A solver needed more evaluations than a termination test allows.

    Not an `Exception`, so Hypothesis fails the property at once with the
    seed that reproduces it; shrinking a runaway example would cost another
    full cap of evaluations per step and take minutes.
    """


def capped(system):
    """`system`, failing once its programs have run `RHS_CALL_CAP` times.

    A solver requests each right-hand side once per solve, so the runs are
    counted by one instruction appended to each program: every path through
    a program ends there, since a jump targets at most the end of the code.
    Answers and hand-built trees are passed through uncounted.
    """
    runs = 0

    def tick(value):
        nonlocal runs
        runs += 1
        if runs > RHS_CALL_CAP:
            raise EvaluationCapExceeded(f"more than {RHS_CALL_CAP} right-hand-side evaluations")
        return value

    def rhs(var):
        tree = system.rhs(var)
        if tree.__class__ is Program:
            tree = Program(tree.code + (OP_CALL, tick), tree.ops, tree.ctx)
        return tree

    return EquationSystem(rhs, all_vars=system.all_vars)


def solve_capped(solver, system, start, ops, **kwargs):
    """`solver`'s result on `RHS_CALL_CAP` fuel; running dry raises `EvaluationCapExceeded`."""
    result = solver(system, start, ops, fuel=RHS_CALL_CAP, **kwargs)
    if result.status is SolveStatus.FUEL_EXHAUSTED:
        raise EvaluationCapExceeded(f"more than {RHS_CALL_CAP} right-hand-side evaluations")
    return result


def counted(system):
    """`system`, and a counter of the requests made for each right-hand side."""
    requests = Counter()

    def rhs(var):
        requests[var] += 1
        return system.rhs(var)

    return EquationSystem(rhs, all_vars=system.all_vars), requests



def check_levels(scheme, levels):
    """Independent check of the stratification invariants for a witness."""
    for u in scheme.points:
        if u not in levels:
            return False
        for caller, callee, strict in _cell_edges(u, scheme.rhs[u]):
            if levels[callee] == levels[caller]:
                if strict:
                    return False
            elif levels[callee] >= levels[caller]:
                return False
    return True


# --- reference compilers ------------------------------------------------------
#
# The continuation-passing translation the expression languages used before
# they compiled to flat programs.  Each evaluation walks freshly built Query
# nodes; the compiled programs must agree with them on value and query order.

def reference_compile_dsl(expr, ops, builtins=None, ctx=None):
    """Expression to a computation tree at context `ctx`, built on demand."""

    def build(e, k):
        tag = e[0]
        if tag == "lit":
            return k(e[1])
        if tag == "get":
            return Query(e[1], k)
        if tag == "join":
            return build(e[1], lambda a: build(e[2], lambda b: k(ops.join(a, b))))
        if tag == "meet":
            return build(e[1], lambda a: build(e[2], lambda b: k(ops.meet(a, b))))
        if tag == "inc":
            return build(e[1], lambda a: k(ops.succ(a)))
        if tag == "ite":
            cmp_op, lhs, rhs = e[1]

            def decide(a, b):
                if cmp_op == "eq":
                    taken = ops.eq(a, b)
                else:
                    taken = ops.leq(a, b)
                return build(e[2], k) if taken else build(e[3], k)

            return build(lhs, lambda a: build(rhs, lambda b: decide(a, b)))
        if tag == "ctx":
            return k(ctx)
        if tag == "cell":
            return build(e[2], lambda d: Query((e[1], d), k))
        if tag == "apply":
            fn = builtins[e[1]]
            return build(e[2], lambda v: k(fn(v)))
        raise ValueError(f"bad expression tag {tag!r}")

    return build(expr, Answer)


def sem_expr(expr, ctx, lookup, scheme):
    """Evaluate an expression of `scheme` at a context against a variable lookup."""
    lookup = as_lookup(lookup)
    ops = scheme.ops

    def ev(e):
        tag = e[0]
        if tag == "lit":
            return e[1]
        if tag == "ctx":
            return ctx
        if tag == "join":
            return ops.join(ev(e[1]), ev(e[2]))
        if tag == "meet":
            return ops.meet(ev(e[1]), ev(e[2]))
        if tag == "apply":
            try:
                fn = scheme.builtins[e[1]]
            except KeyError:
                raise SchemeError(f"unknown builtin {e[1]!r}") from None
            return fn(ev(e[2]))
        # cell: the inner expression's value picks the variable to read.
        return lookup((e[1], ev(e[2])))

    return ev(expr)


def reference_instantiate(scheme):
    """instantiate_system over reference trees."""

    def rhs(var):
        point, ctx = var
        try:
            expr = scheme.rhs[point]
        except KeyError:
            raise UnknownVariableError(var) from None
        return reference_compile_dsl(expr, scheme.ops, scheme.builtins, ctx)

    return EquationSystem(rhs)


def reference_system(gen):
    """The generated system's equations as reference trees."""
    rhs = {v: reference_compile_dsl(e, gen.ops) for v, e in gen.exprs.items()}
    return EquationSystem(rhs, all_vars=gen.variables)


def reference_gen_exprs(seed, nvars, descriptor, depth, monotone_only):
    """The expressions `gen_random_system` draws, drawn through `Random.choice`.

    The generator makes `choice`'s draws itself, straight from `getrandbits`;
    this is the plain form its expressions must equal.
    """
    ops = make_domain(descriptor)
    rng = random.Random(seed)
    variables = [f"y{i + 1}" for i in range(nvars)]
    forms = ("join", "meet") if monotone_only else ("join", "meet", "ite")

    def gen_expr(d):
        if d <= 0 or rng.random() < 0.35:
            if rng.random() < 0.6:
                return ("get", rng.choice(variables))
            return ("lit", ops.sample(rng))
        form = rng.choice(forms)
        if form == "ite":
            guard = (rng.choice(("eq", "leq")), gen_expr(d - 1), gen_expr(d - 1))
            return ("ite", guard, gen_expr(d - 1), gen_expr(d - 1))
        return (form, gen_expr(d - 1), gen_expr(d - 1))

    return {v: gen_expr(depth) for v in variables}


# --- reference tsrr -------------------------------------------------------------
#
# The round-robin solver as it was before it reused results and ran as a loop:
# it re-evaluates every right-hand side in every sweep and recurses one frame
# per listed variable.  `tsrr` must agree with it on everything but
# `rhs_evals`, which may only be lower.

def reference_tsrr(variables, system, ops):
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
    trees = [system.rhs(y) for y in order]  # each one is evaluated at least once
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
            tmp = eval_tree(trees[n - i], lookup)
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
    # Break the closure cycle.
    del solve
    return SolverResult(Assignment(ops, sigma), stats, SolveStatus.COMPLETED)


# --- reference tstp and tsmp ------------------------------------------------------
#
# The demand-driven solvers on the recursive core they ran on before their
# core became one loop over a frame stack.  `reference_tstp` is the two-phase
# solver before it reused recorded results: every phase-1 evaluation runs the
# right-hand side, and a variable first touched by the queue is evaluated
# twice.  `tstp` must agree with it on the assignments, `sigma0`, the status
# and every count but `rhs_evals`, which may only be lower.  `reference_tsmp`
# is the mixed-phase solver as it iterated before: `tsmp` must agree with it
# on everything, counts included.

class _ReferenceOutOfFuel(Exception):
    pass


class _ReferenceCore:
    """Slots, influence, points, queue, fuel and the update rule of both references.

    Variables get dense slots in discovery order and a slot's negation is its
    priority; the heap holds negated slots, so the lowest-priority slot comes
    first.  Assignments are dicts from slot to value, owned by the solvers.
    """

    def __init__(self, system, ops, var_budget, fuel):
        if fuel is not None and fuel < 1:
            raise ValueError("fuel must be >= 1")
        self.system, self.ops, self.var_budget, self.fuel = system, ops, var_budget, fuel
        self.slot = {}        # variable -> slot
        self.variables = []   # slot -> variable
        self.trees = []       # slot -> right-hand side, once requested
        self.infl = []        # slot -> slots of its readers
        self.point = set()
        self.heap = []
        self.queued = set()
        self.stats = Stats()
        self.reader = None

    def discover(self, y):
        t = len(self.variables)
        if t >= self.var_budget:
            raise VarBudgetExceeded(self.var_budget)
        self.slot[y] = t
        self.variables.append(y)
        self.trees.append(None)
        self.infl.append(set())
        return t

    def requeue(self, t):
        for u in self.infl[t]:
            if u not in self.queued:
                self.queued.add(u)
                heappush(self.heap, -u)
        self.infl[t] = set()

    def extract(self):
        u = -heappop(self.heap)
        self.queued.discard(u)
        return u

    def reading(self, sigma, solve):
        """The look-up into `sigma`; a first touch calls solve(t, reader's priority)."""

        def lookup(z):
            r = self.reader
            t = self.slot.get(z)
            if t is None:
                t = self.discover(z)
            if t not in sigma:
                solve(t, -r)
            if t <= r:
                self.point.add(t)
            self.infl[t].add(r)
            return sigma[t]

        return lookup

    def do_var(self, t, sigma, mode, lookup):
        """Re-evaluate t in mode "widen", "narrow" or "warrow"; True if the update
        was sound: stable, a narrowing, or in "narrow" mode."""
        ops, stats = self.ops, self.stats
        isp = t in self.point
        self.point.discard(t)
        if stats.rhs_evals == self.fuel:
            raise _ReferenceOutOfFuel
        stats.rhs_evals += 1
        if self.trees[t] is None:
            self.trees[t] = self.system.rhs(self.variables[t])
        outer, self.reader = self.reader, t
        new = eval_tree(self.trees[t], lookup)
        self.reader = outer
        old = sigma[t]
        sound = mode == "narrow"
        if isp:
            if mode == "widen" or not (sound or ops.leq(new, old)):
                new = ops.widen(old, new)
                stats.widen_apps += 1
            else:
                new = ops.narrow(old, new)
                stats.narrow_apps += 1
                sound = True
        elif sound:
            new = ops.meet(old, new)
        if ops.eq(old, new):
            return True
        sigma[t] = new
        self.requeue(t)
        return sound

    def result(self, completed, sigma, sigma0=None):
        """The solver's result, its assignments keyed by variable again."""
        stats = self.stats
        stats.vars_encountered = len(self.variables)
        if self.fuel is not None:
            stats.fuel_used = stats.rhs_evals

        def named(s):
            return Assignment(self.ops, {self.variables[t]: d for t, d in s.items()})

        status = SolveStatus.COMPLETED if completed else SolveStatus.FUEL_EXHAUSTED
        return SolverResult(named(sigma), stats, status,
                            None if sigma0 is None else named(sigma0))


def reference_tstp(system, start, ops, *, var_budget=DEFAULT_VAR_BUDGET, fuel=None):
    """Demand-driven two-phase solving from one start variable.

    Phase 0 widens at points into sigma0; phase 1 copies a value over on first
    touch, narrows at points and takes the meet elsewhere.
    """
    core = _ReferenceCore(system, ops, var_budget, fuel)
    heap, do_var, extract = core.heap, core.do_var, core.extract
    sigma0 = {}
    sigma1 = {}

    def solve0(t, _n=None):
        sigma0[t] = ops.bot
        do_var(t, sigma0, "widen", eval0)
        while heap and heap[0] <= -t:
            do_var(extract(), sigma0, "widen", eval0)

    def solve1(t, n):
        if t not in sigma0:
            solve0(t)
        sigma1[t] = sigma0[t]
        core.infl[t].add(t)
        core.requeue(t)
        while heap and heap[0] < n:
            u = extract()
            if u not in sigma1:
                solve1(u, -u)
            do_var(u, sigma1, "narrow", eval1)

    eval0 = core.reading(sigma0, solve0)
    eval1 = core.reading(sigma1, solve1)
    try:
        solve1(core.discover(start), 1)
        completed = True
    except _ReferenceOutOfFuel:
        completed = False
    # Break the closure cycle.
    del solve0, solve1, eval0, eval1
    return core.result(completed, sigma1, sigma0)


def reference_tsmp(system, start, ops, *, var_budget=DEFAULT_VAR_BUDGET, fuel=None):
    """Demand-driven mixed-phase solving from one start variable.

    `iterate(b, n)` re-evaluates queued variables of priority up to n with the
    flag b: narrowing once an update was sound, warrowing before.  An update
    that flips the flag below n first iterates the variables below it with
    the new flag.
    """
    core = _ReferenceCore(system, ops, var_budget, fuel)
    heap, do_var, extract = core.heap, core.do_var, core.extract
    sigma = {}

    def solve(t, _n=None):
        sigma[t] = ops.bot
        iterate(do_var(t, sigma, "warrow", lookup), -t)

    def iterate(b, n):
        while heap and heap[0] <= n:
            t = extract()
            b2 = do_var(t, sigma, "narrow" if b else "warrow", lookup)
            if b != b2 and n > -t:
                iterate(b2, -t)
            else:
                b = b2

    lookup = core.reading(sigma, solve)
    try:
        solve(core.discover(start))
        completed = True
    except _ReferenceOutOfFuel:
        completed = False
    # Break the closure cycle.
    del solve, iterate, lookup
    return core.result(completed, sigma)
