"""Brute-force checks for finite instances.

Everything here trades time for trust: post-solution checks (of the system,
and of its lower monotonization by enumerating larger assignments of the
variables each right-hand side's code reads, which is exact because
right-hand sides are pure, see `eqsys`), monotonicity by enumeration, and a
deterministic random-system generator for corpus-style properties.
`latfix verify` and the benchmark call these.  All of it is meant for
desk-scale instances and guarded by explicit enumeration budgets.
"""

from __future__ import annotations

import itertools
import random
import sys

from .eqsys import (
    Answer,
    Assignment,
    EquationSystem,
    FiniteProgram,
    Tree,
    eval_tree,
    extend_top,
    gc_paused,
    static_reads,
)
from .lattice import LatticeDescriptor, LatticeOps, make_domain


class OracleError(RuntimeError):
    pass


class OracleBudgetError(OracleError):
    """The instance is too large for exhaustive checking; shrink it."""


DEFAULT_EVAL_BUDGET = 10**6


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise OracleBudgetError(
                f"enumeration budget of {self.limit} evaluations exceeded; "
                "shrink the instance")


def _values(ops: LatticeOps, budget: _Budget) -> list:
    """All of `ops`' values, for enumeration under `budget`.

    A lattice with more values than the budget has evaluations is refused
    before its values are built: a chain of 10**30 elements or a powerset of
    40 atoms cannot be listed, let alone enumerated.
    """
    count = ops.value_count()
    if count > budget.limit:
        raise OracleBudgetError(
            f"{ops.name} has {count} values, more than the enumeration budget "
            f"of {budget.limit} evaluations; shrink the lattice")
    return ops.values()


def is_post_solution(assignment: Assignment, system: EquationSystem) -> bool:
    """f(top+sigma) <= sigma[y] for every y in the assignment's domain."""
    ops = assignment.ops
    lookup = extend_top(assignment)
    for y in assignment.dom:
        if not ops.leq(eval_tree(system.rhs(y), lookup), assignment[y]):
            return False
    return True


def is_post_solution_lower_mono(assignment: Assignment, system: EquationSystem,
                                ops: LatticeOps, *,
                                eval_budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Is the top-extension a post-solution of the lower monotonization?

    For each variable y the meet of f(sigma')(y) ranges over the larger
    assignments sigma', but for a program only the variables its code can
    read are enumerated (`static_reads`).  That is exact: a right-hand side
    is pure, so coordinates it does not read cannot change its value, and the
    restricted product yields the same set of values as the full one.  A
    `Query` tree, a CELL and, for now, an `Answer` are enumerated over every
    variable.  Up-sets are built only for the variables enumerated.  The meet
    only ever shrinks, so enumeration stops as soon as it drops below the
    target value.
    """
    variables = system.all_vars
    if variables is None:
        raise OracleError("lower monotonization needs an explicit variable list")
    lookup = extend_top(assignment)
    position = {v: i for i, v in enumerate(variables)}
    budget = _Budget(eval_budget)
    all_values = _values(ops, budget)
    upsets: dict = {}

    def upset(v):
        if v not in upsets:
            lo = lookup(v)
            upsets[v] = [w for w in all_values if ops.leq(lo, w)]
        return upsets[v]

    for y in variables:
        bound = lookup(y)
        if ops.eq(bound, ops.top):
            continue
        tree = system.rhs(y)
        reads = static_reads(tree)
        # One evaluation would settle an Answer; it is enumerated in full
        # for now (ROADMAP item 4).
        if reads is None or tree.__class__ is Answer:
            read = variables
        else:  # a read of an unknown variable is left to fail as it runs
            read = sorted((v for v in reads if v in position), key=position.__getitem__)
        acc = None
        reached = False
        # A list, not a map: unpacking an iterator builds the argument tuple
        # by resizing, which parks one tuple per call on CPython's free list
        # for its size, about 1 MB on a corpus of 3 to 7 variables.
        for combo in itertools.product(*[upset(v) for v in read]):
            budget.spend()
            value = eval_tree(tree, dict(zip(read, combo)))
            acc = value if acc is None else ops.meet(acc, value)
            if ops.leq(acc, bound):
                reached = True
                break
        if not reached:
            return False
    return True


# --- monotonicity ------------------------------------------------------------

class _Fork(Exception):
    """A replay in `_reads` reached a variable its path has not read yet."""


def _reads(tree: Tree, values: list, budget: _Budget) -> set:
    """The variables the tree reads under some assignment of the values.

    Walks the tree's query paths: each replay answers a path's reads with the
    values chosen for them, and at its first fresh read the path forks over
    every value.  A variable read again on a path keeps its first value.
    """
    reads = set()
    paths = [()]
    while paths:
        prefix = paths.pop()
        chosen: dict = {}

        def lookup(z):
            if z not in chosen:
                if len(chosen) == len(prefix):
                    raise _Fork(z)
                chosen[z] = prefix[len(chosen)]
            return chosen[z]

        budget.spend()
        try:
            eval_tree(tree, lookup)
        except _Fork as fork:
            reads.add(fork.args[0])
            paths.extend(prefix + (w,) for w in values)
    return reads


def rhs_monotone(tree: Tree, variables, ops: LatticeOps, *,
                 eval_budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Exhaustive monotonicity check, one raised coordinate at a time.

    Raising single coordinates suffices: any two comparable assignments are
    linked by a chain of single-coordinate raises.  Only the variables that
    some query path reads are enumerated, since the value depends on no other.
    """
    budget = _Budget(eval_budget)
    all_values = _values(ops, budget)
    reads = _reads(tree, all_values, budget)
    variables = [v for v in variables if v in reads]
    for combo in itertools.product(all_values, repeat=len(variables)):
        sigma = dict(zip(variables, combo))
        budget.spend()
        here = eval_tree(tree, sigma)
        for v in variables:
            for w in all_values:
                if not ops.leq(sigma[v], w) or ops.eq(sigma[v], w):
                    continue
                raised = dict(sigma)
                raised[v] = w
                budget.spend()
                if not ops.leq(here, eval_tree(tree, raised)):
                    return False
    return True


def system_monotone(system: EquationSystem, ops: LatticeOps, *,
                    eval_budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    variables = system.all_vars
    if variables is None:
        raise OracleError("monotonicity check needs an explicit variable list")
    return all(
        rhs_monotone(system.rhs(v), variables, ops, eval_budget=eval_budget)
        for v in variables)


# --- random systems -----------------------------------------------------------

# name -> its ("get", name) leaf, the name interned: shared by every generated
# system.  Filled by `setdefault` only, so an entry, once there, never changes.
# It holds one leaf per name generated so far, as many as the largest system.
_GET_LEAVES: dict = {}


@gc_paused
def gen_random_system(seed: int, nvars: int, descriptor: LatticeDescriptor,
                      depth: int, monotone_only: bool) -> FiniteProgram:
    """Deterministic random finite system over a finite lattice.

    Right-hand sides are DSL expressions over get/lit/join/meet, plus
    eq/leq-guarded conditionals when non-monotone shapes are allowed; every
    query targets one of the generated variables.  Expressions share their
    leaves: a system holds one `("lit", v)` node per distinct value, and one
    `("get", y)` node per variable, taken with its interned name from a
    module-level table, so every generated system shares it too.  Sharing
    changes no draw: the seed alone fixes the expressions, whichever calls
    came before.

    The seed's `random.Random` is drawn on only through `random()`,
    `getrandbits` and `ops.sample`.  Each choice among n items is made as
    CPython 3.11's `Random.choice` makes it, without its frames: draw
    n.bit_length() bits until they index one of the items.
    """
    ops = make_domain(descriptor)
    if not ops.is_finite:
        raise OracleError("random systems are generated over finite lattices only")
    rng = random.Random(seed)
    draw, bits = rng.random, rng.getrandbits
    variables = [sys.intern(f"y{i + 1}") for i in range(nvars)]
    gets = [_GET_LEAVES.setdefault(v, ("get", v)) for v in variables]
    lits: dict = {}
    forms = ("join", "meet") if monotone_only else ("join", "meet", "ite")
    nforms = len(forms)
    get_bits, form_bits = nvars.bit_length(), nforms.bit_length()

    def gen_expr(d):
        if d <= 0 or draw() < 0.35:
            if draw() < 0.6:
                i = bits(get_bits)
                while i >= nvars:
                    i = bits(get_bits)
                return gets[i]
            value = ops.sample(rng)
            return lits.setdefault(value, ("lit", value))
        i = bits(form_bits)
        while i >= nforms:
            i = bits(form_bits)
        if i == 2:  # forms[2], "ite"; then eq or leq, two items drawn on 2 bits
            i = bits(2)
            while i >= 2:
                i = bits(2)
            guard = (("eq", "leq")[i], gen_expr(d - 1), gen_expr(d - 1))
            return ("ite", guard, gen_expr(d - 1), gen_expr(d - 1))
        return (forms[i], gen_expr(d - 1), gen_expr(d - 1))

    exprs = {v: gen_expr(depth) for v in variables}
    del gen_expr  # its closure refers to itself: a cycle the collector would free
    return FiniteProgram.build(ops, exprs)
