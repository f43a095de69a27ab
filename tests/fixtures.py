"""Shared systems, trees and reference compilers used across the test modules."""

import random

from latfix import (
    Answer,
    Apply,
    Const,
    Ctx,
    EquationSystem,
    Query,
    UnknownVariableError,
    call_loop_system,
    eval_tree,
    gen_random_system,
)
from latfix.eqsys import as_lookup
from latfix.lattice import Chain, Powerset

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


# --- reference compilers ------------------------------------------------------
#
# The continuation-passing translations the expression languages used before
# they compiled to flat programs.  Each evaluation walks freshly built Query
# nodes; the compiled programs must agree with them on value and query order.

def reference_compile_dsl(expr, ops):
    """DSL expression to a computation tree, built on demand."""

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
        raise ValueError(f"bad DSL expression tag {tag!r}")

    return build(expr, Answer)


def reference_expr_tree(expr, ctx, scheme):
    """Computation tree of one (point, context) right-hand side of a scheme."""

    def build(e, k):
        if isinstance(e, Const):
            return k(e.value)
        if isinstance(e, Ctx):
            return k(ctx)
        if isinstance(e, Apply):
            fn = scheme.builtins[e.fn]

            def args(i, vals):
                if i == len(e.args):
                    return k(fn.fn(*vals))
                return build(e.args[i], lambda v: args(i + 1, vals + [v]))

            return args(0, [])
        return build(e.arg, lambda d: Query((e.point, d), k))

    return build(expr, Answer)


def reference_instantiate(scheme):
    """instantiate_system over reference trees."""

    def rhs(var):
        point, ctx = var
        try:
            expr = scheme.rhs[point]
        except KeyError:
            raise UnknownVariableError(var) from None
        return reference_expr_tree(expr, ctx, scheme)

    return EquationSystem(rhs)


def reference_system(gen):
    """The generated system's equations as reference trees."""
    rhs = {v: reference_compile_dsl(e, gen.ops) for v, e in gen.exprs.items()}
    return EquationSystem(rhs, all_vars=gen.variables)
