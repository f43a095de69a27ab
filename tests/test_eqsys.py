"""Trees, dependency extraction, closedness, and the expression DSL."""

import random

import pytest

from latfix import (
    Answer,
    Assignment,
    EquationSystem,
    Query,
    UnknownVariableError,
    compile_rhs_dsl,
    eval_tree,
    extend_top,
    is_closed,
    tree_dep,
)
from latfix.lattice import Chain, INF, NatInf, Powerset, make_domain
from latfix.cli import parse_finite_file

from fixtures import EX1_NATINF, EX5_NATINF, branching_tree, eval_tree_traced

NAT = make_domain(NatInf())


# --- evaluation ---------------------------------------------------------------

def test_eval_branching_tree():
    tree = branching_tree()
    assert eval_tree(tree, {"y1": 7, "y2": 4}) == 5
    # The else path re-queries y1 and never touches y2.
    assert eval_tree(tree, {"y1": 3}) == 3
    assert eval_tree(Answer(42), {}) == 42


def test_eval_missing_variable_is_usage_error():
    with pytest.raises(UnknownVariableError):
        eval_tree(Query("y9", Answer), {})


# --- dependencies ----------------------------------------------------------------

def test_tree_dep_branching():
    tree = branching_tree()
    partial = Assignment(NAT, {"y1": 3})
    assert tree_dep(tree, extend_top(partial)) == {"y1"}
    assert tree_dep(tree, {"y1": 9, "y2": 0}) == {"y1", "y2"}
    assert tree_dep(Answer(0), {}) == set()


def test_dep_covers_trace():
    tree = branching_tree()
    for lookup in ({"y1": 9, "y2": 0}, {"y1": 0, "y2": 0}):
        _, trace = eval_tree_traced(tree, lookup)
        assert set(trace) == tree_dep(tree, lookup)


def test_extend_top():
    empty = Assignment(NAT, {})
    assert extend_top(empty)("anything") == INF
    partial = Assignment(NAT, {"y1": 3})
    lookup = extend_top(partial)
    assert lookup("y1") == 3
    assert lookup("y2") == INF


# --- closedness ---------------------------------------------------------------------

def test_is_closed():
    prog = parse_finite_file(EX5_NATINF)
    empty = Assignment(prog.ops, {})
    assert is_closed(empty, prog.system)
    full = Assignment(prog.ops, {"y1": 0, "y2": 0, "y3": 0})
    assert is_closed(full, prog.system)
    just_y2 = Assignment(prog.ops, {"y2": 0})
    assert not is_closed(just_y2, prog.system)


# --- DSL compilation -----------------------------------------------------------------

def test_compile_flip_flop():
    expr = ("ite", ("eq", ("get", "y1"), ("lit", 0)), ("lit", 1), ("lit", 0))
    tree = compile_rhs_dsl(expr, NAT)
    assert eval_tree(tree, {"y1": 0}) == 1
    assert eval_tree(tree, {"y1": 1}) == 0
    assert eval_tree(tree, {"y1": INF}) == 0


def test_compile_leaves():
    assert isinstance(compile_rhs_dsl(("lit", 7), NAT), Answer)
    assert compile_rhs_dsl(("lit", 7), NAT).value == 7
    tree = compile_rhs_dsl(("inc", ("get", "y2")), NAT)
    assert eval_tree(tree, {"y2": 2}) == 3
    assert eval_tree(tree, {"y2": INF}) == INF


def test_each_get_is_one_query():
    expr = ("join", ("get", "y1"), ("get", "y1"))
    tree = compile_rhs_dsl(expr, NAT)
    _, trace = eval_tree_traced(tree, {"y1": 4})
    assert trace == ["y1", "y1"]


def test_ite_leq_incomparable_falls_to_else():
    pw = make_domain(Powerset(("a", "b")))
    expr = ("ite", ("leq", ("get", "x"), ("get", "y")),
            ("lit", frozenset("a")), ("lit", frozenset("b")))
    tree = compile_rhs_dsl(expr, pw)
    incomparable = {"x": frozenset("a"), "y": frozenset("b")}
    assert eval_tree(tree, incomparable) == frozenset("b")


# --- randomized structural properties -------------------------------------------

def random_expr(rng, ops, variables, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            return ("get", rng.choice(variables))
        return ("lit", ops.sample(rng))
    forms = ["join", "meet", "ite"]
    if not ops.name.startswith("powerset"):
        forms.append("inc")
    form = rng.choice(forms)
    if form == "ite":
        guard = (rng.choice(["eq", "leq"]),
                 random_expr(rng, ops, variables, depth - 1),
                 random_expr(rng, ops, variables, depth - 1))
        return ("ite", guard,
                random_expr(rng, ops, variables, depth - 1),
                random_expr(rng, ops, variables, depth - 1))
    if form == "inc":
        return ("inc", random_expr(rng, ops, variables, depth - 1))
    return (form,
            random_expr(rng, ops, variables, depth - 1),
            random_expr(rng, ops, variables, depth - 1))


def direct_eval(expr, lookup, ops):
    """Reference evaluator, independent of the tree translation."""
    tag = expr[0]
    if tag == "get":
        return lookup[expr[1]]
    if tag == "lit":
        return expr[1]
    if tag == "join":
        return ops.join(direct_eval(expr[1], lookup, ops),
                        direct_eval(expr[2], lookup, ops))
    if tag == "meet":
        return ops.meet(direct_eval(expr[1], lookup, ops),
                        direct_eval(expr[2], lookup, ops))
    if tag == "inc":
        return ops.succ(direct_eval(expr[1], lookup, ops))
    cmp_op, lhs, rhs = expr[1]
    a = direct_eval(lhs, lookup, ops)
    b = direct_eval(rhs, lookup, ops)
    taken = ops.eq(a, b) if cmp_op == "eq" else ops.leq(a, b)
    return direct_eval(expr[2 if taken else 3], lookup, ops)


DOMAIN_POOL = [make_domain(Chain(4)), make_domain(Powerset(("a", "b"))), NAT]


def test_dependency_property_random():
    # Lookups agreeing on the dependency set force equal evaluations.
    rng = random.Random(5)
    variables = ["y1", "y2", "y3"]
    for _ in range(1000):
        ops = rng.choice(DOMAIN_POOL)
        expr = random_expr(rng, ops, variables, rng.randint(0, 3))
        tree = compile_rhs_dsl(expr, ops)
        lookup1 = {v: ops.sample(rng) for v in variables}
        deps = tree_dep(tree, lookup1)
        lookup2 = {v: (lookup1[v] if v in deps else ops.sample(rng))
                   for v in variables}
        assert ops.eq(eval_tree(tree, lookup1), eval_tree(tree, lookup2))
        _, trace = eval_tree_traced(tree, lookup1)
        assert set(trace) <= deps


def test_compiled_tree_matches_direct_evaluator():
    rng = random.Random(6)
    variables = ["y1", "y2"]
    for _ in range(1000):
        ops = rng.choice(DOMAIN_POOL)
        expr = random_expr(rng, ops, variables, rng.randint(0, 3))
        tree = compile_rhs_dsl(expr, ops)
        lookup = {v: ops.sample(rng) for v in variables}
        assert ops.eq(eval_tree(tree, lookup), direct_eval(expr, lookup, ops))


def test_equation_system_from_mapping():
    prog = parse_finite_file(EX1_NATINF)
    assert prog.system.all_vars == ["y1"]
    with pytest.raises(UnknownVariableError):
        prog.system.rhs("nope")
    lazy = EquationSystem(lambda v: Answer(0))
    assert lazy.all_vars is None
    assert eval_tree(lazy.rhs("whatever"), {}) == 0
