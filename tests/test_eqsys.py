"""Trees, dependency extraction, closedness, and the expression DSL."""

import contextlib
import gc
import random
from pathlib import Path

import pytest

import latfix.oracle
from latfix import (
    Answer,
    Assignment,
    EquationSystem,
    Program,
    Query,
    UnknownVariableError,
    compile_rhs_dsl,
    eval_tree,
    extend_top,
    gen_random_system,
    is_closed,
    tree_dep,
)
from latfix.eqsys import gc_paused, static_reads
from latfix.lattice import Chain, INF, NatInf, Powerset, make_domain
from latfix.cli import format_finite_file, parse_finite_file, parse_scheme_file

from fixtures import (
    EX1_NATINF,
    EX5_NATINF,
    SCHEME_CTX_SELF,
    SCHEME_NESTED_INTERVAL,
    branching_tree,
    eval_tree_traced,
    ring_text,
    stratified_chain_text,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

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


def test_static_reads_are_the_gets_on_every_branch():
    expr = ("ite", ("leq", ("get", "g"), ("lit", 3)),
            ("join", ("join", ("get", "a"), ("get", "b")), ("get", "c")),
            ("meet", ("meet", ("inc", ("get", "d")), ("get", "e")), ("get", "f")))
    assert static_reads(compile_rhs_dsl(expr, NAT)) == set("gabcdef")
    assert static_reads(compile_rhs_dsl(("lit", 7), NAT)) == set()
    assert static_reads(Query("a", Answer)) is None
    assert static_reads(compile_rhs_dsl(("cell", "p", ("get", "a")), NAT)) is None


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


def test_static_reads_cover_what_evaluation_reads():
    rng = random.Random(7)
    variables = ["y1", "y2", "y3"]
    for _ in range(1000):
        ops = rng.choice(DOMAIN_POOL)
        tree = compile_rhs_dsl(random_expr(rng, ops, variables, rng.randint(0, 3)), ops)
        lookup = {v: ops.sample(rng) for v in variables}
        assert tree_dep(tree, lookup) <= static_reads(tree)


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


# --- pausing the cycle collector -------------------------------------------------------

@contextlib.contextmanager
def collector(enabled):
    """Run the body with the cycle collector on or off, then restore its state."""
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was_enabled else gc.disable()


@gc_paused
def failing():
    assert not gc.isenabled()
    raise ValueError("failed")


def test_gc_paused_turns_the_collector_back_on_after_an_exception():
    with collector(True):
        with pytest.raises(ValueError):
            failing()
        assert gc.isenabled()


def test_gc_paused_leaves_a_collector_the_caller_disabled_disabled():
    with collector(False):
        gc_paused(gc.isenabled)()
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            failing()
        assert not gc.isenabled()


def test_nested_gc_paused_restores_the_outer_state():
    inner = gc_paused(gc.isenabled)

    @gc_paused
    def outer():
        return inner(), gc.isenabled()

    with collector(True):
        assert outer() == (False, False)
        assert gc.isenabled()


def test_the_paused_builders_leave_no_cyclic_garbage():
    """What pausing the collector rests on: the builders free all they drop
    by reference counts, so a collection during a build finds nothing."""
    generated = [(seed, nvars, descriptor, depth, seed % 2 == 0)
                 for seed, (nvars, descriptor, depth) in enumerate([
                     (1, Chain(3), 0), (7, Chain(6), 3), (50, Powerset(("a", "b")), 3),
                     (150, Powerset(("a", "b", "c", "d")), 4), (33, Chain(1), 2)])]
    finite = [path.read_text() for path in sorted(SAMPLES.glob("*.lat"))]
    finite += [ring_text(50)] + [
        format_finite_file(gen_random_system(*args)) for args in generated]
    schemes = [path.read_text() for path in sorted(SAMPLES.glob("*.sch"))]
    schemes += [stratified_chain_text(50), SCHEME_CTX_SELF, SCHEME_NESTED_INTERVAL]
    calls = ([(gen_random_system, args) for args in generated]
             + [(parse_finite_file, (text,)) for text in finite]
             + [(parse_scheme_file, (text,)) for text in schemes])
    with collector(False):
        gc.collect()
        for index, (build, args) in enumerate(calls):
            build(*args)
            assert gc.collect() == 0, (build.__name__, index)


# --- the layout of finite systems ---------------------------------------------------------

def _programs():
    return sum(1 for obj in gc.get_objects() if obj.__class__ is Program)


@pytest.mark.parametrize("build", [
    lambda: gen_random_system(7, 2000, Chain(5), 3, False),
    lambda: parse_finite_file(ring_text(2000)),
], ids=["generated", "parsed"])
def test_a_built_finite_system_keeps_no_program(build):
    with collector(False):
        gc.collect()
        before = _programs()
        prog = build()
        assert _programs() == before
    assert len(prog.variables) == 2000


def test_requests_share_the_stored_code_and_answers_come_back_as_they_are():
    prog = parse_finite_file("lattice natinf\nvar y1 = inc (get y2)\nvar y2 = lit 3\n")
    first, second = prog.system.rhs("y1"), prog.system.rhs("y1")
    assert first.__class__ is Program and second.__class__ is Program
    assert first.code is second.code
    assert first.ops is prog.ops
    assert prog.system.rhs("y2") is prog.system.rhs("y2") == Answer(3)
    assert prog.system.all_vars is prog.variables


def test_a_generated_system_does_not_depend_on_earlier_calls(monkeypatch):
    args = (11, 30, Chain(4), 3, False)
    monkeypatch.setattr(latfix.oracle, "_GET_LEAVES", {})
    first = format_finite_file(gen_random_system(*args))
    monkeypatch.setattr(latfix.oracle, "_GET_LEAVES", {})
    gen_random_system(12, 450, Chain(6), 2, False)
    gen_random_system(13, 3, Chain(3), 2, False)
    assert format_finite_file(gen_random_system(*args)) == first
