"""Compiled programs against the reference tree compilers they replaced, and
the one expression parser and renderer against the IR they share."""

import io
import random
import sys
from pathlib import Path

import pytest

import latfix.cli
import latfix.eqsys
from latfix import (
    Answer,
    EquationSystem,
    Program,
    Scheme,
    compile_rhs_dsl,
    eval_tree,
    instantiate_system,
    resolve_builtin,
    tsmp,
    tsrr,
    tstp,
    warrow_solve,
)
from latfix.cli import (
    format_finite_file,
    format_scheme_file,
    parse_finite_file,
    parse_scheme_file,
)
from latfix.eqsys import FiniteProgram, OP_CELL, OP_CTX, OP_GET, OP_JOIN, OP_LIT
from latfix.lattice import Chain, Interval, NatInf, Powerset, make_domain

from fixtures import (
    eval_tree_traced,
    random_corpus,
    reference_compile_dsl,
    reference_instantiate,
    reference_system,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

DOMAINS = [make_domain(Chain(4)), make_domain(Powerset(("a", "b", "c"))),
           make_domain(NatInf()), make_domain(Interval())]


def random_dsl(rng, ops, variables, depth):
    """get/lit/join/meet/ite, and inc where the domain has arithmetic."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ("get", rng.choice(variables))
        return ("lit", ops.sample(rng))
    forms = ["join", "meet", "ite"] + (["inc"] if ops.has_arith else [])
    form = rng.choice(forms)
    sub = lambda: random_dsl(rng, ops, variables, depth - 1)
    if form == "ite":
        guard = (rng.choice(["eq", "leq"]), sub(), sub())
        return ("ite", guard, sub(), sub())
    if form == "inc":
        return ("inc", sub())
    return (form, sub(), sub())


def agree(compiled, reference, lookup):
    """Same value and same query sequence under one lookup."""
    value, trace = eval_tree_traced(compiled, lookup)
    ref_value, ref_trace = eval_tree_traced(reference, lookup)
    assert value == ref_value
    assert trace == ref_trace
    return trace


def test_dsl_programs_match_reference_trees():
    rng = random.Random(11)
    variables = ["y1", "y2", "y3"]
    for ops in DOMAINS:
        for _ in range(400):
            expr = random_dsl(rng, ops, variables, rng.randint(0, 4))
            compiled = compile_rhs_dsl(expr, ops)
            reference = reference_compile_dsl(expr, ops)
            if isinstance(compiled, Answer):
                assert isinstance(reference, Answer)
            for _ in range(4):
                lookup = {v: ops.sample(rng) for v in variables}
                agree(compiled, reference, lookup)


def test_literal_operations_fold_at_compile_time():
    nat = DOMAINS[2]
    assert compile_rhs_dsl(("lit", 3), nat) == Answer(3)
    assert compile_rhs_dsl(("inc", ("join", ("lit", 3), ("lit", 5))), nat) == Answer(6)
    assert compile_rhs_dsl(("apply", "inc", ("lit", 3)), nat,
                           {"inc": resolve_builtin("inc", nat)}) == Answer(4)
    expr = ("join", ("ite", ("eq", ("lit", 1), ("lit", 1)), ("get", "y"), ("get", "z")),
            ("meet", ("lit", 2), ("lit", 3)))
    program = compile_rhs_dsl(expr, nat)
    assert isinstance(program, Program)
    assert program.code == (OP_GET, "y", OP_LIT, 2, OP_JOIN)
    scheme = Scheme(nat, {"u": ("lit", 5)}, {}, ("u", 0))
    assert instantiate_system(scheme).rhs(("u", 1)) == Answer(5)
    scheme = parse_scheme_file("scheme natinf\nstart u 0\n"
                               "point u = join (cell u ctx) (apply dec (lit 3))\n")
    program = instantiate_system(scheme).rhs(("u", 1))
    assert program.code == (OP_CTX, OP_CELL, "u", OP_LIT, 2, OP_JOIN)


SCHEME_BUILTINS = {
    "natinf": ["inc", "dec", "id", "add_const:2", "meet_const:4", "join_const:1"],
    "interval": ["inc", "dec", "id", "add_const:-1", "meet_const:[0,6]",
                 "join_const:[2,3]"],
}


def random_scheme_expr(rng, ops, points, unary, depth):
    """Constants, ctx, unary builtins, join/meet, and nested cells."""
    if depth <= 0 or rng.random() < 0.25:
        return ("ctx",) if rng.random() < 0.6 else ("lit", ops.sample(rng))
    sub = lambda: random_scheme_expr(rng, ops, points, unary, depth - 1)
    form = rng.random()
    if form < 0.4:
        return ("cell", rng.choice(points), sub())
    if form < 0.7:
        return ("apply", rng.choice(unary), sub())
    return (rng.choice(["join", "meet"]), sub(), sub())


def reads_nothing(expr):
    """Neither the context nor a cell occurs in the scheme expression."""
    if expr[0] in ("ctx", "cell"):
        return False
    if expr[0] == "lit":
        return True
    return all(reads_nothing(a) for a in expr[1:] if isinstance(a, tuple))


@pytest.mark.parametrize("kind", ["natinf", "interval"])
def test_scheme_programs_match_reference_trees(kind):
    rng = random.Random(12)
    ops = make_domain(NatInf() if kind == "natinf" else Interval())
    unary = SCHEME_BUILTINS[kind]
    builtins = {name: resolve_builtin(name, ops) for name in unary}
    points = ("u", "v", "w")
    for _ in range(150):
        rhs = {p: random_scheme_expr(rng, ops, points, unary, rng.randint(0, 4))
               for p in points}
        scheme = Scheme(ops, rhs, builtins, ("u", ops.bot))
        system = instantiate_system(scheme)
        values = {}

        def lookup(var):
            if var not in values:
                values[var] = ops.sample(rng)
            return values[var]

        for point in points:
            for _ in range(3):
                ctx = ops.sample(rng)
                compiled = system.rhs((point, ctx))
                reference = reference_compile_dsl(rhs[point], ops, builtins, ctx)
                assert isinstance(compiled, Answer) == reads_nothing(rhs[point])
                agree(compiled, reference, lookup)


def test_random_expressions_survive_format_then_parse():
    rng = random.Random(13)
    names = ["y1", "y2", "y3"]
    for ops in DOMAINS:
        for _ in range(100):
            exprs = {v: random_dsl(rng, ops, names, rng.randint(0, 4)) for v in names}
            text = format_finite_file(FiniteProgram(ops, names, exprs, None))
            assert parse_finite_file(text).exprs == exprs
    points = ("u", "v", "w")
    for kind, unary in SCHEME_BUILTINS.items():
        ops = make_domain(NatInf() if kind == "natinf" else Interval())
        builtins = {name: resolve_builtin(name, ops) for name in unary}
        for _ in range(150):
            rhs = {p: random_scheme_expr(rng, ops, points, unary, rng.randint(0, 4))
                   for p in points}
            scheme = Scheme(ops, rhs, builtins, ("v", ops.top))
            again = parse_scheme_file(format_scheme_file(scheme))
            assert (again.rhs, tuple(again.rhs), again.start) == (rhs, points, scheme.start)


def test_lookups_are_called_from_eval_tree_itself():
    # A program adds no Python frame between the solver and its lookup.
    callers = []

    def lookup(var):
        callers.append(sys._getframe(1).f_code)
        return 0

    nat = DOMAINS[2]
    expr = ("join", ("ite", ("eq", ("get", "a"), ("lit", 0)),
                     ("inc", ("get", "b")), ("lit", 1)), ("get", "c"))
    eval_tree(compile_rhs_dsl(expr, nat), lookup)
    expr = ("cell", "u", ("apply", "inc", ("cell", "u", ("ctx",))))
    scheme = Scheme(nat, {"u": expr}, {"inc": resolve_builtin("inc", nat)}, ("u", 0))
    eval_tree(instantiate_system(scheme).rhs(("u", 0)), lookup)
    assert len(callers) == 5
    assert set(callers) == {eval_tree.__code__}


# --- the solver core's interpreter against eval_tree --------------------------------
#
# The demand-driven core runs programs and trees in its own loop.  Solving a
# variable whose right-hand side is the program under test, while every
# variable the program reads has a constant answer, evaluates it exactly
# once, as a first update of an unread variable: tsmp's value for it is the
# program's result, and its discovery order the program's first-read order.

def _core_agrees_with_eval_tree(tree, ops, constants, sample):
    def constant(var):
        if var not in constants:
            constants[var] = sample()
        return constants[var]

    value, trace = eval_tree_traced(tree, constant)
    system = EquationSystem(lambda var: tree if var == "target" else Answer(constant(var)))
    result = tsmp(system, "target", ops)
    assert result.assignment["target"] == value
    assert list(result.assignment.values)[1:] == list(dict.fromkeys(trace))


def test_solver_core_runs_finite_programs_as_eval_tree_does():
    rng = random.Random(14)
    variables = ["y1", "y2", "y3"]
    for ops in DOMAINS:
        for _ in range(300):
            expr = random_dsl(rng, ops, variables, rng.randint(0, 4))
            for tree in (compile_rhs_dsl(expr, ops), reference_compile_dsl(expr, ops)):
                _core_agrees_with_eval_tree(tree, ops, {}, lambda: ops.sample(rng))


@pytest.mark.parametrize("kind", ["natinf", "interval"])
def test_solver_core_runs_scheme_programs_as_eval_tree_does(kind):
    rng = random.Random(15)
    ops = make_domain(NatInf() if kind == "natinf" else Interval())
    unary = SCHEME_BUILTINS[kind]
    builtins = {name: resolve_builtin(name, ops) for name in unary}
    points = ("u", "v", "w")
    for _ in range(150):
        expr = random_scheme_expr(rng, ops, points, unary, rng.randint(0, 4))
        scheme = Scheme(ops, dict.fromkeys(points, expr), builtins, ("u", ops.bot))
        ctx = ops.sample(rng)
        for tree in (instantiate_system(scheme).rhs(("u", ctx)),
                     reference_compile_dsl(expr, ops, builtins, ctx)):
            _core_agrees_with_eval_tree(tree, ops, {}, lambda: ops.sample(rng))


# --- golden: solver results over compiled and reference systems ----------------------

def _run_all(gen, system):
    out = []
    for name in ("tsrr", "tstp", "tsmp", "warrow"):
        if name == "tsrr":
            result = tsrr(gen.variables, system, gen.ops)
        elif name == "warrow":
            result = warrow_solve(system, gen.variables[0], gen.ops, 200)
        else:
            solve = tstp if name == "tstp" else tsmp
            result = solve(system, gen.variables[0], gen.ops)
        sigma0 = result.sigma0.values if result.sigma0 is not None else None
        out.append((name, result.assignment.values, result.stats, result.status,
                    sigma0))
    return out


def test_solvers_agree_on_compiled_and_reference_systems():
    for gen in random_corpus(200):
        assert _run_all(gen, gen.system) == _run_all(gen, reference_system(gen))


def _solve_all_samples():
    # At 2·10⁵ variables `recursive.sch` still stops on the budget under tstp
    # and tsmp, at a fifth of the default budget's cost on reference trees;
    # the golden CLI pin and the runaway-scheme CLI test run the default.
    outputs = []
    for path in sorted(SAMPLES.iterdir()):
        for solver in latfix.cli.SOLVERS:
            out = io.StringIO()
            code = latfix.cli.main(["solve", solver, str(path), "--json",
                                    "--var-budget", "200000"], out=out)
            outputs.append((path.name, solver, code, out.getvalue()))
    return outputs


def test_cli_solve_bytes_match_reference_trees(monkeypatch):
    compiled = _solve_all_samples()
    monkeypatch.setattr(latfix.eqsys, "compile_rhs_dsl", reference_compile_dsl)
    monkeypatch.setattr(latfix.cli, "instantiate_system", reference_instantiate)
    reference = _solve_all_samples()
    assert compiled == reference
    assert any(code == 0 and text for _, _, code, text in compiled)

