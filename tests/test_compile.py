"""Compiled programs against the reference tree compilers they replaced."""

import io
import random
import sys
from pathlib import Path

import pytest

import latfix.cli
from latfix import (
    Answer,
    Apply,
    BuiltinFn,
    CTX,
    Cell,
    Const,
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
from latfix.eqsys import OP_GET, OP_JOIN, OP_LIT
from latfix.lattice import Chain, Interval, NatInf, Powerset, make_domain

from fixtures import (
    eval_tree_traced,
    random_corpus,
    reference_compile_dsl,
    reference_expr_tree,
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
    expr = ("join", ("ite", ("eq", ("lit", 1), ("lit", 1)), ("get", "y"), ("get", "z")),
            ("meet", ("lit", 2), ("lit", 3)))
    program = compile_rhs_dsl(expr, nat)
    assert isinstance(program, Program)
    assert program.code == (OP_GET, "y", OP_LIT, 2, OP_JOIN)
    scheme = Scheme(nat, ("u",), {"u": Const(5)}, {}, ("u", 0))
    assert instantiate_system(scheme).rhs(("u", 1)) == Answer(5)


SCHEME_BUILTINS = {
    "natinf": (["inc", "dec", "id", "add_const:2", "meet_const:4", "join_const:1"],
               ["join", "meet"]),
    "interval": (["inc", "dec", "id", "add_const:-1", "meet_const:[0,6]",
                  "join_const:[2,3]"], ["join", "meet"]),
}


def random_scheme_expr(rng, ops, points, unary, binary, depth):
    """Constants, ctx, unary and binary builtins, and nested cells."""
    if depth <= 0 or rng.random() < 0.25:
        return CTX if rng.random() < 0.6 else Const(ops.sample(rng))
    sub = lambda: random_scheme_expr(rng, ops, points, unary, binary, depth - 1)
    form = rng.random()
    if form < 0.4:
        return Cell(rng.choice(points), sub())
    if form < 0.7:
        return Apply(rng.choice(unary), (sub(),))
    return Apply(rng.choice(binary), (sub(), sub()))


@pytest.mark.parametrize("kind", ["natinf", "interval"])
def test_scheme_programs_match_reference_trees(kind):
    rng = random.Random(12)
    ops = make_domain(NatInf() if kind == "natinf" else Interval())
    unary, binary = SCHEME_BUILTINS[kind]
    builtins = {name: resolve_builtin(name, ops) for name in unary + binary}
    points = ("u", "v", "w")
    for _ in range(150):
        rhs = {p: random_scheme_expr(rng, ops, points, unary, binary,
                                     rng.randint(0, 4)) for p in points}
        scheme = Scheme(ops, points, rhs, builtins, ("u", ops.bot)).validate()
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
                reference = reference_expr_tree(rhs[point], ctx, scheme)
                assert isinstance(compiled, Answer) == isinstance(rhs[point], Const)
                agree(compiled, reference, lookup)


def test_builtins_of_any_arity_take_arguments_in_order():
    nat = DOMAINS[2]
    builtins = {"seven": BuiltinFn("seven", 0, lambda: 7),
                "digits": BuiltinFn("digits", 3, lambda a, b, c: 100 * a + 10 * b + c),
                "join": resolve_builtin("join", nat)}
    expr = Apply("join", (Cell("u", Apply("seven", ())),
                          Apply("digits", (CTX, Cell("u", CTX), Const(3)))))
    scheme = Scheme(nat, ("u",), {"u": expr}, builtins, ("u", 0)).validate()
    lookup = {("u", 7): 1, ("u", 2): 5}
    compiled = instantiate_system(scheme).rhs(("u", 2))
    assert agree(compiled, reference_expr_tree(expr, 2, scheme), lookup) == [
        ("u", 7), ("u", 2)]
    assert eval_tree(compiled, lookup) == 253


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
    scheme = Scheme(nat, ("u",), {"u": Cell("u", Apply("inc", (Cell("u", CTX),)))},
                    {"inc": resolve_builtin("inc", nat)}, ("u", 0))
    eval_tree(instantiate_system(scheme).rhs(("u", 0)), lookup)
    assert len(callers) == 5
    assert set(callers) == {eval_tree.__code__}


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
    outputs = []
    for path in sorted(SAMPLES.iterdir()):
        for solver in latfix.cli.SOLVERS:
            out = io.StringIO()
            code = latfix.cli.main(["solve", solver, str(path), "--json"], out=out)
            outputs.append((path.name, solver, code, out.getvalue()))
    return outputs


def test_cli_solve_bytes_match_reference_trees(monkeypatch):
    compiled = _solve_all_samples()
    monkeypatch.setattr(latfix.cli, "compile_rhs_dsl", reference_compile_dsl)
    monkeypatch.setattr(latfix.cli, "instantiate_system", reference_instantiate)
    reference = _solve_all_samples()
    assert compiled == reference
    assert any(code == 0 and text for _, _, code, text in compiled)

