"""Schemes: semantics, lazy instantiation, stratification, termination."""

import pytest

from latfix import (
    Answer,
    CounterexampleCycle,
    SolveStatus,
    check_stratified,
    eval_tree,
    extend_top,
    instantiate_system,
    tree_dep,
    tsmp,
    tstp,
)
from latfix.eqsys import EquationSystem
from latfix.interproc import Scheme, SchemeError, resolve_builtin
from latfix.lattice import NatInf, make_domain
from latfix.cli import ParseError, format_scheme_file, parse_scheme_file

from fixtures import (
    SCHEME_CTX_SELF,
    SCHEME_NESTED_INTERVAL,
    SCHEME_NESTED_NATINF,
    SCHEME_RECURSIVE,
    check_levels,
    eval_tree_traced,
    sem_expr,
    solve_capped,
)
from oracle_ref import kleene_least_solution

NAT = make_domain(NatInf())


@pytest.fixture(scope="module")
def nested():
    return parse_scheme_file(SCHEME_NESTED_NATINF)


# --- expression semantics ---------------------------------------------------------

def test_sem_expr_context_and_const(nested):
    assert sem_expr(("ctx",), 7, {}, nested) == 7
    assert sem_expr(("lit", 4), 7, {}, nested) == 4


def test_sem_expr_clamped_increment(nested):
    # join(min(ctx+1, 10), ctx) at ctx=0 with the cell bound to 0
    expr = nested.rhs["v"]
    assert sem_expr(expr, 0, {("v", 0): 0}, nested) == 1
    assert sem_expr(expr, 0, {("v", 0): 12}, nested) == 10


def test_sem_expr_unknown_builtin(nested):
    with pytest.raises(SchemeError):
        sem_expr(("apply", "mystery", ("ctx",)), 0, {}, nested)


# A scheme built by hand is checked by a round trip through the formatter and
# the parser: a malformed one raises on the way or comes back different.
MALFORMED = [("join", ("ctx",)), ("apply", "inc"), ("cell", "w", ("ctx",)), ("get", "u"),
             ("cell", "u"), ("cell", "u", ("ctx",), ("ctx",)), ("lit",), ("lit", 1, 2),
             ("ctx", ("ctx",)), ("apply", "inc", ("ctx",), ("ctx",))]


INC = {"inc": resolve_builtin("inc", NAT)}


def test_a_round_trip_checks_a_hand_built_scheme():
    good = Scheme(NAT, {"u": ("apply", "inc", ("cell", "u", ("ctx",)))}, INC, ("u", 0))
    assert parse_scheme_file(format_scheme_file(good)).rhs == good.rhs


@pytest.mark.parametrize("expr", MALFORMED)
def test_a_round_trip_rejects_a_malformed_scheme(expr):
    scheme = Scheme(NAT, {"u": expr}, INC, ("u", 0))
    try:
        again = parse_scheme_file(format_scheme_file(scheme))
    except (ParseError, IndexError):  # ("lit",) has no value to format
        return
    assert again.rhs != scheme.rhs


def test_resolve_builtin_errors():
    with pytest.raises(SchemeError):
        resolve_builtin("nope", NAT)
    with pytest.raises(SchemeError):
        resolve_builtin("add_const:x", NAT)


# --- instantiation ------------------------------------------------------------------

def test_instantiate_const_scheme():
    scheme = Scheme(NAT, {"u": ("lit", 5)}, {}, ("u", 0))
    system = instantiate_system(scheme)
    tree = system.rhs(("u", 3))
    assert isinstance(tree, Answer) and tree.value == 5


def test_innermost_cell_is_queried_first(nested):
    system = instantiate_system(nested)
    tree = system.rhs(("u", 4))
    # The equation of u nests cells three deep; the innermost one reads the
    # context directly, so its variable is the first queried.
    _, trace = eval_tree_traced(tree, lambda var: 0)
    assert trace[0] == ("u", 4)

    vtree = system.rhs(("v", 0))
    _, vtrace = eval_tree_traced(vtree, lambda var: 0)
    assert vtrace == [("v", 0)]


def test_indirect_addressing_selects_variables(nested):
    system = instantiate_system(nested)
    tree = system.rhs(("u", 0))
    values = {("u", 0): 2, ("v", 2): 5, ("v", 5): 9}
    assert eval_tree(tree, values) == 9  # join(9, 0)
    assert tree_dep(tree, values) == {("u", 0), ("v", 2), ("v", 5)}


# --- stratification ------------------------------------------------------------------

def test_stratified_nested_scheme(nested):
    levels = check_stratified(nested)
    assert isinstance(levels, dict)
    assert levels["v"] < levels["u"]
    assert check_levels(nested, levels)


def test_recursive_scheme_yields_cycle():
    scheme = parse_scheme_file(SCHEME_RECURSIVE)
    outcome = check_stratified(scheme)
    assert isinstance(outcome, CounterexampleCycle)
    assert outcome.points[0] == outcome.points[-1] == "u"


def test_context_passing_self_loop_is_fine():
    scheme = parse_scheme_file(SCHEME_CTX_SELF)
    assert check_stratified(scheme) == {"u": 0}


def test_check_levels_rejects_bad_witness(nested):
    assert not check_levels(nested, {"u": 0, "v": 0})
    assert not check_levels(nested, {"u": 0, "v": 1})


# --- termination on stratified schemes ------------------------------------------------

# The nested schemes without v's clamp: v's values grow without bound, so
# only widening makes them terminate.
GROWING = [f"scheme {lattice}\nstart u {start}\n"
           "point u = join (cell v (cell v (cell u ctx))) ctx\n"
           "point v = join (apply inc (cell v ctx)) ctx\n"
           for lattice, start in (("natinf", "0"), ("interval", "[0,0]"))]


@pytest.mark.parametrize("text", [SCHEME_NESTED_NATINF, SCHEME_NESTED_INTERVAL, *GROWING],
                         ids=["natinf", "interval", "natinf-growing", "interval-growing"])
@pytest.mark.parametrize("solver", [tsmp, tstp])
def test_stratified_schemes_terminate(text, solver):
    scheme = parse_scheme_file(text)
    system = instantiate_system(scheme)
    result = solve_capped(solver, system, scheme.start, scheme.ops)
    assert result.status is SolveStatus.COMPLETED
    assert scheme.start in result.assignment.dom
    per_point = {}
    for point, ctx in result.assignment.dom:
        per_point.setdefault(point, set()).add(ctx)
    for point, contexts in per_point.items():
        assert len(contexts) <= 20


def test_same_level_queries_share_the_context(nested):
    system = instantiate_system(nested)
    levels = check_stratified(nested)
    result = tsmp(system, nested.start, nested.ops)
    lookup = extend_top(result.assignment)
    for point, ctx in result.assignment.dom:
        for dep_point, dep_ctx in tree_dep(system.rhs((point, ctx)), lookup):
            if levels[dep_point] == levels[point]:
                assert nested.ops.eq(dep_ctx, ctx)


# --- finite-lattice agreement with brute force -------------------------------------------

FINITE_SCHEME = """\
scheme chain 3
start u 2
point u = join (cell v (cell v ctx)) ctx
point v = join (apply inc (cell v ctx)) ctx
"""


def test_finite_scheme_matches_kleene():
    scheme = parse_scheme_file(FINITE_SCHEME)
    lazy = instantiate_system(scheme)
    all_vars = [(p, a) for p in scheme.rhs for a in scheme.ops.values()]
    full = EquationSystem(lambda v: lazy.rhs(v), all_vars=all_vars)
    least = kleene_least_solution(full, scheme.ops)
    for solver in (tsmp, tstp):
        result = solver(lazy, scheme.start, scheme.ops)
        assert result.status is SolveStatus.COMPLETED
        for var, value in result.assignment.items():
            assert scheme.ops.eq(value, least[var])
