"""Solver behavior on the worked systems plus corpus-level guarantees."""

import contextlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from latfix import (
    Answer,
    CounterexampleCycle,
    EquationSystem,
    Query,
    SolveStatus,
    UnknownVariableError,
    VarBudgetExceeded,
    gen_random_system,
    is_closed,
    is_post_solution,
    is_post_solution_lower_mono,
    tsmp,
    tsrr,
    tstp,
    warrow_solve,
)
from latfix.cli import parse_finite_file, parse_scheme_file
from latfix.eqsys import Program
from latfix.interproc import check_stratified, instantiate_system
from latfix.lattice import INF, Chain, Powerset

from fixtures import (
    EX1_CHAIN4,
    EX1_NATINF,
    EX5_NATINF,
    ITE_READS_NATINF,
    LIT5_NATINF,
    MONOTONE_CHAIN5,
    SCHEME_RECURSIVE,
    capped,
    check_levels,
    counted,
    default_recursion_limit,
    random_corpus,
    reference_tsmp,
    reference_tsrr,
    reference_tstp,
    ring_text,
    solve_capped,
    stratified_chain_text,
)
from oracle_ref import system_of

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def values_of(result):
    ops = result.assignment.ops
    return {v: d for v, d in result.assignment.items()}


@pytest.fixture(scope="module")
def ex5():
    return parse_finite_file(EX5_NATINF)


@pytest.fixture(scope="module")
def ex1():
    return parse_finite_file(EX1_NATINF)


# --- tsrr ------------------------------------------------------------------------

def test_tsrr_terminates_on_flip_flop(ex1):
    result = tsrr(ex1.variables, ex1.system, ex1.ops)
    assert result.status is SolveStatus.COMPLETED
    # Oracle check needs a finite lattice: same system encoded on a chain.
    finite = parse_finite_file(EX1_CHAIN4)
    finite_result = tsrr(finite.variables, finite.system, finite.ops)
    assert is_post_solution_lower_mono(
        finite_result.assignment, finite.system, finite.ops)


def test_tsrr_constant():
    prog = parse_finite_file(LIT5_NATINF)
    result = tsrr(prog.variables, prog.system, prog.ops)
    assert values_of(result) == {"y": 5}


def test_tsrr_monotone_join():
    prog = parse_finite_file(MONOTONE_CHAIN5)
    result = tsrr(prog.variables, prog.system, prog.ops)
    assert prog.ops.leq(3, result.assignment["y1"])
    assert is_post_solution(result.assignment, prog.system)


def test_tsrr_unknown_variable_is_reported(ex1):
    system = system_of({"y1": Query("ghost", Answer)}, all_vars=["y1"])
    with pytest.raises(UnknownVariableError) as err:
        tsrr(["y1"], system, ex1.ops)
    assert err.value.var == "ghost"


def test_tsrr_rejects_a_variable_listed_twice(ex5):
    with pytest.raises(ValueError, match="'y1'"):
        tsrr(["y1", "y2", "y1"], ex5.system, ex5.ops)


def _agrees_with_reference(variables, system, ops):
    """tsrr's and the recursive reference's results, once they agree and tsrr costs no more."""
    result = tsrr(variables, system, ops)
    reference = reference_tsrr(variables, system, ops)
    assert list(result.assignment.items()) == list(reference.assignment.items())
    assert result.status is reference.status
    for field in ("vars_encountered", "fuel_used"):
        assert getattr(result.stats, field) == getattr(reference.stats, field)
    for field in ("rhs_evals", "widen_apps", "narrow_apps"):
        assert getattr(result.stats, field) <= getattr(reference.stats, field)
    return result, reference


def test_tsrr_agrees_with_recursive_reference():
    runs = [_agrees_with_reference(gen.variables, gen.system, gen.ops)
            for gen in random_corpus(500)]
    for path in sorted(SAMPLES.glob("*.lat")):
        prog = parse_finite_file(path.read_text())
        runs.append(_agrees_with_reference(prog.variables, prog.system, prog.ops))
    for field in ("rhs_evals", "narrow_apps"):
        assert (sum(getattr(result.stats, field) for result, _ in runs)
                < sum(getattr(reference.stats, field) for _, reference in runs))


def test_tsrr_follows_reads_that_a_branch_changes():
    prog = parse_finite_file(ITE_READS_NATINF)
    result, _ = _agrees_with_reference(prog.variables, prog.system, prog.ops)
    assert values_of(result) == {"y1": 2, "y2": 3, "y3": 4}


def test_tsrr_reopens_a_level_when_a_sweep_flips_its_flag():
    # y2's narrowing sweep leaves y3 at 1 although its result inf is not
    # below 1: the flag alone keeps it.  y1's widening then starts a sweep
    # with the flag unset, under which y3 widens to inf.
    prog = parse_finite_file(
        "lattice natinf\nvar y1 = lit 2\nvar y2 = lit 5\n"
        "var y3 = ite (leq (lit inf) (get y2)) (lit 1) (lit inf)\n")
    result, _ = _agrees_with_reference(prog.variables, prog.system, prog.ops)
    assert values_of(result) == {"y1": 2, "y2": 5, "y3": INF}


def test_tsrr_solves_rings_deeper_than_the_recursion_limit():
    prog = parse_finite_file(ring_text(1500))
    with default_recursion_limit():
        result = tsrr(prog.variables, prog.system, prog.ops)
    assert set(values_of(result).values()) == {50}


def test_tsrr_ring_costs_grow_linearly():
    # Each change re-applies the rule only where it can reach: the full
    # sweeps applied it some n * n times here.
    n = 100_000
    prog = parse_finite_file(ring_text(n))
    result = tsrr(prog.variables, prog.system, prog.ops)
    assert set(values_of(result).values()) == {50}
    assert result.stats.rhs_evals == n + 51
    assert result.stats.widen_apps <= n + 100
    assert result.stats.narrow_apps <= 3 * n


# --- depth: the demand-driven solvers keep their frames off Python's stack ---------

def test_demand_driven_solvers_solve_rings_deeper_than_the_recursion_limit():
    n = 10_000
    prog = parse_finite_file(ring_text(n))
    with default_recursion_limit():
        results = [solver(prog.system, "y0", prog.ops) for solver in (tstp, tsmp)]
        warrowed = warrow_solve(prog.system, "y0", prog.ops, n + 50)
    for result in results:
        assert result.status is SolveStatus.COMPLETED
        assert set(values_of(result).values()) == {50}
    assert warrowed.status is SolveStatus.COMPLETED
    assert warrowed.assignment.dom == results[0].assignment.dom


@pytest.mark.parametrize("nvars", [700, 5300])
def test_demand_driven_solvers_solve_deep_random_systems(nvars):
    gen = gen_random_system(7, nvars, Chain(5), 3, False)
    with default_recursion_limit():
        results = [solver(gen.system, gen.variables[0], gen.ops) for solver in (tstp, tsmp)]
    for result in results:
        assert result.status is SolveStatus.COMPLETED
        assert is_closed(result.assignment, gen.system)
    assert is_post_solution(results[0].sigma0, gen.system)
    if nvars > 5000:
        assert results[0].stats.vars_encountered >= 5000


def test_demand_driven_solvers_solve_a_deep_stratified_chain():
    n = 8000
    scheme = parse_scheme_file(stratified_chain_text(n))
    levels = check_stratified(scheme)
    assert levels == {f"p{i}": n - 1 - i for i in range(n)}
    assert check_levels(scheme, levels)
    system = instantiate_system(scheme)
    for solver in (tstp, tsmp):
        with default_recursion_limit():
            result = solver(system, scheme.start, scheme.ops, fuel=4 * n)
        assert result.status is SolveStatus.COMPLETED
        assert result.stats.vars_encountered == 2 * n - 1
        assert result.stats.rhs_evals == 4 * n
        assert is_closed(result.assignment, system)


# --- tstp -------------------------------------------------------------------------

def test_tstp_two_phase_results(ex5):
    result = tstp(ex5.system, "y1", ex5.ops)
    assert result.status is SolveStatus.COMPLETED
    assert {v: d for v, d in result.sigma0.items()} == {
        "y1": INF, "y2": INF, "y3": INF}
    assert values_of(result) == {"y1": INF, "y2": 2, "y3": 3}
    assert result.sigma0.dom >= result.assignment.dom
    assert "y1" in result.assignment.dom
    assert result.stats.vars_encountered == 3


def test_tstp_sigma0_is_post_solution(ex5):
    result = tstp(ex5.system, "y1", ex5.ops)
    assert is_post_solution(result.sigma0, ex5.system)
    assert is_closed(result.sigma0, ex5.system)
    assert is_closed(result.assignment, ex5.system)


def test_tstp_reused_result_spends_no_fuel(ex1):
    # One variable, so no nested first touch: the evaluation saved against
    # the reference is a phase-0 result reused in phase 1.
    unfueled = tstp(ex1.system, "y1", ex1.ops)
    assert unfueled.stats.rhs_evals < reference_tstp(ex1.system, "y1", ex1.ops).stats.rhs_evals
    exact = tstp(ex1.system, "y1", ex1.ops, fuel=unfueled.stats.rhs_evals)
    assert exact.status is SolveStatus.COMPLETED
    assert exact.assignment == unfueled.assignment
    assert exact.sigma0 == unfueled.sigma0
    short = tstp(ex1.system, "y1", ex1.ops, fuel=unfueled.stats.rhs_evals - 1)
    assert short.status is SolveStatus.FUEL_EXHAUSTED


# --- tsmp -------------------------------------------------------------------------

def test_tsmp_mixed_phase_keeps_precision(ex5):
    result = tsmp(ex5.system, "y1", ex5.ops)
    assert result.status is SolveStatus.COMPLETED
    assert values_of(result) == {"y1": 2, "y2": 2, "y3": 3}
    assert result.stats.vars_encountered == 3


def test_tsmp_flip_flop_quick(ex1):
    result = tsmp(ex1.system, "y1", ex1.ops)
    assert values_of(result) == {"y1": 1}
    assert result.stats.rhs_evals <= 5


def test_tsmp_constant_single_eval():
    prog = parse_finite_file(LIT5_NATINF)
    result = tsmp(prog.system, "y", prog.ops)
    assert values_of(result) == {"y": 5}
    # No self-influence, so the single update is never re-examined.
    assert result.stats.rhs_evals == 1


# --- warrowing baseline -------------------------------------------------------------

def test_warrow_diverges_on_flip_flop(ex1):
    result = warrow_solve(ex1.system, "y1", ex1.ops, 1000)
    assert result.status is SolveStatus.FUEL_EXHAUSTED
    assert result.stats.fuel_used == 1000
    assert result.assignment.dom == {"y1"}


def test_warrow_on_min_max_system(ex5):
    result = warrow_solve(ex5.system, "y1", ex5.ops, 1000)
    assert result.status is SolveStatus.COMPLETED
    # y2/y3 agree with tsmp; the self-dependent y1 widens on its first
    # update under warrowing and is stuck at top from then on.
    assert values_of(result) == {"y1": INF, "y2": 2, "y3": 3}
    assert is_post_solution(result.assignment, ex5.system)


def test_warrow_constant():
    prog = parse_finite_file(LIT5_NATINF)
    result = warrow_solve(prog.system, "y", prog.ops, 3)
    assert result.status is SolveStatus.COMPLETED
    assert values_of(result) == {"y": 5}


def test_warrow_rejects_zero_fuel(ex1):
    with pytest.raises(ValueError):
        warrow_solve(ex1.system, "y1", ex1.ops, 0)


def test_warrow_runs_dry_before_requesting_an_unknown_variable(ex1):
    # y2's right-hand side is requested at its first evaluation, which the
    # fuel check comes before; requested at discovery it would raise.
    system = system_of({"y1": Query("y2", Answer)})
    result = warrow_solve(system, "y1", ex1.ops, 1)
    assert result.status is SolveStatus.FUEL_EXHAUSTED
    assert result.assignment.dom == {"y1", "y2"}


# --- fuel for tstp and tsmp ---------------------------------------------------------

@pytest.mark.parametrize("solver", [tstp, tsmp])
def test_fuel_stops_tstp_and_tsmp(ex5, solver):
    unlimited = solver(ex5.system, "y1", ex5.ops)
    assert unlimited.stats.fuel_used == 0
    ample = solver(ex5.system, "y1", ex5.ops, fuel=unlimited.stats.rhs_evals)
    assert ample.status is SolveStatus.COMPLETED
    assert ample.assignment == unlimited.assignment
    assert ample.stats.fuel_used == ample.stats.rhs_evals
    short = solver(ex5.system, "y1", ex5.ops, fuel=2)
    assert short.status is SolveStatus.FUEL_EXHAUSTED
    assert short.stats.rhs_evals == short.stats.fuel_used == 2
    # tstp ran dry in its widening phase, before sigma1 was started.
    partial = short.sigma0 if solver is tstp else short.assignment
    assert "y1" in partial.values
    assert (short.sigma0 is not None) == (solver is tstp)
    with pytest.raises(ValueError):
        solver(ex5.system, "y1", ex5.ops, fuel=0)


# --- one right-hand-side request per variable and solve ---------------------------

def _max_requests(name, system, start, ops, variables=None):
    system, requests = counted(system)
    with contextlib.suppress(VarBudgetExceeded):
        if name == "tsrr":
            tsrr(variables, system, ops)
        elif name == "warrow":
            warrow_solve(system, start, ops, 200, var_budget=50)
        else:
            solve_capped(tstp if name == "tstp" else tsmp, system, start, ops, var_budget=50)
    return max(requests.values())


@pytest.mark.parametrize("name", ["tsrr", "tstp", "tsmp", "warrow"])
def test_each_right_hand_side_is_requested_once_per_solve(name):
    for gen in random_corpus(200):
        assert _max_requests(name, gen.system, gen.variables[0], gen.ops,
                             gen.variables) == 1
    if name != "tsrr":
        for path in sorted(SAMPLES.glob("*.sch")):
            scheme = parse_scheme_file(path.read_text())
            assert _max_requests(name, instantiate_system(scheme), scheme.start,
                                 scheme.ops) == 1, path.name


# --- budget ----------------------------------------------------------------------

def test_var_budget_surfaces_runaway_contexts():
    scheme = parse_scheme_file(SCHEME_RECURSIVE)
    system = instantiate_system(scheme)
    with pytest.raises(VarBudgetExceeded):
        tsmp(system, scheme.start, scheme.ops, var_budget=40)
    with pytest.raises(VarBudgetExceeded):
        tstp(system, scheme.start, scheme.ops, var_budget=40)


# --- narrowing-clip regressions of the demand-driven solvers ---------------------
#
# On non-monotonic systems a right-hand side may return a HIGHER value during
# the narrowing phase, because it read a lower one.  Were a non-point simply
# overwritten with it, a reader re-evaluated at a widening/narrowing point
# would have to stay below its old value under `narrow` and would be clipped
# below the lower monotonization.  Narrowing-phase updates of non-points are
# therefore clamped with `meet`, so every narrowing-phase value only descends
# and the result stays a post-solution of the lower monotonization.  The two
# minimal systems below are regressions for that clamp: without it both
# solvers clip them, with it they agree with the round-robin solver.

TWO_PHASE_CLIP = (
    "lattice chain 2\n"
    "var y1 = ite (eq (meet (lit 0) (get y4)) (lit 1)) (get y2)"
    " (join (lit 0) (lit 1))\n"
    "var y2 = lit 0\n"
    "var y3 = ite (eq (ite (eq (lit 1) (get y4)) (get y4) (get y4)) (lit 0))"
    " (ite (eq (get y2) (get y3)) (get y1) (get y3)) (get y2)\n"
    "var y4 = ite (leq (meet (lit 0) (lit 1))"
    " (ite (leq (get y1) (get y2)) (lit 0) (lit 0)))"
    " (get y3) (ite (leq (get y2) (get y3)) (get y1) (get y4))\n"
)

MIXED_PHASE_CLIP = """\
lattice powerset a
var y1 = join (ite (eq (get y1) (get y1)) (lit {}) (get y1)) (get y3)
var y2 = ite (eq (get y1) (meet (lit {}) (get y3))) (lit {a}) (lit {})
var y3 = get y2
"""


def _assert_sound(prog, result):
    assert result.status is SolveStatus.COMPLETED
    assert is_closed(result.assignment, prog.system)
    assert is_post_solution_lower_mono(result.assignment, prog.system,
                                       prog.ops)


def test_pinned_narrowing_clip_two_phase():
    prog = parse_finite_file(TWO_PHASE_CLIP)
    round_robin = tsrr(prog.variables, prog.system, prog.ops)
    assert is_post_solution_lower_mono(round_robin.assignment, prog.system,
                                       prog.ops)
    expected = {"y1": 1, "y2": 0, "y3": 0, "y4": 0}
    assert values_of(round_robin) == expected
    for solver in (tstp, tsmp):
        result = solver(prog.system, "y1", prog.ops)
        _assert_sound(prog, result)
        # y4's equation is semantically "y4 = y3".
        assert result.assignment["y4"] == result.assignment["y3"]
        assert values_of(result) == expected
    # The widening-phase assignment keeps its guarantee.
    two_phase = tstp(prog.system, "y1", prog.ops)
    assert is_post_solution(two_phase.sigma0, prog.system)
    assert is_closed(two_phase.sigma0, prog.system)


def test_pinned_narrowing_clip_mixed_phase():
    prog = parse_finite_file(MIXED_PHASE_CLIP)
    round_robin = tsrr(prog.variables, prog.system, prog.ops)
    assert is_post_solution_lower_mono(round_robin.assignment, prog.system,
                                       prog.ops)
    expected = {"y1": frozenset(), "y2": frozenset(), "y3": frozenset()}
    assert values_of(round_robin) == expected
    for solver in (tstp, tsmp):
        result = solver(prog.system, "y1", prog.ops)
        _assert_sound(prog, result)
        # y3's equation is the identity on y2.
        assert result.assignment["y3"] == result.assignment["y2"]
        assert values_of(result) == expected


# --- corpus properties --------------------------------------------------------------

CORPUS = random_corpus(120)


@pytest.mark.parametrize("solver_name", ["tsrr", "tstp", "tsmp"])
def test_corpus_terminates_sound_and_closed(solver_name):
    for gen in CORPUS:
        if solver_name == "tsrr":
            result = tsrr(gen.variables, gen.system, gen.ops)
        elif solver_name == "tstp":
            result = tstp(gen.system, gen.variables[0], gen.ops)
        else:
            result = tsmp(gen.system, gen.variables[0], gen.ops)
        assert result.status is SolveStatus.COMPLETED
        assert is_closed(result.assignment, gen.system)
        assert is_post_solution_lower_mono(result.assignment, gen.system, gen.ops)
        if solver_name == "tstp":
            assert is_closed(result.sigma0, gen.system)
            assert is_post_solution(result.sigma0, gen.system)


def test_corpus_monotone_case_gives_post_solutions():
    for gen in random_corpus(80, monotone_only=True, seed_base=1):
        results = [
            tsrr(gen.variables, gen.system, gen.ops),
            tstp(gen.system, gen.variables[0], gen.ops),
            tsmp(gen.system, gen.variables[0], gen.ops),
            warrow_solve(gen.system, gen.variables[0], gen.ops, 10**5),
        ]
        for result in results:
            assert result.status is SolveStatus.COMPLETED
            assert is_post_solution(result.assignment, gen.system)


# --- termination on infinite lattices, via hypothesis ------------------------------
#
# Intervals have infinite descending chains, so the narrowing-phase `meet` on
# non-points must not keep a run from terminating.  Systems mix `inc` with
# non-monotonic `ite` and go through the file parser.

NATINF_LITS = st.sampled_from(["0", "1", "2", "5", "inf"])
INTERVAL_LITS = st.sampled_from(
    ["bot", "[0,0]", "[0,3]", "[-2,5]", "[1,inf]", "[-inf,0]", "[-inf,inf]"])


def _expressions(names, lits):
    leaves = st.one_of(st.sampled_from(names).map("get {}".format),
                       lits.map("lit {}".format))

    def extend(sub):
        arg = sub.map("({})".format)
        return st.one_of(
            st.builds("{} {} {}".format, st.sampled_from(["join", "meet"]),
                      arg, arg),
            arg.map("inc {}".format),
            st.builds("ite ({} {} {}) {} {}".format,
                      st.sampled_from(["eq", "leq"]), arg, arg, arg, arg),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def infinite_lattice_files(draw):
    lattice, lits = draw(st.sampled_from(
        [("natinf", NATINF_LITS), ("interval", INTERVAL_LITS)]))
    names = [f"y{i}" for i in range(1, draw(st.integers(1, 5)) + 1)]
    exprs = _expressions(names, lits)
    lines = [f"lattice {lattice}"]
    lines += [f"var {v} = {draw(exprs)}" for v in names]
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(infinite_lattice_files())
def test_demand_driven_solvers_terminate_on_infinite_lattices(text):
    prog = parse_finite_file(text)
    for solver in (tstp, tsmp):
        result = solve_capped(solver, prog.system, prog.variables[0], prog.ops)
        assert result.status is SolveStatus.COMPLETED
        assert is_closed(result.assignment, prog.system)


@settings(deadline=None)
@given(infinite_lattice_files(), st.randoms(use_true_random=False))
def test_tsrr_agrees_with_reference_on_infinite_lattices(text, rng):
    # Real widening and narrowing, where a level settled by its flag alone
    # must be re-opened when a later sweep flips the flag.
    prog = parse_finite_file(text)
    variables = list(prog.variables)
    rng.shuffle(variables)
    _agrees_with_reference(variables, capped(prog.system), prog.ops)


# Stratified schemes: a cell to a point at the caller's level passes exactly
# `ctx`, and a cell to a lower level may compute any context.  This is the
# condition under which the demand-driven solvers meet finitely many contexts
# per point.

SCHEME_BUILTINS = {
    "natinf": ["inc", "dec", "id", "add_const:2", "meet_const:6", "join_const:1"],
    "interval": ["inc", "dec", "id", "add_const:-1", "meet_const:[-3,6]",
                 "join_const:[1,2]"],
}


@st.composite
def stratified_scheme_files(draw):
    lattice, lits = draw(st.sampled_from(
        [("natinf", NATINF_LITS), ("interval", INTERVAL_LITS)]))
    points = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    level = {u: draw(st.integers(0, 2)) for u in points}

    def form(caller, depth):
        same = [u for u in points if level[u] == level[caller]]
        lower = [u for u in points if level[u] < level[caller]]
        kinds = ["ctx", "lit", "cell-same"]
        if depth > 0:
            kinds += ["join", "meet", "apply"] + (["cell-lower"] if lower else [])
        kind = draw(st.sampled_from(kinds))
        sub = lambda: f"({form(caller, depth - 1)})"
        if kind == "ctx":
            return "ctx"
        if kind == "lit":
            return f"lit {draw(lits)}"
        if kind == "cell-same":
            return f"cell {draw(st.sampled_from(same))} ctx"
        if kind == "cell-lower":
            return f"cell {draw(st.sampled_from(lower))} {sub()}"
        if kind == "apply":
            return f"apply {draw(st.sampled_from(SCHEME_BUILTINS[lattice]))} {sub()}"
        return f"{kind} {sub()} {sub()}"

    lines = [f"scheme {lattice}", f"start {points[0]} {draw(lits)}"]
    lines += [f"point {u} = {form(u, 3)}" for u in points]
    return "\n".join(lines) + "\n"


# A same-level loop whose value grows without bound: only widening stops it.
GROWING_LOOP = "point p0 = join ctx (apply inc (cell p0 ctx))\n"


@settings(deadline=None)
@given(stratified_scheme_files())
@example("scheme natinf\nstart p0 0\n" + GROWING_LOOP)
@example("scheme interval\nstart p0 [0,0]\n" + GROWING_LOOP)
def test_demand_driven_solvers_terminate_on_stratified_schemes(text):
    scheme = parse_scheme_file(text)
    levels = check_stratified(scheme)
    assert isinstance(levels, dict) and check_levels(scheme, levels)
    system = instantiate_system(scheme)
    for solver in (tstp, tsmp):
        result = solve_capped(solver, system, scheme.start, scheme.ops,
                              var_budget=5000)
        assert result.status is SolveStatus.COMPLETED
        assert is_closed(result.assignment, system)


# tstp against the two-phase solver as it was before it reused recorded
# results: the same assignments, sigma0, status, variables, widenings and
# narrowings, and no more evaluations.  Natinf and interval inputs are drawn
# along with finite ones because there skipping an evaluation, rather than
# reusing its result, shows: in DOUBLE_FIRST_TOUCH the queue first touches
# y2, a point, whose first phase-1 evaluation narrows 7 to 7 and consumes the
# point mark; the second, unmarked, takes the meet with 4.  Dropping that
# second evaluation would leave y2 at 7.

DOUBLE_FIRST_TOUCH = """\
lattice natinf
var y1 = inc (inc (ite (eq (get y1) (get y2)) (get y1) (lit 0)))
var y2 = inc (inc (ite (eq (get y4) (lit 2)) (lit 5) (get y1)))
var y3 = get y1
var y4 = inc (inc (ite (leq (lit 1) (get y2)) (get y2) (get y1)))
"""

# A replay ends in one of five ways, and REPLAY_EXITS holds a system for each,
# in this order.  Every value read is as recorded: y1 reads itself twice.  The
# first of two reads differs: y1's narrowing lowers y1, so its next replay
# differs at once.  The last of two differs, the same way.  A read of y2, not
# yet in sigma1, suspends y1's replay, which matches once y2 has entered.
# The same suspension, but y2's phase-1 solve lowers y2 from 2 to 1, so the
# resumed read differs, and y1, a point, must be narrowed with what the
# program returns.

REPLAY_EXITS = [
    "lattice chain 3\nvar y1 = meet (get y1) (get y1)\n",
    "lattice chain 3\n"
    "var y1 = meet (join (lit 2) (get y1)) (ite (leq (get y1) (lit 1)) (lit 2) (lit 1))\n",
    "lattice chain 4\nvar y1 = ite (eq (get y2) (get y1)) (lit 0) (lit 3)\n"
    "var y2 = join (get y2) (lit 3)\n",
    "lattice chain 3\nvar y1 = get y2\nvar y2 = lit 0\n",
    "lattice chain 3\nvar y1 = join (get y2) (meet (get y1) (get y3))\n"
    "var y2 = ite (leq (get y2) (get y3)) (lit 2) (lit 1)\nvar y3 = get y3\n",
]

# Why a replay that stops at a mismatch feeds the program the values it read,
# rather than rerunning it on the current ones: a value read before the replay
# suspends can change while it is suspended.  y1's replay reads y2 (8, as
# recorded) and suspends on y4.  Entering y4 re-evaluates y2, which read y4 in
# phase 0 and has no point mark left, so y2 takes the meet and drops to 1.
# y4 then differs from its record.  Fed y2 = 8, y1's program returns y4 = 4,
# as the reference's does; a rerun would read y2 = 1, return 9 and leave y1
# at 9, not 4.  `tstp_inputs` draws variants of this shape as well.

REPLAY_READ_CHANGES = """\
lattice natinf
var y1 = ite (leq (get y2) (lit 2)) (lit 9) (get y4)
var y2 = ite (leq (get y3) (lit 5)) (lit 1) (meet (get y4) (lit 8))
var y3 = meet (inc (get y3)) (join (lit 3) (meet (get y2) (lit 0)))
var y4 = meet (inc (get y4)) (lit 4)
"""

FINITE_DESCRIPTORS = [Chain(3), Chain(5), Powerset(("a", "b")), Powerset(("a", "b", "c"))]


@st.composite
def replay_read_changes_files(draw):
    """Natinf variants of REPLAY_READ_CHANGES' shape: y1 branches on a variable B
    and otherwise reads K; B falls once the counter C settles and reads K; C and
    K are clamped counters.  The constants are drawn, so are the names B, C, K
    take among y2-y4, their declaration order and the order of C's two reads,
    and 0-2 extra join/meet variables, each read by one drawn variable through
    `meet (get x) (lit 0)`, a read that adds nothing to a natinf join.
    """
    a, b, c, d, e, f, g = (draw(st.integers(lo, hi)) for lo, hi in
                           ((0, 4), (5, 12), (2, 8), (0, 3), (5, 12), (1, 5), (2, 7)))
    names = draw(st.permutations(["y2", "y3", "y4"]))
    B, C, K = names
    counter = [f"(inc (get {C}))", f"(join (lit {f}) (meet (get {B}) (lit 0)))"]
    if draw(st.booleans()):
        counter.reverse()
    rhs = {"y1": f"ite (leq (get {B}) (lit {a})) (lit {b}) (get {K})",
           B: f"ite (leq (get {C}) (lit {c})) (lit {d}) (meet (get {K}) (lit {e}))",
           C: "meet {} {}".format(*counter),
           K: f"meet (inc (get {K})) (lit {g})"}
    order = ["y1", *draw(st.permutations(names))]
    for x in ("y5", "y6")[:draw(st.integers(0, 2))]:
        rhs[x] = "{} (get {}) (get {})".format(draw(st.sampled_from(["join", "meet"])),
                                               draw(st.sampled_from(order)),
                                               draw(st.sampled_from(order)))
        v = draw(st.sampled_from(order))
        read = f"(meet (get {x}) (lit 0))"
        rhs[v] = f"join ({rhs[v]}) {read}" if draw(st.booleans()) else f"join {read} ({rhs[v]})"
        order.append(x)
    return "lattice natinf\n" + "".join(f"var {v} = {rhs[v]}\n" for v in order)


@st.composite
def tstp_inputs(draw):
    """A random input as what reproduces it: ("finite", seed, nvars, descriptor,
    depth) for `gen_random_system`, ("file", text) for a natinf/interval or
    replay-shaped natinf file, or ("scheme", text) for a stratified scheme."""
    kind = draw(st.sampled_from(["finite", "infinite", "replay", "scheme"]))
    if kind == "finite":
        return ("finite", draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 30)),
                draw(st.sampled_from(FINITE_DESCRIPTORS)), draw(st.integers(1, 3)))
    if kind == "scheme":
        return ("scheme", draw(stratified_scheme_files()))
    files = infinite_lattice_files() if kind == "infinite" else replay_read_changes_files()
    return ("file", draw(files))


def built(case):
    """(system, start, ops) of a `tstp_inputs` case."""
    kind, *args = case
    if kind == "finite":
        gen = gen_random_system(*args, False)
        return gen.system, gen.variables[0], gen.ops
    if kind == "file":
        prog = parse_finite_file(*args)
        return prog.system, prog.variables[0], prog.ops
    scheme = parse_scheme_file(*args)
    return instantiate_system(scheme), scheme.start, scheme.ops


@settings(deadline=None)
@given(tstp_inputs())
@example(("file", EX5_NATINF))
@example(("file", DOUBLE_FIRST_TOUCH))
@example(("file", REPLAY_EXITS[0]))
@example(("file", REPLAY_EXITS[1]))
@example(("file", REPLAY_EXITS[2]))
@example(("file", REPLAY_EXITS[3]))
@example(("file", REPLAY_EXITS[4]))
@example(("file", REPLAY_READ_CHANGES))
def test_tstp_agrees_with_reference(case):
    system, start, ops = built(case)
    result = tstp(capped(system), start, ops, var_budget=5000)
    reference = reference_tstp(capped(system), start, ops, var_budget=5000)
    assert list(result.assignment.items()) == list(reference.assignment.items())
    assert list(result.sigma0.items()) == list(reference.sigma0.items())
    assert result.status is reference.status
    for field in ("vars_encountered", "widen_apps", "narrow_apps", "fuel_used"):
        assert getattr(result.stats, field) == getattr(reference.stats, field)
    assert result.stats.rhs_evals <= reference.stats.rhs_evals


# tsmp against the mixed-phase solver as it iterated on the recursive core:
# the same assignment, status and counts, run to the end and on a fuel that
# often runs dry first.

@settings(deadline=None)
@given(tstp_inputs(), st.integers(1, 100))
@example(("file", EX5_NATINF), 3)
@example(("file", MIXED_PHASE_CLIP), 4)
def test_tsmp_agrees_with_reference(case, fuel):
    system, start, ops = built(case)
    for limit in ({}, {"fuel": fuel}):
        result = tsmp(capped(system), start, ops, var_budget=5000, **limit)
        reference = reference_tsmp(capped(system), start, ops, var_budget=5000, **limit)
        assert list(result.assignment.items()) == list(reference.assignment.items())
        assert result.status is reference.status
        assert result.stats == reference.stats


# A replay that stops at a mismatch feeds the program the values already read,
# so that look-up happens once; but a replay resumed after a suspension looks
# up the read it stopped at again, as its frame keeps no slot.  So tstp looks
# up the reference's variables, each at least as often, and exactly as often
# where every replay matches and none suspends (REPLAY_EXITS[0]).
# Look-ups are counted by variable names that count their hashes; either
# solver hashes a variable once per look-up, once on discovery and once per
# assignment it returns.

def _counting_names(system):
    """`system` over equal names that count their hashes, the name type and the counts."""
    hashes = Counter()

    class Name(str):
        def __hash__(self):
            hashes[str(self)] += 1
            return str.__hash__(self)

    def rhs(var):
        tree = system.rhs(var)
        if tree.__class__ is Program:  # a finite file's only str operands are variables
            tree = Program(tuple(Name(x) if isinstance(x, str) else x for x in tree.code),
                           tree.ops, tree.ctx)
        return tree

    return EquationSystem(rhs), Name, hashes


@pytest.mark.parametrize("text", [EX1_CHAIN4, EX5_NATINF, DOUBLE_FIRST_TOUCH, *REPLAY_EXITS])
def test_tstp_looks_each_variable_up_as_the_reference_does(text):
    prog = parse_finite_file(text)
    looked_up, evals = [], []
    for solver in (tstp, reference_tstp):
        system, name, hashes = _counting_names(prog.system)
        result = solver(system, name(prog.variables[0]), prog.ops)
        looked_up.append(hashes)
        evals.append(result.stats.rhs_evals)
    assert looked_up[0].keys() == looked_up[1].keys()
    assert looked_up[0] >= looked_up[1]
    if text == REPLAY_EXITS[0]:
        assert looked_up[0] == looked_up[1]
    assert evals[0] < evals[1]


# Both systems' replays stop at mismatches, where the program runs instead and
# spends fuel like any evaluation: every fuel short of the unfueled run's
# evaluations runs dry on exactly that fuel, and that many complete the run.

@pytest.mark.parametrize("text", [EX5_NATINF, DOUBLE_FIRST_TOUCH])
def test_tstp_runs_dry_at_every_fuel_below_its_evaluations(text):
    prog = parse_finite_file(text)
    start = prog.variables[0]
    unfueled = tstp(prog.system, start, prog.ops)
    for fuel in range(1, unfueled.stats.rhs_evals):
        short = tstp(prog.system, start, prog.ops, fuel=fuel)
        assert short.status is SolveStatus.FUEL_EXHAUSTED
        assert short.stats.fuel_used == fuel
    exact = tstp(prog.system, start, prog.ops, fuel=unfueled.stats.rhs_evals)
    assert exact.status is SolveStatus.COMPLETED
    assert exact.assignment == unfueled.assignment
    assert exact.sigma0 == unfueled.sigma0


# The converse: a demand-driven solver fails to terminate only by meeting
# infinitely many variables.  Where calls keep making fresh contexts, a run
# ends at the variable budget, never by running out of fuel.

RUNAWAY_SCHEMES = [
    (SAMPLES / "recursive.sch").read_text(),
    "scheme natinf\nstart u 0\npoint u = cell u (apply add_const:2 ctx)\n",
    "scheme natinf\nstart u 0\n"
    "point u = join (apply inc (cell u ctx)) (cell u (apply add_const:2 ctx))\n",
    "scheme natinf\nstart u 0\npoint u = cell v (apply inc ctx)\n"
    "point v = join ctx (cell u ctx)\n",
    "scheme interval\nstart u [0,0]\npoint u = join ctx (cell u (apply dec ctx))\n",
]


@pytest.mark.parametrize("text", RUNAWAY_SCHEMES)
@pytest.mark.parametrize("solver", [tstp, tsmp])
def test_only_infinitely_many_variables_defeat_termination(text, solver):
    scheme = parse_scheme_file(text)
    assert isinstance(check_stratified(scheme), CounterexampleCycle)
    with pytest.raises(VarBudgetExceeded):
        solver(instantiate_system(scheme), scheme.start, scheme.ops,
               var_budget=50, fuel=10**5)


def test_stats_are_deterministic(ex5):
    runs = [tsmp(ex5.system, "y1", ex5.ops) for _ in range(2)]
    assert runs[0].stats == runs[1].stats
    assert runs[0].assignment == runs[1].assignment
    two_phase = [tstp(ex5.system, "y1", ex5.ops) for _ in range(2)]
    assert two_phase[0].stats == two_phase[1].stats
