"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion also asserts its stated time budget.
"""

import io
import itertools
import json
import time
from pathlib import Path

import pytest

from latfix import (
    Assignment,
    SolveStatus,
    check_stratified,
    compile_rhs_dsl,
    eval_tree,
    extend_top,
    instantiate_system,
    is_closed,
    is_post_solution,
    is_post_solution_lower_mono,
    rhs_monotone,
    tree_dep,
    tsmp,
    tsrr,
    tstp,
    warrow_solve,
)
from latfix.cli import (
    compare_assignments,
    format_finite_file,
    main,
    parse_finite_file,
    parse_scheme_file,
)
from latfix.interproc import CounterexampleCycle
from latfix.lattice import Chain, INF, make_domain

from fixtures import (
    EX1_NATINF,
    EX5_NATINF,
    SCHEME_NESTED_INTERVAL,
    SCHEME_NESTED_NATINF,
    SCHEME_RECURSIVE,
    branching_tree,
    check_levels,
    loop_call_concrete,
    random_corpus,
)
from oracle_ref import (
    check_sigma_closed,
    check_sound,
    identity_galois,
    kleene_least_solution,
    lower_mono_value,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture
def criterion(request):
    marker = request.node.get_closest_marker("criterion")
    number, label, budget = marker.args
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    report = getattr(request.node, "rep_call", None)
    failed = report is not None and report.failed
    over_budget = elapsed >= budget
    verdict = "FAIL" if (failed or over_budget) else "pass"
    print(f"ACCEPTANCE {number} [{label}]: {verdict} "
          f"({elapsed:.2f}s, budget {budget}s)")
    if not failed:
        assert not over_budget, f"criterion {number} over time budget"


@pytest.mark.criterion(1, "min/max system reproduction", 1.0)
def test_criterion_1_minmax_reproduction(criterion):
    prog = parse_finite_file(EX5_NATINF)
    mixed = tsmp(prog.system, "y1", prog.ops)
    assert {v: d for v, d in mixed.assignment.items()} == {
        "y1": 2, "y2": 2, "y3": 3}

    two_phase = tstp(prog.system, "y1", prog.ops)
    assert {v: d for v, d in two_phase.sigma0.items()} == {
        "y1": INF, "y2": INF, "y3": INF}
    assert {v: d for v, d in two_phase.assignment.items()} == {
        "y1": INF, "y2": 2, "y3": 3}

    report = compare_assignments(prog.ops, mixed.assignment,
                                 two_phase.assignment, mixed.stats,
                                 two_phase.stats)
    assert report.shared_vars == 3
    assert report.equal == 2
    assert report.a_more_precise == 1
    assert report.b_more_precise == 0
    assert report.incomparable == 0

    out = io.StringIO()
    code = main(["compare", "tsmp", "tstp",
                 str(SAMPLES / "minmax_natinf.lat"), "--json"], out=out)
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["shared_vars"] == 3 and payload["equal"] == 2
    assert payload["a_more_precise"] == 1


@pytest.mark.criterion(2, "flip-flop termination behavior", 1.0)
def test_criterion_2_flipflop(criterion):
    prog = parse_finite_file(EX1_NATINF)
    mixed = tsmp(prog.system, "y1", prog.ops)
    assert mixed.status is SolveStatus.COMPLETED
    assert mixed.assignment["y1"] == 1
    assert mixed.stats.rhs_evals <= 5

    baseline = warrow_solve(prog.system, "y1", prog.ops, 1000)
    assert baseline.status is SolveStatus.FUEL_EXHAUSTED

    code = main(["solve", "warrow", str(SAMPLES / "flipflop_natinf.lat"),
                 "--fuel", "1000"], out=io.StringIO())
    assert code == 3


@pytest.mark.criterion(3, "termination and soundness over 500 random systems", 60.0)
def test_criterion_3_random_corpus(criterion):
    # Holds because narrowing-phase values only descend (see solvers.tstp).
    failures = []
    for index, gen in enumerate(random_corpus(500)):
        start = gen.variables[0]
        results = {
            "tsrr": tsrr(gen.variables, gen.system, gen.ops),
            "tstp": tstp(gen.system, start, gen.ops),
            "tsmp": tsmp(gen.system, start, gen.ops),
        }
        for name, result in results.items():
            if result.status is not SolveStatus.COMPLETED:
                failures.append((index, name, "not completed"))
                continue
            if not is_closed(result.assignment, gen.system):
                failures.append((index, name, "primary result not closed"))
            if not is_post_solution_lower_mono(result.assignment, gen.system,
                                               gen.ops):
                failures.append(
                    (index, name,
                     "primary result below the lower monotonization"))
        if not is_post_solution(results["tstp"].sigma0, gen.system):
            failures.append((index, "tstp", "sigma0 not a post-solution"))
    assert not failures, f"{len(failures)} corpus failures: {failures}"


@pytest.mark.criterion(4, "lower monotonization laws on small instances", 30.0)
def test_criterion_4_lower_mono_laws(criterion):
    from test_eqsys import random_expr
    import random as random_mod

    for nvars in (1, 2):
        for size in (2, 3, 4):
            ops = make_domain(Chain(size))
            variables = [f"y{i + 1}" for i in range(nvars)]
            rng = random_mod.Random(1000 * size + nvars)
            exprs = [random_expr(rng, ops, variables, rng.randint(0, 2))
                     for _ in range(15)]
            assignments = [dict(zip(variables, combo))
                           for combo in itertools.product(
                               ops.values(), repeat=nvars)]
            for expr in exprs:
                tree = compile_rhs_dsl(expr, ops)
                monotone = rhs_monotone(tree, variables, ops)
                lowered = {}
                for a in assignments:
                    value = lower_mono_value(tree, a, variables, ops)
                    lowered[tuple(a.values())] = value
                    direct = eval_tree(tree, a)
                    assert ops.leq(value, direct)
                    if monotone:
                        assert ops.eq(value, direct)
                for a in assignments:
                    for b in assignments:
                        if all(ops.leq(a[v], b[v]) for v in variables):
                            assert ops.leq(lowered[tuple(a.values())],
                                           lowered[tuple(b.values())])


@pytest.mark.criterion(5, "concrete tabulation soundness", 10.0)
def test_criterion_5_concrete_soundness(criterion):
    conc = loop_call_concrete()
    solution = kleene_least_solution(conc.system(), conc.ops)
    both = frozenset({"q0", "q1"})
    only_q1 = frozenset({"q1"})
    assert solution[("u", "q0")] == both
    assert solution[("v", "q0")] == both
    assert solution[("u", "q1")] == only_q1
    assert solution[("v", "q1")] == only_q1

    assert check_sigma_closed(conc, solution, set(conc.variables))

    abstract = tsmp(conc.system(), ("u", "q0"), conc.ops)
    assert abstract.status is SolveStatus.COMPLETED
    galois = identity_galois(conc.ops)
    relation = [(v, v) for v in conc.variables]
    assert check_sound(conc, abstract.assignment, galois, relation)


@pytest.mark.criterion(6, "stratified schemes terminate", 10.0)
def test_criterion_6_stratification(criterion):
    nested = parse_scheme_file(SCHEME_NESTED_NATINF)
    levels = check_stratified(nested)
    assert isinstance(levels, dict)
    assert levels["v"] < levels["u"]
    assert check_levels(nested, levels)

    recursive = parse_scheme_file(SCHEME_RECURSIVE)
    assert isinstance(check_stratified(recursive), CounterexampleCycle)

    assert main(["check-stratified",
                 str(SAMPLES / "nested_calls_natinf.sch")], out=io.StringIO()) == 0
    assert main(["check-stratified",
                 str(SAMPLES / "recursive.sch")], out=io.StringIO()) == 1

    for text in (SCHEME_NESTED_NATINF, SCHEME_NESTED_INTERVAL):
        scheme = parse_scheme_file(text)
        system = instantiate_system(scheme)
        for solver in (tsmp, tstp):
            result = solver(system, scheme.start, scheme.ops)
            assert result.status is SolveStatus.COMPLETED
            per_point = {}
            for point, ctx in result.assignment.dom:
                per_point.setdefault(point, set()).add(ctx)
            assert all(len(ctxs) <= 20 for ctxs in per_point.values())


@pytest.mark.criterion(7, "dependency sets of the branching tree", 1.0)
def test_criterion_7_tree_dependencies(criterion):
    from latfix.lattice import NatInf

    tree = branching_tree()
    nat = make_domain(NatInf())
    partial = Assignment(nat, {"y1": 3})
    assert tree_dep(tree, extend_top(partial)) == {"y1"}
    assert tree_dep(tree, {"y1": 9, "y2": 0}) == {"y1", "y2"}


@pytest.mark.criterion(8, "comparison metrics invariants", 30.0)
def test_criterion_8_compare_metrics(criterion, tmp_path):
    # Bucket counts sum to the shared-variable count on every corpus file.
    for i, gen in enumerate(random_corpus(40, seed_base=8)):
        from latfix.cli import FiniteProgram

        prog = FiniteProgram(gen.ops, gen.variables, gen.exprs, gen.system)
        path = tmp_path / f"corpus{i}.lat"
        path.write_text(format_finite_file(prog))
        reparsed = parse_finite_file(path.read_text())
        a = tsmp(reparsed.system, reparsed.var_order[0], reparsed.ops)
        b = tstp(reparsed.system, reparsed.var_order[0], reparsed.ops)
        report = compare_assignments(reparsed.ops, a.assignment, b.assignment,
                                     a.stats, b.stats)
        assert (report.equal + report.a_more_precise + report.b_more_precise
                + report.incomparable) == report.shared_vars

    for sample in sorted(SAMPLES.glob("*.lat")):
        out1, out2 = io.StringIO(), io.StringIO()
        code1 = main(["compare", "tsmp", "tstp", str(sample), "--json"],
                     out=out1)
        code2 = main(["compare", "tsmp", "tstp", str(sample), "--json"],
                     out=out2)
        assert code1 == code2 == 0
        first, second = json.loads(out1.getvalue()), json.loads(out2.getvalue())
        assert first == second
        assert (first["equal"] + first["a_more_precise"]
                + first["b_more_precise"] + first["incomparable"]
                ) == first["shared_vars"]
        for stats in (first["stats_a"], first["stats_b"]):
            assert stats["vars"] >= 1 and stats["evals"] >= 1
