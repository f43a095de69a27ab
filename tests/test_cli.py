"""File formats and the command-line surface."""

import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latfix.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_FUEL,
    EXIT_OK,
    EXIT_USAGE,
    SOLVERS,
    ParseError,
    compare_assignments,
    format_finite_file,
    format_scheme_file,
    main,
    parse_finite_file,
    parse_scheme_file,
)
from latfix import Assignment
from latfix.lattice import NatInf, Powerset, make_domain

from fixtures import (
    EX1_NATINF,
    EX5_NATINF,
    SCHEME_CTX_SELF,
    SCHEME_NESTED_NATINF,
    SCHEME_RECURSIVE,
    cli_run,
    default_recursion_limit,
    ring_text,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- parsing -----------------------------------------------------------------------

def test_parse_minmax_file():
    prog = parse_finite_file(EX5_NATINF)
    assert prog.variables == ["y1", "y2", "y3"]
    assert isinstance(prog.ops.descriptor, NatInf)


def test_parse_flipflop_file():
    prog = parse_finite_file(EX1_NATINF)
    assert prog.variables == ["y1"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="no variables"):
        parse_finite_file("lattice natinf\n")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_finite_file("lattice natinf\nvar y = lit 1\nvar y = lit 2\n")
    with pytest.raises(ParseError, match="line 2.*unknown variable 'z'"):
        parse_finite_file("lattice natinf\nvar y = get z\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_finite_file("lattice chain 3\nvar y = lit 9\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_finite_file("lattice chain 0\nvar y = lit 0\n")
    with pytest.raises(ParseError, match="line 2.*'inc'"):
        parse_finite_file("lattice powerset a b\nvar y = inc (get y)\n")


# A lattice or builtin error inside a declaration, or in the start value,
# carries the line it is on.
@pytest.mark.parametrize("parse, text, message", [
    (parse_finite_file, "lattice natinf\nvar y = lit x\n",
     "line 2: natinf: cannot parse 'x'"),
    (parse_finite_file, "lattice interval\nvar y = lit [3,1]\n",
     "line 2: interval: bad value (3, 1)"),
    (parse_finite_file, "lattice chain 3\nvar y = lit 7\n",
     "line 2: chain(3): bad value 7"),
    (parse_scheme_file, "scheme natinf\nstart u q\npoint u = ctx\n",
     "line 2: natinf: cannot parse 'q'"),
    (parse_scheme_file, "scheme natinf\nstart u 0\npoint u = join ctx (lit -1)\n",
     "line 3: natinf: bad value -1"),
    (parse_scheme_file, "scheme natinf\nstart u 0\npoint u = apply add_const:x ctx\n",
     "line 3: add_const needs an integer parameter, got 'x'"),
    (parse_scheme_file, "scheme natinf\nstart u 0\npoint u = apply meet_const:zz ctx\n",
     "line 3: natinf: cannot parse 'zz'"),
    (parse_scheme_file, "scheme natinf\nstart u 0\npoint u = apply nope ctx\n",
     "line 3: unknown builtin 'nope'"),
    (parse_scheme_file, "scheme powerset a b\nstart u {}\npoint u = apply inc ctx\n",
     "line 3: 'inc' is not defined on powerset({a,b})"),
])
def test_value_and_builtin_errors_carry_their_line(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_scheme_rejects_arith_on_powerset():
    with pytest.raises(ParseError, match="'inc'"):
        parse_scheme_file(
            "scheme powerset a b\nstart u {}\npoint u = apply inc ctx\n")


def test_parse_scheme_errors():
    with pytest.raises(ParseError, match="missing start"):
        parse_scheme_file("scheme natinf\npoint u = ctx\n")
    with pytest.raises(ParseError, match="unknown point 'w'"):
        parse_scheme_file("scheme natinf\nstart u 0\npoint u = cell w ctx\n")
    with pytest.raises(ParseError, match="unknown builtin"):
        parse_scheme_file("scheme natinf\nstart u 0\npoint u = apply frob ctx\n")
    with pytest.raises(ParseError, match="unknown point 'w'"):
        parse_scheme_file("scheme natinf\nstart w 0\npoint u = ctx\n")


@pytest.mark.parametrize("body, message", [
    ("apply inc:7 ctx", "builtin 'inc' takes no parameter, got 'inc:7'"),
    ("apply dec:1 ctx", "builtin 'dec' takes no parameter, got 'dec:1'"),
    ("apply id:x ctx", "builtin 'id' takes no parameter, got 'id:x'"),
    ("apply join:q ctx ctx", "builtin 'join' takes no parameter, got 'join:q'"),
    ("apply meet:0 ctx ctx", "builtin 'meet' takes no parameter, got 'meet:0'"),
    ("apply meet_const ctx", "builtin 'meet_const' needs a parameter, got none"),
    ("apply join_const: ctx", "builtin 'join_const' needs a parameter, got none"),
])
def test_builtin_parameters_are_checked(tmp_path, capsys, body, message):
    path = write(tmp_path, "b.sch", f"scheme natinf\nstart u 0\npoint u = {body}\n")
    code, out = run_cli("solve", "tsmp", path)
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: line 3: {message}\n"


# Every form takes a fixed number of operands and the parser reads exactly
# that many: a missing operand is reported where it should start, and an
# extra one is left over.
MISSING_OPERAND = "expected a parenthesized expression or 'ctx', found None"


@pytest.mark.parametrize("body, message", [
    ("apply inc (lit 1) (lit 2)", "trailing tokens after expression: '('"),
    ("join (apply inc (lit 1) (lit 2)) ctx", "expected ')', found '('"),
    ("apply inc", MISSING_OPERAND),
    ("join ctx", MISSING_OPERAND),
    ("cell u", MISSING_OPERAND),
    ("cell u ctx ctx", "trailing tokens after expression: 'ctx'"),
    ("lit", "expected a value, found end of line"),
    ("lit 1 2", "trailing tokens after expression: '2'"),
    ("ctx ctx", "trailing tokens after expression: 'ctx'"),
])
def test_scheme_forms_take_their_operand_count(body, message):
    with pytest.raises(ParseError) as info:
        parse_scheme_file(f"scheme natinf\nstart u 0\npoint u = {body}\n")
    assert str(info.value) == f"line 3: {message}"


@pytest.mark.parametrize("body, message", [
    ("get u", "unknown operator 'get'"),
    ("inc ctx", "unknown operator 'inc'"),
    ("join ctx (inc (cell u ctx))", "unknown operator 'inc'"),
    ("ite (eq ctx ctx) ctx ctx", "unknown operator 'ite'"),
])
def test_finite_forms_are_rejected_in_schemes(body, message):
    with pytest.raises(ParseError, match=f"^line 3: {message}$"):
        parse_scheme_file(f"scheme natinf\nstart u 0\npoint u = {body}\n")


@pytest.mark.parametrize("body, message", [
    ("ctx", "unknown operator 'ctx'"),
    ("join (ctx) (get y)", "unknown operator 'ctx'"),
    ("join ctx (get y)", "expected a parenthesized expression, found 'ctx'"),
    ("cell y (lit 0)", "unknown operator 'cell'"),
    ("apply inc (get y)", "unknown operator 'apply'"),
])
def test_scheme_forms_are_rejected_in_finite_files(body, message):
    with pytest.raises(ParseError, match=f"^line 3: {message}$"):
        parse_finite_file(f"lattice natinf\nvar x = lit 0\nvar y = {body}\n")


DEEP = 600


@pytest.mark.parametrize("name, text, argv, line", [
    ("deep.lat", "lattice natinf\nvar y = " + "inc (" * DEEP + "get y" + ")" * DEEP,
     ["solve", "tsmp"], 2),
    ("deep.sch", "scheme natinf\nstart u 0\npoint u = "
     + "apply inc (" * DEEP + "ctx" + ")" * DEEP, ["check-stratified"], 3),
    ("deep.sch", "scheme natinf\nstart u 0\npoint u = "
     + "join ctx (" * DEEP + "cell u ctx" + ")" * DEEP, ["solve", "tstp"], 3),
], ids=["finite-solve", "scheme-check-stratified", "scheme-solve"])
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, name, text, argv, line):
    path = write(tmp_path, name, text + "\n")
    code, out = run_cli(*argv, path)
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == f"error: line {line}: expression nested too deeply\n"


def test_moderate_nesting_still_parses_and_solves(tmp_path):
    depth = 200
    path = write(tmp_path, "nested.sch", "scheme natinf\nstart u 0\npoint u = "
                 + "apply inc (" * depth + "ctx" + ")" * depth + "\n")
    code, out = run_cli("solve", "tsmp", path)
    assert code == EXIT_OK
    assert f"u:0 = {depth}" in out


def _deepest(text_at, parse):
    """The largest depth at which `parse(text_at(depth))` is no parse error."""
    lo, hi = 1, sys.getrecursionlimit()  # nesting costs at least a frame a level
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse(text_at(mid))
            lo = mid
        except ParseError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("parse, render, text_at", [
    (parse_finite_file, format_finite_file,
     lambda d: "lattice natinf\nvar y = " + "inc (" * d + "get y" + ")" * d + "\n"),
    (parse_scheme_file, format_scheme_file,
     lambda d: ("scheme natinf\nstart u 0\npoint u = "
                + "join ctx (" * d + "cell u ctx" + ")" * d + "\n")),
], ids=["finite", "scheme"])
def test_the_deepest_nesting_the_parser_accepts_formats_and_parses_back(
        parse, render, text_at):
    # The text is already in the formatter's layout, so writing back what it
    # parses to gives the same text, which parses to the same expressions.
    with default_recursion_limit():
        depth = _deepest(text_at, parse)
        assert depth > 400
        assert render(parse(text_at(depth))) == text_at(depth)


def test_roundtrip_finite():
    prog = parse_finite_file(EX5_NATINF)
    text = format_finite_file(prog)
    again = parse_finite_file(text)
    assert again.exprs == prog.exprs
    assert again.variables == prog.variables
    assert again.ops.descriptor == prog.ops.descriptor
    assert format_finite_file(again) == text


def test_roundtrip_scheme():
    scheme = parse_scheme_file(SCHEME_NESTED_NATINF)
    text = format_scheme_file(scheme)
    again = parse_scheme_file(text)
    assert again.rhs == scheme.rhs
    assert list(again.rhs) == list(scheme.rhs)
    assert again.start == scheme.start
    assert format_scheme_file(again) == text


def test_roundtrip_powerset_and_interval(tmp_path):
    text = ("lattice powerset a b c\n"
            "var y1 = ite (leq (get y1) (lit {a,b})) (lit {c}) (lit {})\n")
    prog = parse_finite_file(text)
    assert parse_finite_file(format_finite_file(prog)).exprs == prog.exprs
    itext = ("lattice interval\n"
             "var y1 = join (get y1) (lit [-inf,4])\n"
             "var y2 = meet (get y1) (lit bot)\n")
    iprog = parse_finite_file(itext)
    assert parse_finite_file(format_finite_file(iprog)).exprs == iprog.exprs


# --- solve ----------------------------------------------------------------------------

def test_solve_tsmp_text(tmp_path):
    path = write(tmp_path, "sys.lat", EX5_NATINF)
    code, out = run_cli("solve", "tsmp", path)
    assert code == EXIT_OK
    assert "y1 = 2" in out and "y2 = 2" in out and "y3 = 3" in out
    assert "status: completed" in out


def test_solve_tstp_prints_narrowing_assignment(tmp_path):
    path = write(tmp_path, "sys.lat", EX5_NATINF)
    code, out = run_cli("solve", "tstp", path)
    assert code == EXIT_OK
    assert "y1 = inf" in out and "y2 = 2" in out


def test_solve_json_schema(tmp_path):
    path = write(tmp_path, "sys.lat", EX5_NATINF)
    code, out = run_cli("solve", "tsmp", path, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"solver", "status", "vars", "evals",
                            "widen_apps", "narrow_apps", "assignment"}
    assert payload["solver"] == "tsmp"
    assert payload["status"] == "completed"
    assert payload["assignment"] == {"y1": "2", "y2": "2", "y3": "3"}
    assert list(payload["assignment"]) == sorted(payload["assignment"])


def test_solve_warrow_fuel_exhaustion(tmp_path):
    path = write(tmp_path, "sys.lat", EX1_NATINF)
    code, out = run_cli("solve", "warrow", path, "--fuel", "1000")
    assert code == EXIT_FUEL
    assert "fuel-exhausted" in out


@pytest.mark.parametrize("command", [["solve", "tstp"], ["solve", "tsmp"],
                                     ["compare", "tstp", "tsmp"], ["verify", "tsmp"]])
def test_fuel_limits_tstp_and_tsmp_only_when_given(command):
    path = str(SAMPLES / "flipflop_chain4.lat")
    assert run_cli(*command, path)[0] == EXIT_OK
    code, out = run_cli(*command, path, "--fuel", "1")
    assert code == EXIT_FUEL
    if command[0] != "compare":
        assert "status: fuel-exhausted" in out


@pytest.mark.parametrize("solver", ["tstp", "tsmp", "warrow"])
def test_verify_json_reports_a_run_out_of_fuel_as_json(solver):
    path = str(SAMPLES / "flipflop_chain4.lat")
    code, out = run_cli("verify", solver, path, "--fuel", "1", "--json")
    assert code == EXIT_FUEL
    assert json.loads(out) == {"solver": solver, "status": "fuel-exhausted"}


@pytest.mark.parametrize("fuel", ["0", "-5"])
def test_solve_fuel_below_one_is_a_usage_error(capsys, fuel):
    path = str(SAMPLES / "flipflop_natinf.lat")
    code, out = run_cli("solve", "warrow", path, "--fuel", fuel)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: argument --fuel" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_solve_var_budget_below_one_is_a_usage_error(capsys, budget):
    path = str(SAMPLES / "nested_calls_natinf.sch")
    code, out = run_cli("solve", "tsmp", path, "--var-budget", budget)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: argument --var-budget" in capsys.readouterr().err


def test_solve_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.lat"
    path.write_bytes(b"lattice natinf\nvar y1 = lit 0  # caf\xe9\n")
    code, out = run_cli("solve", "tsmp", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}")


def test_solve_parse_error_exit(tmp_path):
    path = write(tmp_path, "bad.lat", "lattice chain 0\nvar y = lit 0\n")
    code, _ = run_cli("solve", "tsmp", path)
    assert code == EXIT_USAGE


def test_solve_var_budget_exit(tmp_path):
    path = write(tmp_path, "rec.sch", SCHEME_RECURSIVE)
    code, _ = run_cli("solve", "tsmp", path, "--var-budget", "30")
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("solver", ["tstp", "tsmp"])
def test_solve_runaway_scheme_exits_at_the_default_var_budget(solver):
    # Each fresh context suspends one more evaluation on the solver's frame
    # stack, not on Python's, so the run goes on until the default budget
    # of 10**6 variables is spent.  The golden CLI rendering makes the same
    # run of the same sample (SCHEME_RECURSIVE), which `cli_run` makes once.
    path = str(SAMPLES / "recursive.sch")
    code, out, err = cli_run("solve", solver, path, "--json")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: variable budget of 1000000 exceeded\n"


def test_tsrr_solves_rings_deeper_than_the_recursion_limit(tmp_path):
    path = write(tmp_path, "ring.lat", ring_text(1500))
    with default_recursion_limit():
        code, out = run_cli("solve", "tsrr", path, "--json")
    assert code == EXIT_OK
    assert set(json.loads(out)["assignment"].values()) == {"50"}


def test_solve_scheme_with_start_override(tmp_path):
    path = write(tmp_path, "s.sch", SCHEME_NESTED_NATINF)
    code, out = run_cli("solve", "tsmp", path, "--start", "v:3", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert "v:3" in payload["assignment"]


def test_tsrr_checks_the_start_but_solves_every_variable(capsys):
    path = str(SAMPLES / "minmax_natinf.lat")
    code, _ = run_cli("solve", "tsrr", path, "--start", "nosuch")
    assert code == EXIT_USAGE
    assert "unknown start variable 'nosuch'" in capsys.readouterr().err
    assert run_cli("solve", "tsrr", path, "--start", "y2") == run_cli("solve", "tsrr", path)
    code, _ = run_cli("compare", "tsrr", "tstp", path, "--start", "y2")
    assert code == EXIT_OK


def test_tsrr_rejected_on_scheme(tmp_path):
    path = write(tmp_path, "s.sch", SCHEME_NESTED_NATINF)
    code, _ = run_cli("solve", "tsrr", path)
    assert code == EXIT_USAGE


# --- compare ----------------------------------------------------------------------------

def test_compare_tsmp_tstp(tmp_path):
    path = write(tmp_path, "sys.lat", EX5_NATINF)
    code, out = run_cli("compare", "tsmp", "tstp", path, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["shared_vars"] == 3
    assert payload["equal"] == 2
    assert payload["a_more_precise"] == 1
    assert payload["b_more_precise"] == 0
    assert payload["incomparable"] == 0
    assert set(payload["stats_a"]) == {"vars", "evals", "widen_apps", "narrow_apps"}
    code, out = run_cli("compare", "tstp", "tsmp", path, "--json")
    swapped = json.loads(out)
    assert (swapped["a_more_precise"], swapped["b_more_precise"]) == (0, 1)


def test_compare_self_is_all_equal(tmp_path):
    path = write(tmp_path, "sys.lat", EX5_NATINF)
    code, out = run_cli("compare", "tsmp", "tsmp", path, "--json")
    payload = json.loads(out)
    assert payload["equal"] == payload["shared_vars"]
    assert payload["a_more_precise"] == payload["b_more_precise"] == 0


def test_compare_report_buckets_sum():
    prog = parse_finite_file(EX5_NATINF)
    from latfix import tsmp, tstp

    a = tsmp(prog.system, "y1", prog.ops)
    b = tstp(prog.system, "y1", prog.ops)
    assert compare_assignments(a.assignment, b.assignment) == {
        "shared_vars": 3, "equal": 2, "a_more_precise": 1, "b_more_precise": 0,
        "incomparable": 0}


def test_compare_report_counts_incomparable_values():
    ops = make_domain(Powerset(("a", "b")))
    a = Assignment(ops, {"y": ops.parse("{a}")})
    b = Assignment(ops, {"y": ops.parse("{b}")})
    assert compare_assignments(a, b) == {
        "shared_vars": 1, "equal": 0, "a_more_precise": 0, "b_more_precise": 0,
        "incomparable": 1}


# --- check-stratified ----------------------------------------------------------------------

def test_check_stratified_accepts_nested(tmp_path):
    path = write(tmp_path, "s.sch", SCHEME_NESTED_NATINF)
    code, out = run_cli("check-stratified", path, "--json")
    assert code == EXIT_OK
    levels = json.loads(out)["levels"]
    assert levels["v"] < levels["u"]


def test_check_stratified_rejects_recursive(tmp_path):
    path = write(tmp_path, "s.sch", SCHEME_RECURSIVE)
    code, out = run_cli("check-stratified", path)
    assert code == EXIT_CHECK_FAILED
    assert "cycle" in out and "u" in out


def test_check_stratified_single_point(tmp_path):
    path = write(tmp_path, "s.sch", "scheme natinf\nstart u 0\npoint u = ctx\n")
    code, out = run_cli("check-stratified", path)
    assert code == EXIT_OK
    assert out.strip() == "u: 0"


def test_check_stratified_ctx_self_loop(tmp_path):
    path = write(tmp_path, "s.sch", SCHEME_CTX_SELF)
    code, out = run_cli("check-stratified", path)
    assert code == EXIT_OK
    assert out.strip() == "u: 0"


# --- verify -----------------------------------------------------------------------------------

def test_verify_tsmp_flipflop_chain(tmp_path):
    path = str(SAMPLES / "flipflop_chain4.lat")
    code, out = run_cli("verify", "tsmp", path)
    assert code == EXIT_OK
    assert "post-solution (lower monotonization): pass" in out


def test_verify_tsrr_monotone_all_pass(tmp_path):
    path = write(tmp_path, "m.lat",
                 "lattice chain 5\nvar y1 = join (get y1) (lit 3)\n")
    code, out = run_cli("verify", "tsrr", path)
    assert code == EXIT_OK
    assert "FAIL" not in out
    # Monotone input makes the original post-solution check mandatory.
    assert "post-solution (original): pass\n" in out


def test_verify_tsrr_checks_monotonicity_over_the_variables_read(tmp_path):
    # Each right-hand side reads one of nine variables, so monotonicity is
    # checked over 4 assignments per variable, not the budget-breaking 4**9.
    lines = ["lattice chain 4"]
    lines += [f"var y{i} = join (get y{i % 9 + 1}) (lit 1)" for i in range(1, 10)]
    path = write(tmp_path, "m.lat", "\n".join(lines) + "\n")
    code, out = run_cli("verify", "tsrr", path)
    assert code == EXIT_OK
    assert "post-solution (original): pass\n" in out


def test_verify_tstp_checks_both_phases(tmp_path):
    path = str(SAMPLES / "flipflop_chain4.lat")
    code, out = run_cli("verify", "tstp", path, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["checks"]["sigma0 post-solution (original)"] is True
    assert payload["checks"]["post-solution (lower monotonization)"] is True
    assert payload["ok"] is True


def test_verify_rejects_an_unknown_start(capsys):
    path = str(SAMPLES / "flipflop_chain4.lat")
    code, _ = run_cli("verify", "tstp", path, "--start", "nosuch")
    assert code == EXIT_USAGE
    assert "unknown start variable 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["tstp", "tsmp"])
def test_verify_checks_the_run_from_the_given_start(tmp_path, solver):
    # From y1 the flip-flop is solved and fails the (informational) original
    # post-solution check; from y2, which reads only itself, it is never seen.
    path = write(tmp_path, "two.lat",
                 "lattice chain 4\n"
                 "var y1 = ite (eq (get y1) (lit 0)) (lit 1) (lit 0)\n"
                 "var y2 = join (get y2) (lit 2)\n")
    for start, expected in [(None, False), ("y1", False), ("y2", True)]:
        argv = ["verify", solver, path, "--json"]
        argv += ["--start", start] if start else []
        code, out = run_cli(*argv)
        assert code == EXIT_OK
        assert json.loads(out)["checks"]["post-solution (original)"] is expected


@pytest.mark.parametrize("solver", ["tstp", "tsrr"])
@pytest.mark.parametrize("lattice", ["chain " + "9" * 30,
                                     "powerset " + " ".join(f"a{i}" for i in range(40))],
                         ids=["chain", "powerset"])
def test_verify_refuses_a_lattice_too_large_to_enumerate(tmp_path, capsys, solver,
                                                         lattice):
    # Listing these values would overflow (the chain) or take 2**40 steps
    # (the powerset), so the oracle refuses them before it starts.
    path = write(tmp_path, "big.lat", f"lattice {lattice}\nvar y1 = get y1\n")
    code, out = run_cli("verify", solver, path)
    assert code == EXIT_BUDGET
    assert out == ""
    assert "more than the enumeration budget" in capsys.readouterr().err


def test_verify_rejects_infinite_lattice(tmp_path):
    path = write(tmp_path, "sys.lat", EX5_NATINF)
    code, _ = run_cli("verify", "tsmp", path)
    assert code == EXIT_USAGE


# --- shipped samples -----------------------------------------------------------------------------

def test_shipped_samples_parse():
    for sample in SAMPLES.glob("*.lat"):
        parse_finite_file(sample.read_text())
    for sample in SAMPLES.glob("*.sch"):
        parse_scheme_file(sample.read_text())


def test_solve_runs_are_reproducible(tmp_path):
    path = write(tmp_path, "sys.lat", EX5_NATINF)
    first = run_cli("solve", "tstp", path, "--json")
    second = run_cli("solve", "tstp", path, "--json")
    assert first == second


# --- fuzzing the command line with mutated samples ----------------------------------------------

_TOKEN = re.compile(r"\s+|[()]|[^\s()]+")
SAMPLE_TEXTS = {path.name: path.read_text() for path in sorted(SAMPLES.iterdir())}
FUZZ_TOKENS = sorted(
    {tok for text in SAMPLE_TEXTS.values() for tok in _TOKEN.findall(text)
     if not tok.isspace()}
    | {"(", ")", "#", "zz", "-1", "inf", "[3,1]", "{a,zz}", "9" * 30, "\u00e9", ":",
       "\n"})


# Literals of each sample's domain, for mutations that keep a file parseable.
DOMAIN_LITERALS = {
    "natinf": ["0", "1", "2", "5", "10", "inf"],
    "interval": ["bot", "[0,0]", "[0,10]", "[-3,2]", "[1,inf]", "[-inf,inf]"],
    "chain 4": ["0", "1", "2", "3"],
}


def _parseable_swaps(text, tokens):
    """(index, replacements) for each literal and each use of a declared name."""
    domain = re.search(r"^(?:lattice|scheme) +(.+?) *$", text, re.M).group(1)
    names = re.findall(r"^(?:var|point) +(\S+)", text, re.M)
    words = [tokens[i] for i, tok in enumerate(tokens) if not tok.isspace()]
    positions = [i for i, tok in enumerate(tokens) if not tok.isspace()]
    swaps = []
    for k in range(2, len(words)):
        if words[k - 1] == "lit" or words[k - 2] == "start":  # the start context too
            swaps.append((positions[k], DOMAIN_LITERALS[domain]))
        elif words[k - 1] in ("get", "cell", "start"):
            swaps.append((positions[k], names))
    return swaps


@st.composite
def mutated_invocations(draw):
    """A sample file with one token deleted, duplicated or replaced, or cut
    short, or with a literal or a name swapped for another of its kind so
    that it still parses, and a command line that runs it with capped fuel
    and budget."""
    name = draw(st.sampled_from(sorted(SAMPLE_TEXTS)))
    text = SAMPLE_TEXTS[name]
    tokens = _TOKEN.findall(text)
    i = draw(st.sampled_from([i for i, tok in enumerate(tokens) if not tok.isspace()]))
    mutation = draw(st.sampled_from(["swap", "delete", "duplicate", "replace", "truncate"])
                    | st.just("swap"))  # half the cases still parse
    if mutation == "swap":
        i, choices = draw(st.sampled_from(_parseable_swaps(text, tokens)))
        tokens[i] = draw(st.sampled_from(choices))
    elif mutation == "delete":
        del tokens[i]
    elif mutation == "duplicate":
        tokens[i:i + 1] = [tokens[i], " ", tokens[i]]
    elif mutation == "replace":
        tokens[i] = draw(st.sampled_from(FUZZ_TOKENS))
    mutated = "".join(tokens)
    if mutation == "truncate":
        mutated = mutated[:draw(st.integers(0, len(mutated)))]

    solvers = st.sampled_from(SOLVERS)
    command = draw(st.sampled_from(["solve", "compare", "verify", "check-stratified"]))
    before = [command]
    if command == "compare":
        before += [draw(solvers), draw(solvers)]
    elif command != "check-stratified":
        before.append(draw(solvers))
    after = []
    if command != "check-stratified":
        after += ["--fuel", str(draw(st.integers(1, 50))),
                  "--var-budget", str(draw(st.integers(1, 200)))]
        names = re.findall(r"^(?:var|point) +(\S+)", text, re.M)
        starts = names + [f"{n}:{v}" for n in names for v in ("0", "3", "inf", "[0,2]")]
        start = draw(st.none() | st.sampled_from(starts + ["nosuch", "u:zz", ":", ""]))
        if start is not None:
            after += ["--start", start]
    if draw(st.booleans()):
        after.append("--json")
    return name, mutated, before, after


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None)
@given(invocation=mutated_invocations())
def test_cli_exits_with_a_documented_code_on_mutated_samples(fuzz_dir, invocation):
    name, text, before, after = invocation
    path = fuzz_dir / name
    path.write_text(text, encoding="utf-8")
    assert main([*before, str(path), *after], out=io.StringIO()) in range(5)
