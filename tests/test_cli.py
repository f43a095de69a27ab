"""File formats and the command-line surface."""

import io
import json
from pathlib import Path

import pytest

from latfix.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_FUEL,
    EXIT_OK,
    EXIT_USAGE,
    ParseError,
    compare_assignments,
    format_finite_file,
    format_scheme_file,
    main,
    parse_finite_file,
    parse_scheme_file,
)
from latfix.lattice import NatInf

from fixtures import (
    EX1_NATINF,
    EX5_NATINF,
    SCHEME_CTX_SELF,
    SCHEME_NESTED_NATINF,
    SCHEME_RECURSIVE,
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
    assert prog.var_order == ["y1", "y2", "y3"]
    assert isinstance(prog.ops.descriptor, NatInf)


def test_parse_flipflop_file():
    prog = parse_finite_file(EX1_NATINF)
    assert prog.var_order == ["y1"]


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


def test_roundtrip_finite():
    prog = parse_finite_file(EX5_NATINF)
    text = format_finite_file(prog)
    again = parse_finite_file(text)
    assert again.exprs == prog.exprs
    assert again.var_order == prog.var_order
    assert again.ops.descriptor == prog.ops.descriptor
    assert format_finite_file(again) == text


def test_roundtrip_scheme():
    scheme = parse_scheme_file(SCHEME_NESTED_NATINF)
    text = format_scheme_file(scheme)
    again = parse_scheme_file(text)
    assert again.rhs == scheme.rhs
    assert again.points == scheme.points
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


def test_solve_parse_error_exit(tmp_path):
    path = write(tmp_path, "bad.lat", "lattice chain 0\nvar y = lit 0\n")
    code, _ = run_cli("solve", "tsmp", path)
    assert code == EXIT_USAGE


def test_solve_var_budget_exit(tmp_path):
    path = write(tmp_path, "rec.sch", SCHEME_RECURSIVE)
    code, _ = run_cli("solve", "tsmp", path, "--var-budget", "30")
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("solver", ["tstp", "tsmp"])
def test_solve_recursion_limit_exit_at_default_budget(tmp_path, capsys, solver):
    # Each fresh context nests the solver deeper; Python's recursion limit is
    # reached long before the default variable budget.
    path = write(tmp_path, "rec.sch", SCHEME_RECURSIVE)
    code, out = run_cli("solve", solver, path)
    assert code == EXIT_BUDGET
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_scheme_with_start_override(tmp_path):
    path = write(tmp_path, "s.sch", SCHEME_NESTED_NATINF)
    code, out = run_cli("solve", "tsmp", path, "--start", "v:3", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert "v:3" in payload["assignment"]


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
    report = compare_assignments(prog.ops, a.assignment, b.assignment,
                                 a.stats, b.stats)
    assert (report.equal + report.a_more_precise + report.b_more_precise
            + report.incomparable) == report.shared_vars


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


def test_verify_tstp_checks_both_phases(tmp_path):
    path = str(SAMPLES / "flipflop_chain4.lat")
    code, out = run_cli("verify", "tstp", path, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["checks"]["sigma0 post-solution (original)"] is True
    assert payload["checks"]["post-solution (lower monotonization)"] is True
    assert payload["ok"] is True


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
