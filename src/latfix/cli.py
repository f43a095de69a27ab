"""File formats and the command-line driver.

Two input formats, both line-oriented with `#` comments and s-expression
bodies:

finite systems::

    lattice natinf              # or: chain N | interval | powerset a b c
    var y1 = join (get y1) (get y2)
    var y2 = meet (get y3) (lit 2)
    var y3 = inc (get y2)

schemes::

    scheme natinf
    start u 0
    point u = join (cell v (cell v (cell u ctx))) ctx
    point v = join (apply inc (cell v ctx)) ctx

Commands: solve, compare, check-stratified, verify.  Exit codes: 0 success,
1 failed check/cycle, 2 parse or usage error, 3 fuel exhausted, 4 enumeration
or variable budget exceeded, Python's recursion limit hit, or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .eqsys import EquationSystem, compile_rhs_dsl, is_closed
from .interproc import (
    CTX,
    Apply,
    Cell,
    CounterexampleCycle,
    Const,
    Ctx,
    Scheme,
    SchemeError,
    check_stratified,
    instantiate_system,
    resolve_builtin,
)
from .lattice import (
    Chain,
    Interval,
    LatticeError,
    LatticeOps,
    NatInf,
    Powerset,
    make_domain,
)
from .oracle import (
    OracleBudgetError,
    is_post_solution,
    is_post_solution_lower_mono,
    system_monotone,
)
from .solvers import (
    DEFAULT_VAR_BUDGET,
    SolveStatus,
    Stats,
    VarBudgetExceeded,
    tsmp,
    tsrr,
    tstp,
    warrow_solve,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_FUEL = 3
EXIT_BUDGET = 4

DEFAULT_FUEL = 10**5

SOLVERS = ("tsrr", "tstp", "tsmp", "warrow")


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UsageError(ValueError):
    pass


# --- tokenizing ---------------------------------------------------------------

def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _tokenize(body):
    return body.replace("(", " ( ").replace(")", " ) ").split()


def _is_name(token):
    return token and (token[0].isalpha() or token[0] == "_") and all(
        c.isalnum() or c == "_" for c in token)


class _Tokens:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def take(self, what="token"):
        if self.pos >= len(self.tokens):
            raise ParseError(f"expected {what}, found end of line", self.lineno)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, literal):
        tok = self.take(f"'{literal}'")
        if tok != literal:
            raise ParseError(f"expected '{literal}', found {tok!r}", self.lineno)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def done(self):
        return self.pos >= len(self.tokens)


def _parse_descriptor(tokens, lineno):
    if not tokens:
        raise ParseError("missing lattice kind", lineno)
    kind, args = tokens[0], tokens[1:]
    try:
        if kind == "chain":
            if len(args) != 1:
                raise ParseError("chain takes one size argument", lineno)
            return make_domain(Chain(int(args[0])))
        if kind == "natinf":
            if args:
                raise ParseError("natinf takes no arguments", lineno)
            return make_domain(NatInf())
        if kind == "interval":
            if args:
                raise ParseError("interval takes no arguments", lineno)
            return make_domain(Interval())
        if kind == "powerset":
            return make_domain(Powerset(tuple(args)))
    except (LatticeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), lineno) from None
    raise ParseError(f"unknown lattice kind {kind!r}", lineno)


# --- finite-system files --------------------------------------------------------

@dataclass
class FiniteProgram:
    ops: LatticeOps
    var_order: list
    exprs: dict
    system: EquationSystem


def _parse_value(ts, ops, what="a value"):
    tok = ts.take(what)
    try:
        return ops.parse(tok)
    except LatticeError as exc:
        raise ParseError(str(exc), ts.lineno) from None


def _parse_dsl_form(ts, ops, var_names):
    op = ts.take("an operator")
    if op == "get":
        name = ts.take("a variable name")
        if name not in var_names:
            raise ParseError(f"unknown variable {name!r}", ts.lineno)
        return ("get", name)
    if op == "lit":
        return ("lit", _parse_value(ts, ops))
    if op in ("join", "meet"):
        return (op, _parse_dsl_arg(ts, ops, var_names),
                _parse_dsl_arg(ts, ops, var_names))
    if op == "inc":
        if not ops.has_arith:
            raise ParseError(f"'inc' is not defined on {ops.name}", ts.lineno)
        return ("inc", _parse_dsl_arg(ts, ops, var_names))
    if op == "ite":
        ts.expect("(")
        cmp_op = ts.take("a comparison (eq or leq)")
        if cmp_op not in ("eq", "leq"):
            raise ParseError(f"unknown comparison {cmp_op!r}", ts.lineno)
        guard = (cmp_op, _parse_dsl_arg(ts, ops, var_names),
                 _parse_dsl_arg(ts, ops, var_names))
        ts.expect(")")
        return ("ite", guard, _parse_dsl_arg(ts, ops, var_names),
                _parse_dsl_arg(ts, ops, var_names))
    raise ParseError(f"unknown operator {op!r}", ts.lineno)


def _parse_dsl_arg(ts, ops, var_names):
    if ts.peek() != "(":
        raise ParseError(
            f"expected a parenthesized expression, found {ts.peek()!r}", ts.lineno)
    ts.expect("(")
    form = _parse_dsl_form(ts, ops, var_names)
    ts.expect(")")
    return form


def parse_finite_file(text: str) -> FiniteProgram:
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError("empty file")
    lineno, header = lines[0]
    tokens = _tokenize(header)
    if tokens[0] != "lattice":
        raise ParseError("expected a 'lattice ...' directive", lineno)
    ops = _parse_descriptor(tokens[1:], lineno)

    decls = []
    names = set()
    var_order = []
    for lineno, body in lines[1:]:
        tokens = _tokenize(body)
        if tokens[0] != "var":
            raise ParseError(f"expected 'var', found {tokens[0]!r}", lineno)
        if len(tokens) < 4 or tokens[2] != "=":
            raise ParseError("expected 'var NAME = EXPR'", lineno)
        name = tokens[1]
        if not _is_name(name):
            raise ParseError(f"bad variable name {name!r}", lineno)
        if name in names:
            raise ParseError(f"duplicate variable {name!r}", lineno)
        names.add(name)
        var_order.append(name)
        decls.append((lineno, name, tokens[3:]))
    if not var_order:
        raise ParseError("no variables")

    exprs = {}
    for lineno, name, tokens in decls:
        ts = _Tokens(tokens, lineno)
        expr = _parse_dsl_form(ts, ops, names)
        if not ts.done():
            raise ParseError(f"trailing tokens after expression: {ts.peek()!r}",
                             lineno)
        exprs[name] = expr
    rhs = {}
    for name, expr in exprs.items():
        try:
            rhs[name] = compile_rhs_dsl(expr, ops)
        except LatticeError as exc:
            raise ParseError(str(exc)) from None
    system = EquationSystem(rhs, all_vars=var_order)
    return FiniteProgram(ops, var_order, exprs, system)


def _render_dsl(expr, ops):
    tag = expr[0]
    if tag == "get":
        return f"get {expr[1]}"
    if tag == "lit":
        return f"lit {ops.format(expr[1])}"
    arg = lambda e: "(" + _render_dsl(e, ops) + ")"
    if tag in ("join", "meet"):
        return f"{tag} {arg(expr[1])} {arg(expr[2])}"
    if tag == "inc":
        return f"inc {arg(expr[1])}"
    cmp_op, lhs, rhs = expr[1]
    return (f"ite ({cmp_op} {arg(lhs)} {arg(rhs)}) "
            f"{arg(expr[2])} {arg(expr[3])}")


def _lattice_directive(ops):
    d = ops.descriptor
    if isinstance(d, Chain):
        return f"chain {d.size}"
    if isinstance(d, Powerset):
        return "powerset " + " ".join(d.atoms)
    if isinstance(d, NatInf):
        return "natinf"
    return "interval"


def format_finite_file(prog: FiniteProgram) -> str:
    lines = ["lattice " + _lattice_directive(prog.ops)]
    for name in prog.var_order:
        lines.append(f"var {name} = " + _render_dsl(prog.exprs[name], prog.ops))
    return "\n".join(lines) + "\n"


# --- scheme files ----------------------------------------------------------------

def _parse_scheme_form(ts, ops, points, builtins):
    def get_builtin(name):
        if name not in builtins:
            try:
                builtins[name] = resolve_builtin(name, ops)
            except (SchemeError, LatticeError) as exc:
                raise ParseError(str(exc), ts.lineno) from None
        return builtins[name]

    op = ts.take("an operator")
    if op == "ctx":
        return CTX
    if op == "lit":
        return Const(_parse_value(ts, ops))
    if op in ("join", "meet"):
        fn = get_builtin(op)
        return Apply(op, (_parse_scheme_arg(ts, ops, points, builtins),
                          _parse_scheme_arg(ts, ops, points, builtins)))
    if op == "apply":
        name = ts.take("a builtin name")
        fn = get_builtin(name)
        args = tuple(_parse_scheme_arg(ts, ops, points, builtins)
                     for _ in range(fn.arity))
        return Apply(name, args)
    if op == "cell":
        point = ts.take("a point name")
        if point not in points:
            raise ParseError(f"unknown point {point!r}", ts.lineno)
        return Cell(point, _parse_scheme_arg(ts, ops, points, builtins))
    raise ParseError(f"unknown operator {op!r}", ts.lineno)


def _parse_scheme_arg(ts, ops, points, builtins):
    tok = ts.peek()
    if tok == "(":
        ts.expect("(")
        form = _parse_scheme_form(ts, ops, points, builtins)
        ts.expect(")")
        return form
    if tok == "ctx":
        ts.take()
        return CTX
    raise ParseError(
        f"expected a parenthesized expression or 'ctx', found {tok!r}", ts.lineno)


def parse_scheme_file(text: str) -> Scheme:
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError("empty file")
    lineno, header = lines[0]
    tokens = _tokenize(header)
    if tokens[0] != "scheme":
        raise ParseError("expected a 'scheme ...' directive", lineno)
    ops = _parse_descriptor(tokens[1:], lineno)

    point_order = []
    point_set = set()
    decls = []
    start_tokens = None
    for lineno, body in lines[1:]:
        tokens = _tokenize(body)
        if tokens[0] == "start":
            if start_tokens is not None:
                raise ParseError("duplicate start directive", lineno)
            start_tokens = (lineno, tokens[1:])
            continue
        if tokens[0] != "point":
            raise ParseError(f"expected 'point' or 'start', found {tokens[0]!r}",
                             lineno)
        if len(tokens) < 4 or tokens[2] != "=":
            raise ParseError("expected 'point NAME = EXPR'", lineno)
        name = tokens[1]
        if not _is_name(name):
            raise ParseError(f"bad point name {name!r}", lineno)
        if name in point_set:
            raise ParseError(f"duplicate point {name!r}", lineno)
        point_set.add(name)
        point_order.append(name)
        decls.append((lineno, name, tokens[3:]))
    if not point_order:
        raise ParseError("no points")
    if start_tokens is None:
        raise ParseError("missing start")

    builtins = {}
    rhs = {}
    for lineno, name, tokens in decls:
        ts = _Tokens(tokens, lineno)
        expr = _parse_scheme_form(ts, ops, point_set, builtins)
        if not ts.done():
            raise ParseError(f"trailing tokens after expression: {ts.peek()!r}",
                             lineno)
        rhs[name] = expr

    lineno, tokens = start_tokens
    if len(tokens) != 2:
        raise ParseError("expected 'start POINT VALUE'", lineno)
    if tokens[0] not in point_set:
        raise ParseError(f"unknown point {tokens[0]!r}", lineno)
    try:
        start_value = ops.parse(tokens[1])
    except LatticeError as exc:
        raise ParseError(str(exc), lineno) from None

    scheme = Scheme(ops, tuple(point_order), rhs, builtins,
                    (tokens[0], start_value))
    try:
        scheme.validate()
    except SchemeError as exc:
        raise ParseError(str(exc)) from None
    return scheme


def _render_scheme_expr(expr, ops):
    if isinstance(expr, Ctx):
        return "ctx"
    if isinstance(expr, Const):
        return f"lit {ops.format(expr.value)}"

    def arg(e):
        if isinstance(e, Ctx):
            return "ctx"
        return "(" + _render_scheme_expr(e, ops) + ")"

    if isinstance(expr, Apply):
        rendered = " ".join(arg(a) for a in expr.args)
        if expr.fn in ("join", "meet"):
            return f"{expr.fn} {rendered}"
        return f"apply {expr.fn} {rendered}"
    return f"cell {expr.point} {arg(expr.arg)}"


def format_scheme_file(scheme: Scheme) -> str:
    ops = scheme.ops
    lines = ["scheme " + _lattice_directive(ops)]
    lines.append(f"start {scheme.start[0]} {ops.format(scheme.start[1])}")
    for point in scheme.points:
        lines.append(f"point {point} = " + _render_scheme_expr(scheme.rhs[point], ops))
    return "\n".join(lines) + "\n"


# --- comparison report ------------------------------------------------------------

@dataclass
class CompareReport:
    shared_vars: int
    equal: int
    a_more_precise: int
    b_more_precise: int
    incomparable: int
    stats_a: Stats
    stats_b: Stats


def compare_assignments(ops, assign_a, assign_b, stats_a, stats_b) -> CompareReport:
    """Bucket every variable both runs computed by lattice comparison."""
    shared = assign_a.dom & assign_b.dom
    equal = a_more = b_more = incomparable = 0
    for var in shared:
        va, vb = assign_a[var], assign_b[var]
        if ops.eq(va, vb):
            equal += 1
        elif ops.leq(va, vb):
            a_more += 1
        elif ops.leq(vb, va):
            b_more += 1
        else:
            incomparable += 1
    return CompareReport(len(shared), equal, a_more, b_more, incomparable,
                         stats_a, stats_b)


# --- command implementations --------------------------------------------------------

def _load_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    for _, body in _logical_lines(text):
        head = body.split(None, 1)[0]
        if head == "lattice":
            return "finite", parse_finite_file(text)
        if head == "scheme":
            return "scheme", parse_scheme_file(text)
        break
    raise ParseError("expected a 'lattice' or 'scheme' directive")


def _scheme_start(scheme, override):
    if override is None:
        return scheme.start
    point, sep, value = override.partition(":")
    if not sep:
        raise UsageError("--start for schemes takes POINT:VALUE")
    if point not in scheme.points:
        raise UsageError(f"unknown start point {point!r}")
    try:
        return (point, scheme.ops.parse(value))
    except LatticeError as exc:
        raise UsageError(str(exc)) from None


def _run_solver(kind, prog, solver, fuel, var_budget, start_override):
    if kind == "finite":
        ops, system = prog.ops, prog.system
        if solver == "tsrr":
            return ops, tsrr(prog.var_order, system, ops)
        start = prog.var_order[0]
        if start_override is not None:
            if start_override not in prog.var_order:
                raise UsageError(f"unknown start variable {start_override!r}")
            start = start_override
    else:
        if solver == "tsrr":
            raise UsageError("tsrr requires a finite system file")
        ops = prog.ops
        system = instantiate_system(prog)
        start = _scheme_start(prog, start_override)
    if solver == "tstp":
        return ops, tstp(system, start, ops, var_budget=var_budget)
    if solver == "tsmp":
        return ops, tsmp(system, start, ops, var_budget=var_budget)
    if solver == "warrow":
        return ops, warrow_solve(system, start, ops, fuel, var_budget=var_budget)
    raise UsageError(f"unknown solver {solver!r}")


def _var_str(kind, ops, var):
    if kind == "finite":
        return var
    point, ctx = var
    return f"{point}:{ops.format(ctx)}"


def _sorted_vars(kind, ops, variables):
    if kind == "finite":
        return sorted(variables)
    return sorted(variables, key=lambda v: (v[0], ops.sort_key(v[1])))


def _stats_dict(stats):
    return {
        "vars": stats.vars_encountered,
        "evals": stats.rhs_evals,
        "widen_apps": stats.widen_apps,
        "narrow_apps": stats.narrow_apps,
    }


def _status_exit(result):
    return EXIT_FUEL if result.status is SolveStatus.FUEL_EXHAUSTED else EXIT_OK


def cmd_solve(args, out):
    kind, prog = _load_file(args.file)
    ops, result = _run_solver(kind, prog, args.solver, args.fuel,
                              args.var_budget, args.start)
    assignment = result.assignment
    if args.json:
        payload = _stats_dict(result.stats)
        payload["solver"] = args.solver
        payload["status"] = result.status.value
        payload["assignment"] = {
            _var_str(kind, ops, v): ops.format(d) for v, d in assignment.items()}
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(f"solver: {args.solver}", file=out)
        print(f"status: {result.status.value}", file=out)
        for var in _sorted_vars(kind, ops, assignment.dom):
            print(f"{_var_str(kind, ops, var)} = {ops.format(assignment[var])}",
                  file=out)
        s = result.stats
        line = (f"vars={s.vars_encountered} evals={s.rhs_evals} "
                f"widens={s.widen_apps} narrows={s.narrow_apps}")
        if args.solver == "warrow":
            line += f" fuel={s.fuel_used}"
        print(line, file=out)
    return _status_exit(result)


def cmd_compare(args, out):
    kind, prog = _load_file(args.file)
    ops, result_a = _run_solver(kind, prog, args.solver_a, args.fuel,
                                args.var_budget, args.start)
    _, result_b = _run_solver(kind, prog, args.solver_b, args.fuel,
                              args.var_budget, args.start)
    report = compare_assignments(ops, result_a.assignment, result_b.assignment,
                                 result_a.stats, result_b.stats)
    if args.json:
        payload = {
            "solver_a": args.solver_a,
            "solver_b": args.solver_b,
            "shared_vars": report.shared_vars,
            "equal": report.equal,
            "a_more_precise": report.a_more_precise,
            "b_more_precise": report.b_more_precise,
            "incomparable": report.incomparable,
            "stats_a": _stats_dict(report.stats_a),
            "stats_b": _stats_dict(report.stats_b),
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(f"shared: {report.shared_vars}", file=out)
        print(f"equal: {report.equal}", file=out)
        print(f"{args.solver_a} more precise: {report.a_more_precise}", file=out)
        print(f"{args.solver_b} more precise: {report.b_more_precise}", file=out)
        print(f"incomparable: {report.incomparable}", file=out)
        for name, stats in ((args.solver_a, report.stats_a),
                            (args.solver_b, report.stats_b)):
            print(f"stats {name}: vars={stats.vars_encountered} "
                  f"evals={stats.rhs_evals}", file=out)
    if (result_a.status is SolveStatus.FUEL_EXHAUSTED
            or result_b.status is SolveStatus.FUEL_EXHAUSTED):
        return EXIT_FUEL
    return EXIT_OK


def cmd_check_stratified(args, out):
    kind, prog = _load_file(args.file)
    if kind != "scheme":
        raise UsageError("check-stratified requires a scheme file")
    outcome = check_stratified(prog)
    if isinstance(outcome, CounterexampleCycle):
        if args.json:
            print(json.dumps({"cycle": list(outcome.points)}), file=out)
        else:
            print("cycle: " + " -> ".join(outcome.points), file=out)
        return EXIT_CHECK_FAILED
    if args.json:
        print(json.dumps({"levels": outcome}, sort_keys=True), file=out)
    else:
        for point in sorted(outcome):
            print(f"{point}: {outcome[point]}", file=out)
    return EXIT_OK


def cmd_verify(args, out):
    kind, prog = _load_file(args.file)
    if kind != "finite":
        raise UsageError("verify requires a finite system file")
    ops, system = prog.ops, prog.system
    if not ops.is_finite:
        raise UsageError("verify needs a finite lattice (chain or powerset)")
    _, result = _run_solver(kind, prog, args.solver, args.fuel,
                            args.var_budget, None)
    if result.status is not SolveStatus.COMPLETED:
        print(f"status: {result.status.value}", file=out)
        return EXIT_FUEL

    checks = []
    primary = result.assignment
    checks.append(("closed", is_closed(primary, system), True))
    if args.solver == "tstp":
        checks.append(("sigma0 closed", is_closed(result.sigma0, system), True))
        checks.append(("sigma0 post-solution (original)",
                       is_post_solution(result.sigma0, system), True))
    orig_mandatory = args.solver == "tsrr" and system_monotone(system, ops)
    checks.append(("post-solution (original)",
                   is_post_solution(primary, system), orig_mandatory))
    checks.append(("post-solution (lower monotonization)",
                   is_post_solution_lower_mono(primary, system, ops), True))

    if args.json:
        payload = {
            "solver": args.solver,
            "checks": {name: ok for name, ok, _ in checks},
            "ok": all(ok for _, ok, mandatory in checks if mandatory),
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        for name, ok, mandatory in checks:
            suffix = "" if mandatory else " (informational)"
            print(f"{name}: {'pass' if ok else 'FAIL'}{suffix}", file=out)
    if all(ok for _, ok, mandatory in checks if mandatory):
        return EXIT_OK
    return EXIT_CHECK_FAILED


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="latfix",
        description="Terminating fixpoint solvers over abstract lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_solver=True):
        if with_solver:
            p.add_argument("solver", choices=SOLVERS)
        p.add_argument("file")
        p.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                       help="evaluation fuel for the warrowing baseline")
        p.add_argument("--start", default=None,
                       help="start override: VAR (finite) or POINT:VALUE (scheme)")
        p.add_argument("--var-budget", type=int, default=DEFAULT_VAR_BUDGET)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="run one solver and print the assignment")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="run two solvers and bucket the results")
    p.add_argument("solver_a", choices=SOLVERS)
    p.add_argument("solver_b", choices=SOLVERS)
    common(p, with_solver=False)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-stratified",
                       help="levels witness or counterexample cycle for a scheme")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_stratified)

    p = sub.add_parser("verify",
                       help="solve, then oracle-check the claimed postconditions")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args, out)
    except (ParseError, UsageError, SchemeError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VarBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: solving went deeper than Python's recursion limit",
              file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
