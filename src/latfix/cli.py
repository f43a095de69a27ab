"""File formats and the command-line driver.

Two input formats, both line-oriented with `#` comments and s-expression
bodies.  One parser reads both into the tag-tuple IR of `latfix.eqsys`, each
language accepting only its own forms, and one renderer writes them back:

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
or variable budget exceeded, or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .eqsys import FiniteProgram, gc_paused, is_closed
from .interproc import (
    CounterexampleCycle,
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


# --- the two input languages -------------------------------------------------------
#
# Both parse to the tag-tuple IR of `latfix.eqsys` through one expression
# parser; a language only decides which forms it accepts and what its
# declarations name.

@dataclass(frozen=True)
class _Language:
    header: str          # the first directive
    directives: tuple    # the declaration keyword, then any other directive
    noun: str            # what a declaration names
    forms: frozenset


_FINITE = _Language("lattice", ("var",), "variable",
                    frozenset({"get", "lit", "join", "meet", "inc", "ite"}))
_SCHEME = _Language("scheme", ("point", "start"), "point",
                    frozenset({"ctx", "lit", "join", "meet", "apply", "cell"}))

_CTX = ("ctx",)


class _Reader:
    """The tokens of one declaration, and what its expression may use."""

    def __init__(self, lang, ops, names):
        self.lang, self.ops, self.names, self.builtins = lang, ops, names, {}

    def reset(self, tokens, lineno):
        self.tokens, self.lineno, self.pos = tokens, lineno, 0

    def take(self, what):
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


def _parse_form(r):
    op = r.take("an operator")
    if op not in r.lang.forms:
        raise ParseError(f"unknown operator {op!r}", r.lineno)
    if op == "lit":
        return ("lit", r.ops.parse(r.take("a value")))
    if op == "ctx":
        return _CTX
    if op == "get" or op == "cell":
        name = r.take(f"a {r.lang.noun} name")
        if name not in r.names:
            raise ParseError(f"unknown {r.lang.noun} {name!r}", r.lineno)
        return ("get", name) if op == "get" else ("cell", name, _parse_arg(r))
    if op == "apply":
        name = r.take("a builtin name")
        if name != "join" and name != "meet":
            if name not in r.builtins:
                r.builtins[name] = resolve_builtin(name, r.ops)
            return ("apply", name, _parse_arg(r))
        op = name    # `apply join` is the join form
    if op == "join" or op == "meet":
        return (op, _parse_arg(r), _parse_arg(r))
    if op == "inc":
        if not r.ops.has_arith:
            raise ParseError(f"'inc' is not defined on {r.ops.name}", r.lineno)
        return ("inc", _parse_arg(r))
    r.expect("(")
    cmp_op = r.take("a comparison (eq or leq)")
    if cmp_op not in ("eq", "leq"):
        raise ParseError(f"unknown comparison {cmp_op!r}", r.lineno)
    guard = (cmp_op, _parse_arg(r), _parse_arg(r))
    r.expect(")")
    return ("ite", guard, _parse_arg(r), _parse_arg(r))


def _parse_arg(r):
    tok = r.peek()
    if tok == "(":
        r.pos += 1
        form = _parse_form(r)
        r.expect(")")
        return form
    if tok == "ctx" and "ctx" in r.lang.forms:
        r.pos += 1
        return _CTX
    ctx = " or 'ctx'" if "ctx" in r.lang.forms else ""
    raise ParseError(f"expected a parenthesized expression{ctx}, found {tok!r}",
                     r.lineno)


def _parse_file(text, lang):
    """Read one file of `lang`: its lattice, its declarations, their expressions.

    Returns the ops, the expressions by declared name in order, the builtins
    they use, and the (line, tokens) of a `start` directive.  A lattice or
    builtin error in a declaration becomes a `ParseError` at its line.
    """
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError("empty file")
    lineno, header = lines[0]
    tokens = _tokenize(header)
    if tokens[0] != lang.header:
        raise ParseError(f"expected a '{lang.header} ...' directive", lineno)
    ops = _parse_descriptor(tokens[1:], lineno)

    keyword = lang.directives[0]
    decls = {}
    start = None
    for lineno, body in lines[1:]:
        tokens = _tokenize(body)
        if tokens[0] == "start" and "start" in lang.directives:
            if start is not None:
                raise ParseError("duplicate start directive", lineno)
            start = (lineno, tokens[1:])
            continue
        if tokens[0] != keyword:
            expected = " or ".join(f"'{d}'" for d in lang.directives)
            raise ParseError(f"expected {expected}, found {tokens[0]!r}", lineno)
        if len(tokens) < 4 or tokens[2] != "=":
            raise ParseError(f"expected '{keyword} NAME = EXPR'", lineno)
        name = tokens[1]
        if not _is_name(name):
            raise ParseError(f"bad {lang.noun} name {name!r}", lineno)
        if name in decls:
            raise ParseError(f"duplicate {lang.noun} {name!r}", lineno)
        decls[name] = (lineno, tokens[3:])
    if not decls:
        raise ParseError(f"no {lang.noun}s")
    if "start" in lang.directives and start is None:
        raise ParseError("missing start")

    reader = _Reader(lang, ops, decls)
    exprs = {}
    for name, (lineno, tokens) in decls.items():
        reader.reset(tokens, lineno)
        try:
            exprs[name] = _parse_form(reader)
        except RecursionError:
            raise ParseError("expression nested too deeply", lineno) from None
        except (LatticeError, SchemeError) as exc:
            raise ParseError(str(exc), lineno) from None
        if reader.peek() is not None:
            raise ParseError(f"trailing tokens after expression: {reader.peek()!r}",
                             lineno)
    return ops, exprs, reader.builtins, start


def _render(expr, ops, operand=False):
    """The text of `expr`; as an operand, parenthesized unless it is `ctx`.

    One frame a level, no more than the parser's two, so all it reads renders.
    An `ite` guard `(cmp, e, e)` renders as an operand headed by its comparison.
    """
    tag = expr[0]
    if tag == "ctx":
        return "ctx"
    if tag == "lit":
        text = f"lit {ops.format(expr[1])}"
    else:
        head = 2 if tag in ("get", "cell", "apply") else 1
        text = " ".join(expr[:head])
        for arg in expr[head:]:
            text += " " + _render(arg, ops, True)
    return f"({text})" if operand else text


def _lattice_directive(ops):
    d = ops.descriptor
    if isinstance(d, Chain):
        return f"chain {d.size}"
    if isinstance(d, Powerset):
        return "powerset " + " ".join(d.atoms)
    if isinstance(d, NatInf):
        return "natinf"
    return "interval"


# --- finite-system files --------------------------------------------------------

@gc_paused
def parse_finite_file(text: str) -> FiniteProgram:
    ops, exprs, _, _ = _parse_file(text, _FINITE)
    return FiniteProgram.build(ops, exprs)


def format_finite_file(prog: FiniteProgram) -> str:
    lines = ["lattice " + _lattice_directive(prog.ops)]
    lines += [f"var {name} = {_render(prog.exprs[name], prog.ops)}"
              for name in prog.variables]
    return "\n".join(lines) + "\n"


# --- scheme files ----------------------------------------------------------------

@gc_paused
def parse_scheme_file(text: str) -> Scheme:
    ops, rhs, builtins, (lineno, tokens) = _parse_file(text, _SCHEME)
    if len(tokens) != 2:
        raise ParseError("expected 'start POINT VALUE'", lineno)
    if tokens[0] not in rhs:
        raise ParseError(f"unknown point {tokens[0]!r}", lineno)
    try:
        start = (tokens[0], ops.parse(tokens[1]))
    except LatticeError as exc:
        raise ParseError(str(exc), lineno) from None
    # The parser has checked all that Scheme.validate checks.
    return Scheme(ops, tuple(rhs), rhs, builtins, start)


def format_scheme_file(scheme: Scheme) -> str:
    ops = scheme.ops
    lines = ["scheme " + _lattice_directive(ops),
             f"start {scheme.start[0]} {ops.format(scheme.start[1])}"]
    lines += [f"point {point} = {_render(scheme.rhs[point], ops)}"
              for point in scheme.points]
    return "\n".join(lines) + "\n"


# --- comparison --------------------------------------------------------------------

def compare_assignments(a, b) -> dict:
    """Bucket every variable both assignments hold by lattice comparison.

    The counts are keyed as `compare --json` prints them.
    """
    ops = a.ops
    shared = a.dom & b.dom
    equal = a_more = b_more = incomparable = 0
    for var in shared:
        va, vb = a[var], b[var]
        if ops.eq(va, vb):
            equal += 1
        elif ops.leq(va, vb):
            a_more += 1
        elif ops.leq(vb, va):
            b_more += 1
        else:
            incomparable += 1
    return {"shared_vars": len(shared), "equal": equal, "a_more_precise": a_more,
            "b_more_precise": b_more, "incomparable": incomparable}


# --- command implementations --------------------------------------------------------

def _load_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    ops = prog.ops
    if kind == "finite":
        system = prog.system
        start = prog.variables[0]
        if start_override is not None:
            if start_override not in prog.variables:
                raise UsageError(f"unknown start variable {start_override!r}")
            start = start_override
        if solver == "tsrr":  # it solves every variable, so a start changes nothing
            return tsrr(prog.variables, system, ops)
    else:
        if solver == "tsrr":
            raise UsageError("tsrr requires a finite system file")
        system = instantiate_system(prog)
        start = _scheme_start(prog, start_override)
    if solver == "tstp":
        return tstp(system, start, ops, var_budget=var_budget, fuel=fuel)
    if solver == "tsmp":
        return tsmp(system, start, ops, var_budget=var_budget, fuel=fuel)
    if solver == "warrow":
        return warrow_solve(system, start, ops, fuel or DEFAULT_FUEL,
                            var_budget=var_budget)
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
    ops = prog.ops
    result = _run_solver(kind, prog, args.solver, args.fuel, args.var_budget,
                         args.start)
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
    result_a = _run_solver(kind, prog, args.solver_a, args.fuel, args.var_budget,
                           args.start)
    result_b = _run_solver(kind, prog, args.solver_b, args.fuel, args.var_budget,
                           args.start)
    counts = compare_assignments(result_a.assignment, result_b.assignment)
    if args.json:
        payload = {
            "solver_a": args.solver_a,
            "solver_b": args.solver_b,
            **counts,
            "stats_a": _stats_dict(result_a.stats),
            "stats_b": _stats_dict(result_b.stats),
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(f"shared: {counts['shared_vars']}", file=out)
        print(f"equal: {counts['equal']}", file=out)
        print(f"{args.solver_a} more precise: {counts['a_more_precise']}", file=out)
        print(f"{args.solver_b} more precise: {counts['b_more_precise']}", file=out)
        print(f"incomparable: {counts['incomparable']}", file=out)
        for name, stats in ((args.solver_a, result_a.stats),
                            (args.solver_b, result_b.stats)):
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
    result = _run_solver(kind, prog, args.solver, args.fuel, args.var_budget,
                         args.start)
    if result.status is not SolveStatus.COMPLETED:
        if args.json:
            print(json.dumps({"solver": args.solver, "status": result.status.value},
                             sort_keys=True), file=out)
        else:
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


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser():
    # Built once per process: parsing leaves the parser as it was.
    parser = argparse.ArgumentParser(
        prog="latfix",
        description="Terminating fixpoint solvers over abstract lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_solver=True):
        if with_solver:
            p.add_argument("solver", choices=SOLVERS)
        p.add_argument("file")
        p.add_argument("--fuel", type=_positive_int, default=None,
                       help="fuel in right-hand-side evaluations (a reused result "
                       "is none); tstp and tsmp run without a limit unless it "
                       f"is given, warrow defaults to {DEFAULT_FUEL}")
        p.add_argument("--start", default=None,
                       help="start override: VAR (finite) or POINT:VALUE (scheme)")
        p.add_argument("--var-budget", type=_positive_int,
                       default=DEFAULT_VAR_BUDGET)
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
    except (VarBudgetExceeded, OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
