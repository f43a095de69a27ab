"""Golden pin: solver results and CLI output must not change under refactoring.

The corpus, CLI and scheme renderings are pinned twice.  The results digest
masks the evaluation counts (`rhs_evals` and the CLI's `"evals"`), on `tsrr`'s
lines also its widen/narrow counts and on `tstp`'s its narrow counts, so a
change that only saves evaluations, `tsrr`'s operator applications or
`tstp`'s narrowings keeps it; everything else in the corpus and CLI ones is
as pinned before the demand-driven solvers were folded into one core, but
for the CLI's `recursive.sch|warrow` line: since the core keeps its frames
off Python's stack, that run spends its fuel (exit 3) instead of hitting the
recursion limit (exit 4).  The scheme one is as pinned before both input
languages were parsed, rendered and compiled through one expression IR.  The full digest pins every
byte, counts included, and is re-taken when a change lowers a count on
purpose.  A change that alters any assignment, `sigma0`, other `Stats`
field, status, CLI byte, exit code, rendered scheme or stratification
outcome below fails here; a deliberate change of behaviour must say so and
pin new digests.  A seventh digest pins the random systems themselves, at the
sizes and lattices the benchmark generates, so a change to how the generator
builds them must keep every draw.

`python tests/test_golden.py` (with `src` on `PYTHONPATH`) prints the
current digests and each solver's count totals, for re-pinning.
"""

import dataclasses
import hashlib
import random
import re
from pathlib import Path

import latfix.cli
from latfix import (Chain, Powerset, VarBudgetExceeded, check_stratified,
                    gen_random_system, instantiate_system, tsmp, tsrr, tstp,
                    warrow_solve)
from latfix.cli import format_finite_file

from fixtures import capped, cli_run, random_corpus

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

CORPUS_RESULTS_DIGEST = "6e88b943f967fb78280660b8d0363a6bd672039df3551af34c4295262ea2e6f6"
CORPUS_DIGEST = "63d5d76125dfb36c07d5a7edd2071447a18488ba5b867cb657f4105bb0417a5d"
CLI_RESULTS_DIGEST = "391918dc86c3aa7254632dde9a4010464bb0a2881f88b3cce3ea7df38a025800"
CLI_DIGEST = "73854073f6f72e2b0e4155294af2819d912ea333ee4a79a03dd41629abf66b3f"
SCHEME_RESULTS_DIGEST = "768bc9fbf42766877b49222bd868102a2395aec5be0d9adf770acd5921fedaad"
SCHEME_DIGEST = "8ca53e567f7a4cfafc70477a41eac802df1fed83ed096eb4f10bec7f0cb6f2bd"
GENERATOR_DIGEST = "d6868faf8d96dd4364b084c37ac8d5cdff938140f6e7db30be30715e0656809e"


def _render(ops, values, key=repr):
    return ",".join(f"{v}={ops.format(values[v])}" for v in sorted(values, key=key))


def _render_result(name, ops, result, key=repr):
    sigma0 = "-" if result.sigma0 is None else _render(ops, result.sigma0.values, key)
    stats = ",".join(f"{f.name}={getattr(result.stats, f.name)}"
                     for f in dataclasses.fields(result.stats))
    return (f"{name}|{_render(ops, result.assignment.values, key)}|{sigma0}|{stats}"
            f"|{result.status.value}")


def corpus_rendering():
    lines = []
    for index, gen in enumerate(random_corpus(500)):
        system, ops, start = gen.system, gen.ops, gen.variables[0]
        runs = [("tsrr", tsrr(gen.variables, system, ops)),
                ("tstp", tstp(system, start, ops)),
                ("tsmp", tsmp(system, start, ops))]
        for fuel in (5, 200):
            runs.append((f"warrow{fuel}", warrow_solve(system, start, ops, fuel)))
        lines.extend(f"{index}|{_render_result(name, ops, result)}"
                     for name, result in runs)
    return "\n".join(lines)


def cli_rendering():
    lines = []
    for path in sorted(SAMPLES.iterdir()):
        for solver in latfix.cli.SOLVERS:
            code, out, _ = cli_run("solve", solver, str(path), "--json")
            lines.append(f"{path.name}|{solver}|{code}|{out!r}")
    return "\n".join(lines)


# Seeded scheme texts over natinf and interval: every builtin, `apply join`/
# `apply meet`, bare and parenthesized `ctx`, literal-only subterms such as
# `apply inc (lit 3)`, and cells with any argument, so both stratified schemes
# and runaway context generation occur.
SCHEME_DOMAINS = {
    "natinf": (["0", "1", "3", "inf"],
               ["id", "inc", "dec", "add_const:2", "meet_const:4", "join_const:1"]),
    "interval": (["bot", "[0,0]", "[-2,3]", "[1,inf]"],
                 ["id", "inc", "dec", "add_const:-1", "meet_const:[0,6]",
                  "join_const:[2,3]"]),
}


def scheme_text(seed):
    rng = random.Random(seed)
    lattice = rng.choice(sorted(SCHEME_DOMAINS))
    lits, unary = SCHEME_DOMAINS[lattice]
    points = [f"p{i}" for i in range(rng.randint(1, 4))]

    def form(depth):
        kinds = ["ctx", "lit"]
        if depth > 0:
            kinds += ["cell", "apply", "apply2", "join", "meet", "folded", "runaway"]
        kind = rng.choice(kinds)
        sub = lambda: arg(depth - 1)
        if kind == "ctx":
            return "ctx"
        if kind == "lit":
            return f"lit {rng.choice(lits)}"
        if kind == "cell":
            return f"cell {rng.choice(points)} {sub()}"
        if kind == "apply":
            return f"apply {rng.choice(unary)} {sub()}"
        if kind == "apply2":
            return f"apply {rng.choice(['join', 'meet'])} {sub()} {sub()}"
        if kind == "runaway":
            return f"cell {rng.choice(points)} (apply {rng.choice(unary)} ctx)"
        if kind == "folded":
            return f"apply {rng.choice(unary)} (lit {rng.choice(lits)})"
        return f"{kind} {sub()} {sub()}"

    def arg(depth):
        text = form(depth)
        return text if text == "ctx" and rng.random() < 0.7 else f"({text})"

    lines = [f"scheme {lattice}", f"start {points[0]} {rng.choice(lits)}"]
    lines += [f"point {u} = {form(3)}" for u in points]
    return "\n".join(lines) + "\n"


# The schemes below that terminate need fewer than 60 variables; the runaway
# ones stop at this budget.
VAR_BUDGET = 100


def _guarded(name, run):
    try:
        return run()
    except VarBudgetExceeded as exc:
        return f"{name}|error: {exc}"


def scheme_rendering():
    lines = []
    for seed in range(300):
        scheme = latfix.cli.parse_scheme_file(scheme_text(seed))
        ops = scheme.ops
        key = lambda var: (var[0], ops.sort_key(var[1]))
        outcome = check_stratified(scheme)
        strata = (",".join(f"{u}={outcome[u]}" for u in sorted(outcome))
                  if isinstance(outcome, dict) else "->".join(outcome.points))
        lines.append(f"{seed}|{latfix.cli.format_scheme_file(scheme)!r}|{strata}")
        runs = [("tstp", lambda s: tstp(s, scheme.start, ops, var_budget=VAR_BUDGET)),
                ("tsmp", lambda s: tsmp(s, scheme.start, ops, var_budget=VAR_BUDGET)),
                ("warrow200", lambda s: warrow_solve(s, scheme.start, ops, 200,
                                                     var_budget=VAR_BUDGET))]
        for name, run in runs:
            system = capped(instantiate_system(scheme))
            lines.append(f"{seed}|" + _guarded(
                name, lambda: _render_result(name, ops, run(system), key)))
    return "\n".join(lines)


# The benchmark's finite lattices, each at the sizes the tests and the
# benchmark generate, with and without non-monotone shapes.
GENERATOR_LATTICES = [Chain(3), Chain(4), Chain(5), Chain(6), Powerset(("a", "b")),
                      Powerset(("a", "b", "c")), Powerset(("a", "b", "c", "d"))]
GENERATOR_SIZES = (1, 7, 150, 450)


def generator_rendering():
    """Every generated system rendered as a finite-system file.

    The file format writes powerset values with sorted atoms, so the text does
    not depend on set iteration order (`PYTHONHASHSEED`).
    """
    files = []
    seed = 0
    for descriptor in GENERATOR_LATTICES:
        for nvars in GENERATOR_SIZES:
            for monotone_only in (False, True):
                seed += 1
                gen = gen_random_system(seed, nvars, descriptor, 3, monotone_only)
                files.append(format_finite_file(gen))
    return "\n".join(files)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_EVAL_COUNTS = re.compile(r'(rhs_evals=|"evals": )\d+')
_MASKS = {
    "tsrr": re.compile(r'((?:rhs_evals|widen_apps|narrow_apps)=|'
                       r'"(?:evals|widen_apps|narrow_apps)": )\d+'),
    "tstp": re.compile(r'((?:rhs_evals|narrow_apps)=|"(?:evals|narrow_apps)": )\d+'),
}
_COUNTS = re.compile(r'"?(rhs_evals|evals|widen_apps|narrow_apps)"?(?:=|: )(\d+)')


def _solver(line):
    return line.split("|", 2)[1]  # corpus `<index>|<solver>|…`, CLI `<file>|<solver>|…`


def _masked(text):
    """`text` with its evaluation counts, `tsrr`'s widen/narrow counts and
    `tstp`'s narrow counts as `*`."""
    return "\n".join(_MASKS.get(_solver(line), _EVAL_COUNTS).sub(r"\1*", line)
                     for line in text.split("\n"))


def count_totals(text):
    """Per-solver totals of `rhs_evals`, `widen_apps` and `narrow_apps` in `text`."""
    totals: dict = {}
    for line in text.split("\n"):
        counts = _COUNTS.findall(line)
        if not counts:
            continue
        row = totals.setdefault(_solver(line), dict.fromkeys(
            ("rhs_evals", "widen_apps", "narrow_apps"), 0))
        for name, count in counts:
            row["rhs_evals" if name == "evals" else name] += int(count)
    return totals


def test_solver_results_over_random_corpus_are_pinned():
    text = corpus_rendering()
    assert _digest(_masked(text)) == CORPUS_RESULTS_DIGEST
    assert _digest(text) == CORPUS_DIGEST


def test_cli_solve_output_over_samples_is_pinned():
    text = cli_rendering()
    assert _digest(_masked(text)) == CLI_RESULTS_DIGEST
    assert _digest(text) == CLI_DIGEST


def test_generated_systems_are_pinned():
    assert _digest(generator_rendering()) == GENERATOR_DIGEST


def test_scheme_results_over_seeded_texts_are_pinned():
    text = scheme_rendering()
    assert _digest(_masked(text)) == SCHEME_RESULTS_DIGEST
    assert _digest(text) == SCHEME_DIGEST


if __name__ == "__main__":
    for name, render in [("CORPUS", corpus_rendering), ("CLI", cli_rendering),
                         ("SCHEME", scheme_rendering)]:
        text = render()
        print(f'{name}_RESULTS_DIGEST = "{_digest(_masked(text))}"')
        print(f'{name}_DIGEST = "{_digest(text)}"')
        for solver, row in count_totals(text).items():
            print(f"  {solver}: " + ", ".join(f"{k}={v:,}" for k, v in row.items()))
    print(f'GENERATOR_DIGEST = "{_digest(generator_rendering())}"')
