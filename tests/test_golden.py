"""Golden pin: solver results and CLI output must not change under refactoring.

The corpus, CLI and scheme renderings are pinned twice.  The results digest
masks the evaluation counts (`rhs_evals` and the CLI's `"evals"`), on `tsrr`'s
lines also its widen/narrow counts and on `tstp`'s its narrow counts, so a
change that only saves evaluations, `tsrr`'s operator applications or
`tstp`'s narrowings keeps it; everything else in the corpus and CLI ones is
as pinned before the demand-driven solvers were folded into one core, and
in the scheme one as pinned before both input languages were parsed,
rendered and compiled through one expression IR.  The full digest pins every
byte, counts included, and is re-taken when a change lowers a count on
purpose.  A change that alters any assignment, `sigma0`, other `Stats`
field, status, CLI byte, exit code, rendered scheme or stratification
outcome below fails here; a deliberate change of behaviour must say so and
pin new digests.

`python tests/test_golden.py` (with `src` on `PYTHONPATH`) prints the
current digests and each solver's count totals, for re-pinning.
"""

import dataclasses
import hashlib
import io
import random
import re
from pathlib import Path

import latfix.cli
from latfix import (VarBudgetExceeded, check_stratified, instantiate_system, tsmp,
                    tsrr, tstp, warrow_solve)

from fixtures import capped, random_corpus

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

CORPUS_RESULTS_DIGEST = "6e88b943f967fb78280660b8d0363a6bd672039df3551af34c4295262ea2e6f6"
CORPUS_DIGEST = "63d5d76125dfb36c07d5a7edd2071447a18488ba5b867cb657f4105bb0417a5d"
CLI_RESULTS_DIGEST = "d47baaeb3cf74b5de6113f33a0b66c6d04a640f645de2fd83ac9ec63512df965"
CLI_DIGEST = "453cf0dc03b8d88e6fcf0159732354ac7002e13b190ae54c7965be8b265fc046"
SCHEME_RESULTS_DIGEST = "768bc9fbf42766877b49222bd868102a2395aec5be0d9adf770acd5921fedaad"
SCHEME_DIGEST = "8ca53e567f7a4cfafc70477a41eac802df1fed83ed096eb4f10bec7f0cb6f2bd"


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
            out = io.StringIO()
            code = latfix.cli.main(["solve", solver, str(path), "--json"], out=out)
            lines.append(f"{path.name}|{solver}|{code}|{out.getvalue()!r}")
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
# ones stop at this budget some 450 frames deep, well inside Python's
# recursion limit, so the digest does not depend on the caller's stack depth.
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
