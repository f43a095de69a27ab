"""Golden pin: solver results and CLI output must not change under refactoring.

The digests were taken before the demand-driven solvers were folded into one
core.  A change that alters any assignment, `sigma0`, `Stats` field, status,
CLI byte or exit code below fails here; a deliberate change of behaviour must
say so and pin new digests.
"""

import dataclasses
import hashlib
import io
from pathlib import Path

import latfix.cli
from latfix import tsmp, tsrr, tstp, warrow_solve

from fixtures import random_corpus

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

CORPUS_DIGEST = "a8a964aa6161abd5cdbff392ad5030120923c6eb7c21236a6f10b35f30a7b6f5"
CLI_DIGEST = "a060de0b3afae0430158b63a7e250bfe089871630ec53cb3ce3e513fe773dc7f"


def _render(ops, values):
    return ",".join(f"{v}={ops.format(values[v])}" for v in sorted(values, key=repr))


def _render_result(name, ops, result):
    sigma0 = "-" if result.sigma0 is None else _render(ops, result.sigma0.values)
    stats = ",".join(f"{f.name}={getattr(result.stats, f.name)}"
                     for f in dataclasses.fields(result.stats))
    return (f"{name}|{_render(ops, result.assignment.values)}|{sigma0}|{stats}"
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


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_solver_results_over_random_corpus_are_pinned():
    assert _digest(corpus_rendering()) == CORPUS_DIGEST


def test_cli_solve_output_over_samples_is_pinned():
    assert _digest(cli_rendering()) == CLI_DIGEST
