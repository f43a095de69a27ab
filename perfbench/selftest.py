#!/usr/bin/env python3
"""Self-tests of the benchmark: every metric is emitted, and the reference
checker agrees with latfix's oracle on small instances.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

The file is named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import latfix  # noqa: E402
import latfix.cli  # noqa: E402
import latfix.eqsys  # noqa: E402
import latfix.oracle  # noqa: E402
import latfix.solvers  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import Domain, FiniteSystem  # noqa: E402

TINY = {workloads.SolveRandom: {"pool": {"tstp": 2, "tsmp": 2, "tsrr": 2}},
        workloads.VerifyCorpus: {"pool": 6},
        workloads.CliSchemes: {"schemes": 4}}


@contextlib.contextmanager
def tiny_pools():
    saved = {cls: {k: getattr(cls, k) for k in attrs} for cls, attrs in TINY.items()}
    for cls, attrs in TINY.items():
        for key, value in attrs.items():
            setattr(cls, key, value)
    try:
        yield
    finally:
        for cls, attrs in saved.items():
            for key, value in attrs.items():
                setattr(cls, key, value)


def run_once(workload, trace, seed=3):
    out = io.StringIO()
    with tiny_pools(), contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.05", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_every_declared_metric_is_emitted():
    names, end_to_end, per_layer = declared_metrics()
    assert sorted(names) == sorted(workloads.WORKLOADS)
    for name in names:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result = run_once(name, trace)
            assert result["correct"], (name, trace, result)
            assert result["attempted"] >= run.MIN_OPS and result["failed"] == 0
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, (name, trace, set(got) ^ set(declared))


def test_tracer_leaves_latfix_as_it_found_it():
    before = {(mod.__name__, k): v for mod in (latfix, latfix.cli, latfix.solvers,
                                               latfix.oracle)
              for k, v in vars(mod).items()}
    insert = latfix.solvers._PrioQueue.insert
    run_once("cli-schemes", 1)
    run_once("solve-random", 1)
    after = {(mod.__name__, k): v for mod in (latfix, latfix.cli, latfix.solvers,
                                              latfix.oracle)
             for k, v in vars(mod).items()}
    assert before == after
    assert latfix.solvers._PrioQueue.insert is insert


def test_counts_repeat_for_a_seed():
    first = run_once("verify-corpus", 0, seed=11)["metrics"]
    again = run_once("verify-corpus", 0, seed=11)["metrics"]
    for key in ("rhs_evals", "widen_apps", "narrow_apps"):
        assert first[key]["value"] == again[key]["value"]


def _random_assignment(rng, ref, partial):
    values = ref.dom.values()
    return {v: rng.choice(values) for v in ref.order
            if not partial or rng.random() < 0.7}


def test_reference_agrees_with_oracle_on_small_systems():
    rng = random.Random(7)
    checked = 0
    for index in range(150):
        lattice = workloads.FINITE_LATTICES[index % len(workloads.FINITE_LATTICES)]
        case = workloads.FiniteCase.generate(rng.randrange(2**31), rng.randint(1, 3),
                                             lattice, rng.randint(1, 3))
        gen, ref = case.gen, case.ref
        candidates = [_random_assignment(rng, ref, partial) for partial in (False, True)]
        for solver in (latfix.tstp, latfix.tsmp):
            result = solver(gen.system, gen.variables[0], gen.ops)
            candidates.append(dict(result.assignment.items()))
        for sigma in candidates:
            assignment = latfix.Assignment(gen.ops, sigma)
            assert latfix.is_closed(assignment, gen.system) == ref.closed(sigma)
            assert latfix.is_post_solution(assignment, gen.system) == \
                ref.post_solution(sigma)
            assert latfix.is_post_solution_lower_mono(assignment, gen.system, gen.ops) \
                == ref.post_solution_lower_mono(sigma)
            checked += 1
    assert checked == 600


def test_reference_evaluates_schemes_like_latfix():
    rng = random.Random(5)
    for index in range(40):
        kind = ("natinf", "interval")[index % 2]
        ref = workloads.gen_scheme(rng, kind, 1 + index % 3, 8 + index, index % 4 < 2)
        scheme = latfix.cli.parse_scheme_file(ref.render())
        assert latfix.cli.format_scheme_file(scheme) == ref.render()
        system = latfix.instantiate_system(scheme)
        lattice = latfix.make_domain(scheme.ops.descriptor)
        for _ in range(20):
            values = [lattice.sample(rng) for _ in range(6)]
            sigma = {}

            def look(var):
                return sigma.setdefault(var, values[hash(var) % len(values)])

            for point in ref.points:
                ctx = lattice.sample(rng)
                got = latfix.eval_tree(system.rhs((point, ctx)), look)
                want = reference.eval_scheme(ref.exprs[point], ref.dom, ctx, look)
                assert got == want, (ref.render(), point, ctx)


def test_reference_renders_finite_files_latfix_parses():
    for name, (kind, order, exprs), *_ in workloads.LAT_FILES:
        ref = FiniteSystem(Domain(kind), order, exprs)
        text = reference.render_finite_file(ref.dom, order, exprs)
        program = latfix.cli.parse_finite_file(text)
        assert latfix.cli.format_finite_file(program) == text, name


def main():
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
