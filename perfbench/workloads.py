"""The benchmark's three workloads.

Each workload builds a pool of operations from the seed, runs one operation
through latfix's public API or CLI, and judges a pass of outputs against the
reference checker.  Calls go through the `latfix` and `latfix.cli` module
attributes at call time, so the traced run can wrap them from outside.

  solve-random   one solver call on a random non-monotonic finite system
  verify-corpus  one small system's full criterion-3 verdict
  cli-schemes    one in-process `latfix.cli.main` call on a written file
"""

from __future__ import annotations

import io
import json
import os
import random
from dataclasses import dataclass

import latfix
import latfix.cli

import reference
from reference import Domain, FiniteSystem, SchemeSystem


@dataclass
class Verdict:
    """What the reference concluded about one operation's output."""

    failure: str | None = None   # why the operation failed, None if it did not
    unsound: int = 0             # solver results rejected by the oracle
    results: int = 0             # solver results judged


# Finite lattices of the random systems: chains of 3-6 elements and powersets
# of 2-4 atoms, as (kind, size or atoms).
FINITE_LATTICES = [("chain", 3), ("chain", 4), ("chain", 5), ("chain", 6),
                   ("powerset", ("a", "b")), ("powerset", ("a", "b", "c")),
                   ("powerset", ("a", "b", "c", "d"))]


def _descriptor(kind, param):
    if kind == "chain":
        return latfix.Chain(param)
    return latfix.Powerset(param)


def _spread(lo, hi, i, count):
    """The i-th of `count` sizes spaced evenly over [lo, hi]."""
    return lo + (hi - lo) * i // max(count - 1, 1)


@dataclass
class FiniteCase:
    """A generated finite system together with its reference view."""

    gen: object
    ref: FiniteSystem

    @classmethod
    def generate(cls, seed, nvars, lattice, depth):
        kind, param = lattice
        gen = latfix.gen_random_system(seed, nvars, _descriptor(kind, param),
                                       depth, False)
        ref = FiniteSystem(Domain(kind, param), gen.variables, gen.exprs)
        return cls(gen, ref)


def _values(assignment):
    return dict(assignment.items())


# --- solve-random ---------------------------------------------------------------

@dataclass
class SolveOp:
    solver: str
    case: FiniteCase


class SolveRandom:
    """One solver call on a pre-generated non-monotonic random system.

    tstp and tsmp run on 150-450 variables, tsrr (quadratic) on 30-50:
    between 50 and 80 variables its evaluation counts have so long a tail
    that one pool's totals and p90 moved 8-12% from seed to seed.  Sizes and
    lattices follow a fixed schedule; the seed draws the systems.
    """

    name = "solve-random"
    pool = {"tstp": 120, "tsmp": 120, "tsrr": 180}       # systems per solver
    sizes = {"tstp": (150, 450), "tsmp": (150, 450), "tsrr": (30, 50)}
    depth = 3

    def build(self, seed, workdir):
        rng = random.Random(seed)
        ops = []
        for solver, (lo, hi) in self.sizes.items():
            for i in range(self.pool[solver]):
                nvars = _spread(lo, hi, i, self.pool[solver])
                lattice = FINITE_LATTICES[i % len(FINITE_LATTICES)]
                case = FiniteCase.generate(rng.randrange(2**31), nvars, lattice,
                                           self.depth)
                ops.append(SolveOp(solver, case))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        gen = op.case.gen
        if op.solver == "tsrr":
            return latfix.tsrr(gen.variables, gen.system, gen.ops)
        solve = latfix.tstp if op.solver == "tstp" else latfix.tsmp
        return solve(gen.system, gen.variables[0], gen.ops)

    def counts(self, out):
        return [(out.stats.rhs_evals, out.stats.widen_apps, out.stats.narrow_apps)]

    def lattice_ops(self, ops):
        return [op.case.gen.ops for op in ops]

    def check(self, op, out, found):
        """Closedness (and sigma0 post-solution for tstp), oracle against reference."""
        if out.status is not latfix.SolveStatus.COMPLETED:
            return Verdict(failure="status")
        gen, ref = op.case.gen, op.case.ref
        checks = [(latfix.is_closed(out.assignment, gen.system),
                   ref.closed(_values(out.assignment)))]
        if op.solver == "tstp":
            checks.append((latfix.is_post_solution(out.sigma0, gen.system),
                           ref.post_solution(_values(out.sigma0))))
        return _judge(checks, guaranteed=len(checks), results=1)


def _judge(checks, guaranteed, results, unsound_groups=None):
    """Turn (oracle verdict, reference verdict) pairs into a Verdict.

    The first `guaranteed` checks are properties the solvers promise
    (closedness, sigma0 post-solution), so a rejection there is a failure as
    well as unsound.  `unsound_groups` maps each solver result to the checks
    that judge it; by default there is one result judged by every check.
    """
    if any(oracle != ref for oracle, ref in checks):
        return Verdict(failure="oracle-disagrees", results=results)
    groups = unsound_groups or [range(len(checks))]
    unsound = sum(1 for group in groups if not all(checks[i][1] for i in group))
    failure = None
    if not all(ref for _, ref in checks[:guaranteed]):
        failure = "guarantee-broken"
    return Verdict(failure=failure, unsound=unsound, results=results)


# --- verify-corpus ----------------------------------------------------------------

@dataclass
class VerifyOp:
    case: FiniteCase
    bottom: object   # the all-bottom candidate the refutation check judges


class VerifyCorpus:
    """One small system's full criterion-3 verdict.

    Solve with tsrr, tstp and tsmp; check each result for closedness and
    post-solution of the lower monotonization, sigma0 for post-solution, and
    the all-bottom assignment for post-solution of the lower monotonization.
    The oracle accepts sound results early and refutes by enumerating every
    up-set, so |D|^n is capped to keep each refutation below a second.
    """

    name = "verify-corpus"
    pool = 300
    nvars = (3, 7)
    max_assignments = 12_000

    def shapes(self):
        out = []
        for lattice in FINITE_LATTICES:
            kind, param = lattice
            size = param if kind == "chain" else 2 ** len(param)
            out += [(lattice, n) for n in range(self.nvars[0], self.nvars[1] + 1)
                    if size ** n <= self.max_assignments]
        return out

    def build(self, seed, workdir):
        rng = random.Random(seed)
        shapes = self.shapes()
        ops = []
        for i in range(self.pool):
            lattice, nvars = shapes[i % len(shapes)]
            case = FiniteCase.generate(rng.randrange(2**31), nvars, lattice,
                                       2 + i % 2)
            bottom = latfix.Assignment(case.gen.ops,
                                       {v: case.gen.ops.bot for v in case.gen.variables})
            ops.append(VerifyOp(case, bottom))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        gen = op.case.gen
        system, ops, start = gen.system, gen.ops, gen.variables[0]
        results = (latfix.tsrr(gen.variables, system, ops),
                   latfix.tstp(system, start, ops),
                   latfix.tsmp(system, start, ops))
        verdicts = []
        for result in results:
            verdicts.append(latfix.is_closed(result.assignment, system))
            verdicts.append(latfix.is_post_solution_lower_mono(
                result.assignment, system, ops))
        verdicts.append(latfix.is_post_solution(results[1].sigma0, system))
        verdicts.append(latfix.is_post_solution_lower_mono(op.bottom, system, ops))
        return results, tuple(verdicts)

    def counts(self, out):
        return [(r.stats.rhs_evals, r.stats.widen_apps, r.stats.narrow_apps)
                for r in out[0]]

    lattice_ops = SolveRandom.lattice_ops

    def check(self, op, out, found):
        results, verdicts = out
        if any(r.status is not latfix.SolveStatus.COMPLETED for r in results):
            return Verdict(failure="status")
        ref = op.case.ref
        sigmas = [_values(r.assignment) for r in results]
        closed = [(verdicts[2 * i], ref.closed(s)) for i, s in enumerate(sigmas)]
        lower = [(verdicts[2 * i + 1], ref.post_solution_lower_mono(s))
                 for i, s in enumerate(sigmas)]
        sigma0 = (verdicts[6], ref.post_solution(_values(results[1].sigma0)))
        bottom = (verdicts[7], ref.post_solution_lower_mono(_values(op.bottom)))
        # Checks 0-3 are guaranteed; 4-6 are the lower-monotonization verdicts
        # of tsrr, tstp and tsmp (the documented red criterion); 7 is the
        # refutation, which judges no solver result.
        checks = closed + [sigma0] + lower + [bottom]
        groups = [(0, 4), (1, 3, 5), (2, 6)]
        return _judge(checks, guaranteed=4, results=3, unsound_groups=groups)


# --- cli-schemes --------------------------------------------------------------------

FLIPFLOP = ("natinf", ["y1"],
            {"y1": ("ite", ("eq", ("get", "y1"), ("lit", 0)), ("lit", 1), ("lit", 0))})
MINMAX = ("natinf", ["y1", "y2", "y3"],
          {"y1": ("join", ("get", "y1"), ("get", "y2")),
           "y2": ("meet", ("get", "y3"), ("lit", 2)),
           "y3": ("inc", ("get", "y2"))})
COUNTER = ("interval", ["x", "y", "z"],
           {"x": ("join", ("lit", (0, 0)),
                  ("meet", ("inc", ("get", "x")), ("lit", (reference.NEG_INF, 100)))),
            "y": ("join", ("get", "x"), ("inc", ("get", "y"))),
            "z": ("meet", ("get", "y"), ("lit", (-5, 40)))})
# name, system, monotone, warrow fuel (None: the CLI default), warrow exit code
LAT_FILES = [("flipflop", FLIPFLOP, False, 50, 3),
             ("minmax", MINMAX, True, None, 0),
             ("counter", COUNTER, True, None, 0)]


def gen_scheme(rng, kind, helpers, bound, monotone):
    """A scheme in the style of samples/nested_calls_*.sch with finitely many contexts.

    Helper point h_j walks its context upward in steps of 1 or 2, reads h_j+1
    at the same context, and iterates a clamped increment on itself, which
    needs real widening and narrowing.  The start point `u` calls every
    helper at two entry contexts; unless `monotone`, an entry may be
    the result of another call, which makes the system non-monotonic.  Every
    cell argument other than `ctx` is clamped by meet_const:`bound`, so a
    point sees at most bound+1 natinf contexts (or sub-intervals of
    [0, bound]), and a chain of reads is at most bound+helpers long.
    """
    dom = Domain(kind)
    clamp = bound if kind == "natinf" else (0, bound)
    ctx = ("ctx",)

    def lit():
        a = rng.randint(0, bound)
        return a if kind == "natinf" else (a, min(bound, a + rng.randint(0, 3)))

    def app(name, *args, param=None):
        return ("app", name, param, args)

    def call(point, arg):
        return ("cell", point, app("meet_const", arg, param=clamp))

    def shift(e):
        name = rng.choice(["inc", "dec", "join_const"])
        return app(name, e, param=lit() if name == "join_const" else None)

    def entry(offset):
        base = ctx if kind == "natinf" else app("join_const", ctx,
                                                 param=(0, rng.randint(0, 3)))
        return app("add_const", base, param=offset)

    names = [f"h{j}" for j in range(helpers)]
    exprs = {}
    for j, name in enumerate(names):
        walk = call(name, app("add_const", ctx, param=1 + j % 2))
        loop = app("meet_const", app("inc", ("cell", name, ctx)), param=lit())
        body = app("join", walk, loop)
        if j + 1 < helpers:
            body = app("join", body, ("cell", names[j + 1], ctx))
        exprs[name] = app("join", body, shift(ctx))
    body = ("cell", "u", ctx)
    for name in names:
        for offset in (0, bound // 3):
            arg = entry(offset)
            if not monotone and rng.random() < 0.5:
                arg = shift(call(rng.choice(names), arg))
            op = "join" if monotone else rng.choice(["join", "meet"])
            body = app(op, body, call(name, arg))
    exprs["u"] = app("join", body, ctx)
    start = ("u", 0 if kind == "natinf" else (0, 0))
    return SchemeSystem(dom, ["u"] + names, exprs, start)


@dataclass
class CliOp:
    argv: list
    expect: int                  # expected exit code
    ref: object                  # SchemeSystem or FiniteSystem
    monotone: bool
    pair: tuple = ()             # compare: the two solve operations it repeats


class CliSchemes:
    """In-process `latfix.cli.main` calls with output into a buffer.

    `solve` (tstp, tsmp, warrow) and `compare tstp tsmp` on scheme files
    written in setup over natinf and interval, plus a few finite natinf and
    interval `.lat` files, among them the flip-flop, where warrow with a small
    fuel must exit 3.  Natinf bounds stay at or below 100: at 150 the
    demand-driven solvers recurse past Python's default limit.
    """

    name = "cli-schemes"
    schemes = 36
    bounds = {"natinf": (20, 100), "interval": (8, 40)}

    def build(self, seed, workdir):
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        files = []
        for i in range(self.schemes):
            kind = "natinf" if i % 2 == 0 else "interval"
            bound = _spread(*self.bounds[kind], i // 2, self.schemes // 2)
            monotone = i % 4 < 2
            ref = gen_scheme(rng, kind, 1 + i % 4, bound, monotone)
            files.append((f"s{i:03d}.sch", ref.render(), ref, monotone, None, 0))
        for name, (kind, order, exprs), monotone, fuel, warrow_exit in LAT_FILES:
            ref = FiniteSystem(Domain(kind), order, exprs)
            text = reference.render_finite_file(ref.dom, order, exprs)
            files.append((f"{name}.lat", text, ref, monotone, fuel, warrow_exit))
        ops = []
        for name, text, ref, monotone, fuel, warrow_exit in files:
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            flags = ["--json"] + (["--fuel", str(fuel)] if fuel else [])
            solves = {solver: CliOp(["solve", solver, path] + flags,
                                    warrow_exit if solver == "warrow" else 0,
                                    ref, monotone)
                      for solver in ("tstp", "tsmp", "warrow")}
            ops += solves.values()
            ops.append(CliOp(["compare", "tstp", "tsmp", path] + flags, 0, ref,
                             monotone, pair=(solves["tstp"], solves["tsmp"])))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        out = io.StringIO()
        code = latfix.cli.main(op.argv, out=out)
        return code, out.getvalue()

    def counts(self, out):
        payload = json.loads(out[1])
        stats = [payload[k] for k in ("stats_a", "stats_b") if k in payload] or [payload]
        return [(s["evals"], s["widen_apps"], s["narrow_apps"]) for s in stats]

    def lattice_ops(self, ops):
        return []  # the traced run instruments the ops objects the parser makes

    def check(self, op, out, found):
        """Exit code, status and guarantees; `found` maps id(op) to its output."""
        code, text = out
        if code != op.expect:
            return Verdict(failure="exit-code")
        payload = json.loads(text)
        if op.pair:
            return self._check_compare(op, payload, found)
        expected = "completed" if code == 0 else "fuel-exhausted"
        if payload["status"] != expected:
            return Verdict(failure="status")
        if code != 0:
            return Verdict()
        ref = op.ref
        sigma = self._sigma(ref, payload)
        start = ref.start if isinstance(ref, SchemeSystem) else ref.order[0]
        guaranteed = [start in sigma, ref.closed(sigma)]
        if op.monotone:
            guaranteed.append(ref.post_solution(sigma))
        if all(guaranteed):
            return Verdict(results=1)
        return Verdict(failure="guarantee-broken", unsound=1, results=1)

    def _check_compare(self, op, payload, found):
        """The report must equal one recomputed from the two matching solves."""
        sides = [found.get(id(side)) for side in op.pair]
        if not all(isinstance(side, tuple) for side in sides):
            return Verdict(failure="pair-failed")
        solved = [json.loads(side[1]) for side in sides]
        expected = reference.compare_buckets(
            op.ref.dom, *(self._sigma(op.ref, s) for s in solved))
        for key, side in (("stats_a", solved[0]), ("stats_b", solved[1])):
            expected[key] = {k: side[k] for k in ("vars", "evals", "widen_apps",
                                                 "narrow_apps")}
        got = {k: payload[k] for k in expected}
        return Verdict() if got == expected else Verdict(failure="compare-mismatch")

    @staticmethod
    def _sigma(ref, payload):
        parse_var = ref.parse_var if isinstance(ref, SchemeSystem) else str
        return {parse_var(k): ref.dom.parse(v) for k, v in payload["assignment"].items()}


WORKLOADS = {w.name: w for w in (SolveRandom, VerifyCorpus, CliSchemes)}
