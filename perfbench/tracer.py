"""Per-layer split of a pass, measured from outside latfix.

Layers are latfix's modules: cli, interproc, solvers, eqsys, lattice, oracle.
The tracer wraps public entry points by replacing module attributes (and the
instance attributes of the lattice ops objects handed to latfix), so nothing
under src/ changes and an untraced run pays nothing.

  spans     around cli.main, the file parsers, instantiate_system, the four
            solvers and the criterion checks: name, start, end, parent.  Kept
            in memory and written as JSON lines at the end.
  counters  calls at the same boundaries, plus right-hand-side builds,
            eval_tree calls, lookups, queue inserts and lattice operations,
            which are too many to keep as spans.
  self time cProfile over the same pass, grouped by the module that defines
            each function.  Builtins and standard-library code (heapq,
            argparse, json, itertools) count toward the latfix module that
            called them; the wrappers themselves count toward no layer.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "interproc", "solvers", "eqsys", "lattice", "oracle")
LATTICE_METHODS = ("leq", "eq", "join", "meet", "widen", "narrow", "succ",
                   "pred", "add_const")
SOLVERS = ("tsrr", "tstp", "tsmp", "warrow_solve")
ORACLE_CHECKS = ("is_post_solution", "is_post_solution_lower_mono")
# Wrapper frames sit between latfix's own frames during a traced solve.
RECURSION_HEADROOM = 4

_THIS_FILE = __file__


def _frame_depth():
    """Python frames on the stack, not counting this module's wrappers."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        if frame.f_code.co_filename != _THIS_FILE:
            depth += 1
        frame = frame.f_back
    return depth


class Tracer:
    def __init__(self, latfix_modules):
        self.mods = latfix_modules     # latfix, cli, eqsys, solvers, oracle by name
        self.counts = Counter()
        self.spans = []                # [name, start, end, parent index]
        self.open_spans = []           # indices of spans not yet ended
        self.accept_s = self.reject_s = 0.0
        self.max_depth = 0
        self._saved = []
        self._solve_base = None        # frame depth at the current solver's entry
        self._level = 0                # nesting of solver lookups
        self._level_max = 0

    # --- installing -------------------------------------------------------------

    def _patch(self, owner, name, wrapper_factory):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper_factory(original))

    def install(self, ops_objects=()):
        latfix, cli = self.mods["latfix"], self.mods["cli"]
        self._patch(cli, "main", lambda f: self._spanned("cli.main", f))
        for name in ("parse_scheme_file", "parse_finite_file"):
            self._patch(cli, name, lambda f: self._spanned("cli.parse", f))
        self._patch(cli, "instantiate_system", self._instantiate)
        self._patch(cli, "make_domain", self._make_domain)
        for owner in (latfix, cli):
            for name in SOLVERS:
                if hasattr(owner, name):
                    self._patch(owner, name, self._solver)
            for name in ORACLE_CHECKS:
                if hasattr(owner, name):
                    self._patch(owner, name, self._check)
        self._patch(latfix, "is_closed", lambda f: self._spanned("eqsys.is_closed", f))
        self._patch(self.mods["solvers"], "eval_tree", self._solver_eval)
        self._patch(self.mods["oracle"], "eval_tree", self._oracle_eval)
        self._patch(self.mods["solvers"]._PrioQueue, "insert",
                    lambda f: self._counted("solvers.queue_inserts", f))
        for ops in ops_objects:
            self._instrument_ops(ops)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _instrument_ops(self, ops):
        for name in LATTICE_METHODS:
            if name in vars(ops):
                continue
            method = getattr(ops, name)
            self._saved.append((ops, name, None))
            setattr(ops, name, self._counted("lattice.calls", method))

    # --- wrappers -----------------------------------------------------------------

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name, fn, on_result=None):
        counts, spans, open_ = self.counts, self.spans, self.open_spans

        def spanned(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          open_[-1] if open_ else None])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(result, spans[index][2] - spans[index][1])
            return result

        return spanned

    def _solver(self, fn):
        inner = self._spanned(f"solvers.{fn.__name__}", fn, self._solver_done)

        def solver(*args, **kwargs):
            outer = (self._solve_base, self._level, self._level_max)
            self._solve_base, self._level, self._level_max = _frame_depth(), 0, -1
            try:
                return inner(*args, **kwargs)
            finally:
                self._solve_base, self._level, self._level_max = outer

        return solver

    def _solver_done(self, result, _elapsed):
        self.counts["solvers.vars"] += result.stats.vars_encountered
        self.counts["solvers.rhs_evals"] += result.stats.rhs_evals

    def _check(self, fn):
        def record(verdict, elapsed):
            if verdict:
                self.accept_s += elapsed
            else:
                self.reject_s += elapsed

        return self._spanned(f"oracle.{fn.__name__}", fn, record)

    def _measure_depth(self):
        if self._solve_base is not None:
            depth = _frame_depth() - self._solve_base
            if depth > self.max_depth:
                self.max_depth = depth

    def _solver_eval(self, eval_tree):
        counts = self.counts
        as_lookup = self.mods["eqsys"].as_lookup

        def traced_eval(tree, lookup):
            counts["eqsys.eval_calls"] += 1
            if self._level >= self._level_max:
                self._level_max = self._level
                self._measure_depth()
            lookup = as_lookup(lookup)

            def traced_lookup(var):
                counts["eqsys.lookups"] += 1
                self._level += 1
                try:
                    if self._level > self._level_max:
                        self._level_max = self._level
                        self._measure_depth()
                    return lookup(var)
                finally:
                    self._level -= 1

            return eval_tree(tree, traced_lookup)

        return traced_eval

    def _oracle_eval(self, eval_tree):
        counts = self.counts
        as_lookup = self.mods["eqsys"].as_lookup

        def traced_eval(tree, lookup):
            counts["eqsys.eval_calls"] += 1
            counts["oracle.enum_evals"] += 1
            lookup = as_lookup(lookup)

            def traced_lookup(var):
                counts["eqsys.lookups"] += 1
                return lookup(var)

            return eval_tree(tree, traced_lookup)

        return traced_eval

    def _instantiate(self, instantiate):
        build = self._spanned("interproc.instantiate_system", instantiate)

        def traced_instantiate(scheme):
            system = build(scheme)
            system.rhs = self._counted("interproc.rhs_builds", system.rhs)
            return system

        return traced_instantiate

    def _make_domain(self, make_domain):
        def traced_make_domain(descriptor):
            ops = make_domain(descriptor)
            self._instrument_ops(ops)
            return ops

        return traced_make_domain

    # --- running and reporting -------------------------------------------------------

    def profile(self, fn):
        """Run fn() profiled; return (its result, wall seconds, cProfile stats)."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit * RECURSION_HEADROOM)
        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
            sys.setrecursionlimit(limit)
        return result, time.perf_counter() - started, pstats.Stats(profiler).stats

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def layer_self_times(stats, src_dir, bench_dir):
    """Self seconds per layer from cProfile stats, plus the profiled total.

    A function defined in src/latfix/<module>.py belongs to that module, and
    one defined in the benchmark's own files to no layer.  Any other
    function's self time (builtins, the standard library) is split over its
    callers in proportion to the time it spent for each, recursively, until
    it reaches one of those two.
    """
    src_dir = os.path.realpath(src_dir) + os.sep
    bench_dir = os.path.realpath(bench_dir) + os.sep
    owners = {}

    def direct(func):
        filename = func[0]
        if filename.startswith(src_dir):
            return os.path.splitext(os.path.basename(filename))[0]
        if filename.startswith(bench_dir):
            return "benchmark"
        return None

    def owner(func, active):
        layer = direct(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        if func in active or func not in stats:
            return {}
        callers = stats[func][4]
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            owners[func] = {"other": 1.0}
            return owners[func]
        active.add(func)
        share = defaultdict(float)
        for caller, weight in weights.items():
            for layer, part in owner(caller, active).items():
                share[layer] += part * weight / total
        active.discard(func)
        norm = sum(share.values())
        result = {k: v / norm for k, v in share.items()} if norm else {"other": 1.0}
        owners[func] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for func, (_, _, tottime, _, _) in stats.items():
        total += tottime
        for layer, part in owner(func, set()).items():
            if layer in self_s:
                self_s[layer] += tottime * part
    return self_s, total
