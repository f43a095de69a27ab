#!/usr/bin/env python3
"""latfix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-random --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; latfix is imported from its src/.  A run
builds the workload's operation pool from the seed, then cycles a closed
loop with one client over the pool for --seconds and at least two passes.
The reference checker judges the outputs of the first pass, which is also
the warm-up, and every later output must equal the first of its operation.
Timings are scaled to a reference speed by a calibration kernel timed
after each operation.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a further pass runs with
the tracer installed and the metrics are the per-layer split.  The line
before it carries the bases: failure and unsoundness ratios, sample counts.
See perfbench/README.md for how to read the figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 3      # setup_s is the median of this many builds
MIN_OPS = 100       # p90 needs at least ten samples beyond it
REF_KERNEL_S = 2e-4  # calibration kernel time at the reference speed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-random", "verify-corpus", "cli-schemes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_latfix():
    """Import latfix from this checkout's src/; return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "latfix", "__init__.py")):
        raise SystemExit(f"perfbench: no latfix sources under {SRC}")
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import latfix
    import latfix.cli  # noqa: F401  (the CLI is part of the public surface)
    elapsed = time.perf_counter() - started
    if not os.path.realpath(latfix.__file__).startswith(os.path.realpath(SRC)):
        raise SystemExit(f"perfbench: imported latfix from {latfix.__file__}")
    return elapsed


def attempt(workload, op):
    try:
        return workload.run(op)
    except Exception as exc:  # every failure is counted, and the run goes on
        return exc


def _mix(a, b):
    return (a * 31 + b) & 255


def calibration_kernel():
    """Fixed pure-Python work: calls, small-int arithmetic, dict lookups."""
    table = {}
    acc = 0
    for i in range(600):
        key = _mix(i, acc)
        table[key] = (table.get(key, 0) + 1) & 255
        acc = _mix(acc, key)
    return acc


def kernel_seconds():
    """One timed calibration kernel, with the cycle collector held off.

    The kernel allocates nothing the collector tracks; holding it off also
    keeps latfix's own garbage from being collected, and charged, here.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - started
    finally:
        gc.enable()


def speed_scale():
    """REF_KERNEL_S over the median of five calibration kernels."""
    return REF_KERNEL_S / statistics.median(kernel_seconds() for _ in range(5))


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """State of one benchmark run: the pool, its judged outputs, the tallies."""

    def __init__(self, workload, args, workdir):
        self.workload = workload
        self.args = args
        self.workdir = workdir
        self.failures = Counter()
        self.attempted = 0

    def setup(self, reps):
        """Build the pool `reps` times; return the median build, scaled."""
        times = []
        for _ in range(reps):
            self.ops = None
            gc.collect()
            started = time.perf_counter()
            self.ops = self.workload.build(self.args.seed, self.workdir)
            times.append((time.perf_counter() - started) * speed_scale())
        # The pool lives for the whole run; keep the collector off it.
        gc.collect()
        gc.freeze()
        return statistics.median(times)

    def loop(self, seconds, passes):
        """Closed loop over the pool for `seconds` and at least `passes` passes.

        The first pass is the warm-up, and its outputs are the ones the
        reference judges once the loop is over; every later output must
        equal the first output of its operation.  After each operation the
        calibration kernel runs once, outside the operation's time.  Returns
        each operation's latencies, the same latencies scaled to the
        reference speed, and the summed latencies of each whole pass.
        """
        n = len(self.ops)
        self.first = [None] * n
        repeats = [Counter() for _ in range(n)]   # failure kinds of later runs
        latencies = [[] for _ in range(n)]
        scaled = [[] for _ in range(n)]
        passes_s = []
        pass_s = 0.0
        started = time.perf_counter()
        index = 0
        while True:
            slot = index % n
            begun = time.perf_counter()
            out = attempt(self.workload, self.ops[slot])
            elapsed = time.perf_counter() - begun
            latencies[slot].append(elapsed)
            scaled[slot].append(elapsed * REF_KERNEL_S / kernel_seconds())
            if index < n:
                self.first[slot] = out
            elif isinstance(out, Exception):
                repeats[slot][type(out).__name__] += 1
            elif out != self.first[slot]:
                repeats[slot]["output-changed"] += 1
            index += 1
            pass_s += elapsed
            if slot == n - 1:
                passes_s.append(pass_s)
                pass_s = 0.0
            if (time.perf_counter() - started >= seconds
                    and index >= max(MIN_OPS, passes * n)):
                break
        self._judge(latencies, repeats)
        return latencies, scaled, passes_s

    def _judge(self, latencies, repeats):
        """Judge the first pass; an exception is a failure of its own kind."""
        from workloads import Verdict

        found = {id(op): out for op, out in zip(self.ops, self.first)}
        verdicts = []
        for op, out in zip(self.ops, self.first):
            if isinstance(out, Exception):
                verdicts.append(Verdict(failure=type(out).__name__))
                continue
            try:
                verdicts.append(self.workload.check(op, out, found))
            except (KeyError, TypeError, ValueError) as exc:
                verdicts.append(Verdict(failure=f"bad-output:{type(exc).__name__}"))
        for verdict, runs, kinds in zip(verdicts, latencies, repeats):
            self.attempted += len(runs)
            if verdict.failure:
                self.failures[verdict.failure] += len(runs)
            else:
                self.failures.update(kinds)
        self.unsound = sum(v.unsound for v in verdicts)
        self.results = sum(v.results for v in verdicts)

    def counts(self):
        """rhs_evals, widen_apps and narrow_apps summed over the first pass."""
        totals = [0, 0, 0]
        for out in self.first:
            if not isinstance(out, Exception):
                for stats in self.workload.counts(out):
                    totals = [t + s for t, s in zip(totals, stats)]
        return totals

    @property
    def failed(self):
        return sum(self.failures.values())

    def info(self):
        return {
            "workload": self.args.workload, "seed": self.args.seed,
            "pool_ops": len(self.ops), "ops_attempted": self.attempted,
            "fail_ratio": self.failed / self.attempted,
            "failures": dict(self.failures),
            "unsound_ratio": self.unsound / self.results if self.results else 0.0,
            "unsound_base": self.results,
        }


def end_to_end(run, import_s):
    """End-to-end metrics, with timings scaled to the reference speed.

    The shared machine's speed wanders by a fifth for minutes at a time, so
    each latency is scaled by REF_KERNEL_S over the calibration kernel's
    time measured right after it.  Each pool operation contributes the
    median of its scaled latencies: op_ms.p50/p90 are quantiles over the
    pool, and ops_per_s is the pool size over their sum.  setup_s is
    scaled too.  The unscaled figures over all samples go to the
    information line.
    """
    setup_s = import_s + run.setup(SETUP_REPS)
    latencies, scaled, _ = run.loop(run.args.seconds, passes=2)
    evals, widens, narrows = run.counts()
    per_op_ms = [statistics.median(runs) * 1e3 for runs in scaled]
    all_ms = [x * 1e3 for runs in latencies for x in runs]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 * len(per_op_ms) / sum(per_op_ms), "1/s"),
        "op_ms.p50": (statistics.median(per_op_ms), "ms"),
        "op_ms.p90": (percentile(per_op_ms, 0.9), "ms"),
        "rhs_evals": (evals, "count"),
        "widen_apps": (widens, "count"),
        "narrow_apps": (narrows, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    speed = statistics.median(s / l for ls, ss in zip(latencies, scaled)
                              for l, s in zip(ls, ss) if l > 0)
    return metrics, {
        "op_samples": len(per_op_ms), "repetitions": len(all_ms),
        "unscaled_ops_per_s": 1e3 * len(all_ms) / sum(all_ms),
        "unscaled_op_ms.p50": statistics.median(all_ms),
        "unscaled_op_ms.p90": percentile(all_ms, 0.9),
        "speed_vs_reference": speed,
    }


def per_layer(run):
    import latfix
    import latfix.cli
    import latfix.eqsys
    import latfix.oracle
    import latfix.solvers
    from tracer import LAYERS, Tracer, layer_self_times

    run.setup(1)
    _, _, passes_s = run.loop(run.args.seconds / 2, passes=1)
    untraced = statistics.median(passes_s)
    tracer = Tracer({"latfix": latfix, "cli": latfix.cli, "eqsys": latfix.eqsys,
                     "solvers": latfix.solvers, "oracle": latfix.oracle})
    tracer.install(run.workload.lattice_ops(run.ops))
    try:
        outs, traced, stats = tracer.profile(
            lambda: [attempt(run.workload, op) for op in run.ops])
    finally:
        tracer.uninstall()
    run.attempted += len(outs)
    changed = sum(1 for out, first in zip(outs, run.first) if out != first)
    if changed:
        run.failures["traced-output-changed"] += changed
    os.makedirs(WORK, exist_ok=True)
    tracer.write_spans(os.path.join(WORK, f"spans-{run.args.workload}.jsonl"))

    self_s, total = layer_self_times(stats, os.path.join(SRC, "latfix"), BENCH_DIR)
    c = tracer.counts
    evals = c["eqsys.eval_calls"]
    parse_s = sum((end - start for name, start, end, _ in tracer.spans
                   if name == "cli.parse"), 0.0)
    metrics = {
        "cli.parse_s": (parse_s, "s"),
        "cli.calls": (c["cli.main"], "count"),
        "interproc.rhs_builds": (c["interproc.rhs_builds"], "count"),
        "interproc.builds_per_eval": (c["interproc.rhs_builds"] / evals if evals else 0.0,
                                      "ratio"),
        "solvers.queue_inserts": (c["solvers.queue_inserts"], "count"),
        "solvers.vars": (c["solvers.vars"], "count"),
        "solvers.evals_per_var": (c["solvers.rhs_evals"] / c["solvers.vars"]
                                  if c["solvers.vars"] else 0.0, "ratio"),
        "solvers.max_stack_depth": (tracer.max_depth, "frames"),
        "solvers.unsound_ratio": (run.unsound / run.results if run.results else 0.0,
                                  "ratio"),
        "eqsys.eval_calls": (evals, "count"),
        "eqsys.lookups": (c["eqsys.lookups"], "count"),
        "eqsys.us_per_eval": (self_s["eqsys"] / evals * 1e6 if evals else 0.0, "us"),
        "lattice.calls": (c["lattice.calls"], "count"),
        "oracle.checks": (sum(n for k, n in c.items() if k.startswith("oracle.is_")),
                          "count"),
        "oracle.enum_evals": (c["oracle.enum_evals"], "count"),
        "oracle.accept_s": (tracer.accept_s, "s"),
        "oracle.reject_s": (tracer.reject_s, "s"),
        "trace_overhead": (traced / untraced, "ratio"),
    }
    for module in LAYERS:
        metrics[f"{module}.self_s"] = (self_s[module], "s")
        metrics[f"{module}.share"] = (self_s[module] / total, "ratio")
        with open(os.path.join(SRC, "latfix", f"{module}.py"), encoding="utf-8") as f:
            metrics[f"{module}.src_lines"] = (sum(1 for _ in f), "lines")
    return metrics, {"traced_s": traced, "untraced_pass_s": untraced,
                     "spans": len(tracer.spans)}


def main(argv=None):
    args = parse_args(argv)
    import_s = import_latfix() * speed_scale()
    from workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload](), args,
              os.path.join(WORK, f"{args.workload}-{os.getpid()}"))
    try:
        if args.trace:
            metrics, extra = per_layer(run)
        else:
            metrics, extra = end_to_end(run, import_s)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    print(json.dumps({**run.info(), **extra}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
