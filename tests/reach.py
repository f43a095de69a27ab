"""Reach trace: which functions of `src/latfix` the product's own paths call.

Under `sys.settrace`, set on the calling thread only, it runs

  * every CLI command, with and without --json, with every solver (every
    ordered pair of solvers for `compare`), on each file in samples/, on
    `ring_text(30)` and on `stratified_chain_text(20)`;
  * one pass over each benchmark workload's operation pool at seed 101, then
    a second pass whose outputs are compared with `!=` against the first
    pass's, as perfbench/run.py compares an operation's repeats;

and prints every function defined in src/latfix that no frame ran, how many
repeated operations gave a different output, and the line count of src/.
Only calls are traced, not the lines inside a function, so a reached
function may still hold unreached branches.  Functions are named by
`co_qualname`, so it needs Python 3.11.  The name does not match `test_*`,
so pytest does not collect it.  From the repository root:

    python tests/reach.py

The CLI runs use --var-budget 10000, so `samples/recursive.sch` stops at
its budget quickly and small.  The benchmark's files are only read: its
pools are built into a temporary directory.  The exit status is 0 unless a
repeated operation's output differed from its first.
"""

import contextlib
import inspect
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "latfix"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

SEED = 101
VAR_BUDGET = "10000"


def defined_functions():
    """{(file, first line, qualified name)} of every function in src/latfix."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS:  # not a module or class body
                found.add((code.co_filename, code.co_firstlineno, code.co_qualname))
    return found


def cli_runs(tmp):
    """The argument lists of every CLI run, over files written into `tmp`."""
    from fixtures import ring_text, stratified_chain_text
    from latfix.cli import SOLVERS

    files = sorted(str(p) for p in (ROOT / "samples").iterdir())
    for name, text in (("ring.lat", ring_text(30)), ("chain.sch", stratified_chain_text(20))):
        path = Path(tmp) / name
        path.write_text(text)
        files.append(str(path))
    budget = ["--var-budget", VAR_BUDGET]
    for path, json in itertools.product(files, ([], ["--json"])):
        yield ["check-stratified", path, *json]
        for solver in SOLVERS:
            yield ["solve", solver, path, *budget, *json]
            yield ["verify", solver, path, *budget, *json]
        for a, b in itertools.product(SOLVERS, repeat=2):
            yield ["compare", a, b, path, *budget, *json]


def benchmark_passes(tmp):
    """{workload: (operations, raised, repeats that differ)}, two passes each."""
    from run import attempt
    from workloads import WORKLOADS

    report = {}
    for name, workload_class in WORKLOADS.items():
        workload = workload_class()
        ops = workload.build(SEED, str(Path(tmp) / name))
        first = [attempt(workload, op) for op in ops]
        second = [attempt(workload, op) for op in ops]
        raised = sum(isinstance(out, Exception) for out in first + second)
        changed = sum(1 for a, b in zip(first, second) if not isinstance(b, Exception) and b != a)
        report[name] = (len(ops), raised, changed)
    return report


def trace(fn):
    """fn(), and the src/latfix code it called, as defined_functions keys it."""
    prefix = str(PACKAGE)
    reached = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            reached.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.settrace(on_call)
    try:
        return fn(), reached
    finally:
        sys.settrace(None)


def run_all():
    # latfix is first imported here, under the trace: what its import runs,
    # such as the decorators, is reached by every caller.
    import latfix.cli

    if not latfix.cli.__file__.startswith(str(PACKAGE)):
        raise SystemExit(f"reach: imported latfix from {latfix.cli.__file__}")
    with tempfile.TemporaryDirectory(prefix="latfix-reach-") as tmp:
        runs = list(cli_runs(tmp))
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in runs:
                latfix.cli.main(argv, out=io.StringIO())
        return len(runs), benchmark_passes(tmp)


def main():
    (cli_count, passes), reached = trace(run_all)
    unreached = sorted(defined_functions() - reached)
    print(f"{cli_count} CLI runs; benchmark pools at seed {SEED}:")
    for name, (ops, raised, changed) in passes.items():
        print(f"  {name}: {ops} operations, {raised} raised, "
              f"{changed} repeats differ from the first pass")
    print(f"unreached functions in src/latfix ({len(unreached)}):")
    for filename, line, qualname in unreached:
        print(f"  {Path(filename).name}:{line}  {qualname}")
    lines = {p.stem: len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))}
    print(f"src/ lines: {sum(lines.values())} ("
          + ", ".join(f"{m} {n}" for m, n in sorted(lines.items(), key=lambda kv: -kv[1]))
          + ")")
    return 1 if any(changed for _, _, changed in passes.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
