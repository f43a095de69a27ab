"""Mutation runner for the solver core, `check_stratified`, the CLI's front end
and the layout of finite systems.

Each mutant is one textual edit of a file under `src/`: the old text, the new
text and the fault it stands for.  The runner copies the repository to a
temporary directory, applies one mutant there, runs the mutant's test subset
with pytest under a wall-clock limit and prints one line per mutant:

  killed    the subset failed
  survived  the subset passed: no test tells the fault from the code
  hung      the subset ran past the limit
  deleted   the mutated code is gone from `src/`, with the argument for
            its equivalence in the entry (and in CHANGES.md)

A survivor is either a test to add or code to delete.  The name does not match
`test_*`, so pytest does not collect it; it runs a suite per mutant, which is
too slow for tier-1.  From the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Hypothesis runs with a fixed seed, so a verdict does not depend on the draw.
The exit status is 0 only if no mutant survived, hung or failed to apply.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER_TESTS = ("tests/test_solvers.py", "tests/test_golden.py", "tests/test_acceptance.py")
STRATIFY_TESTS = ("tests/test_interproc.py", "tests/test_solvers.py", "tests/test_golden.py")
CLI_TESTS = ("tests/test_cli.py", "tests/test_golden.py")
LAYOUT_TESTS = ("tests/test_eqsys.py", "tests/test_oracle.py", "tests/test_golden.py")
LIMIT = 240  # seconds per mutant; tier-1's own per-test limit is 60 s
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                              ".perfbench", "*.egg-info")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    fault: str
    tests: tuple = SOLVER_TESTS
    deleted: bool = False  # `new` is now the code: `old` must be gone


S, I, C = "src/latfix/solvers.py", "src/latfix/interproc.py", "src/latfix/cli.py"
E, O = "src/latfix/eqsys.py", "src/latfix/oracle.py"

MUTANTS = [
    # --- _demand: killed -------------------------------------------------------
    Mutant("replay-skips-point-mark", S,
           "                    if u <= r:\n"
           "                        point[u] = 1\n"
           "                    s = infl[u]\n",
           "                    s = infl[u]\n",
           "a replayed read marks no point"),
    Mutant("enter-never-queues-entered", S,
           "                        insert(pending)\n",
           "                        pass\n",
           "ENTER never queues the variable it copies into sigma1"),
    Mutant("enter-lo-is-reader", S,
           "frames += r + 1, u, ENTER",
           "frames += r, u, ENTER",
           "an ENTER frame's loop also drains its reader's own slot"),
    Mutant("resume-skips-influence", S,
           "                s = infl[u]\n"
           "                if s is None:\n"
           "                    infl[u] = {r}\n"
           "                else:\n"
           "                    s.add(r)\n"
           "                top, u = v, None\n",
           "                top, u = v, None\n",
           "a resumed look-up registers no reader"),
    Mutant("non-point-overwritten", S,
           "                elif ret:\n"
           "                    new = meet(old, new)\n",
           "",
           "a NARROW update of a non-point overwrites instead of taking the meet"),
    Mutant("warrow-late-samples-early", S,
           "if mode != WARROW_LATE:",
           "if True:",
           "warrow_solve also samples point marks before the evaluation"),
    Mutant("point-mark-strict", S,
           "                if u <= r:\n"
           "                    point[u] = 1\n"
           "                s = infl[u]\n"
           "                if s is None:\n"
           "                    infl[u] = {r}\n"
           "                else:\n"
           "                    s.add(r)\n"
           "                top = v\n",
           "                if u < r:\n"
           "                    point[u] = 1\n"
           "                s = infl[u]\n"
           "                if s is None:\n"
           "                    infl[u] = {r}\n"
           "                else:\n"
           "                    s.add(r)\n"
           "                top = v\n",
           "a program's read of its own variable marks no point: a self-loop never "
           "widens (hung tier-1 before the per-test time limit)"),
    Mutant("point-mark-kept", S,
           "                if mode != WARROW_LATE:\n"
           "                    isp = point[r]\n"
           "                    point[r] = 0\n",
           "                if mode != WARROW_LATE:\n"
           "                    isp = point[r]\n",
           "an evaluation keeps its point mark instead of consuming it"),
    Mutant("loop-skips-lo", S,
           "if heap and -heap[0] >= lo:",
           "if heap and -heap[0] > lo:",
           "a loop frame leaves its own lowest slot queued"),
    Mutant("enter-copies-bottom", S,
           "sigma1[pending] = sigma0[pending]",
           "sigma1[pending] = bot",
           "a variable enters sigma1 at bottom, not at its phase-0 value"),
    Mutant("narrow-mode-widens", S,
           "if mode == WIDEN or not (ret or leq(new, old)):",
           "if mode == WIDEN or not leq(new, old):",
           "a NARROW update widens a point whose result is not below its value"),
    Mutant("queue-first-touch-once", S,
           "                    if not flips:  # pending's phase-1 solve returned: narrow it\n"
           "                        nxt, nmode = pending, NARROW\n"
           "                        continue\n",
           "                    if not flips:\n"
           "                        continue\n",
           "a variable the phase-1 queue first touches is updated once, not twice"),
    Mutant("replay-ignores-mismatch", S,
           "                    if v != rec[i + 1]:\n"
           "                        break\n",
           "",
           "a replay reuses its recorded result whatever the values read"),
    Mutant("rerun-unfed", S,
           "slot_get = _unhashed",
           "fed = None",
           "a replay that stops at a mismatch reruns the program on current values"),
    # --- _demand: deleted, each the code that is now in `src/` ------------------
    Mutant("first-touch-keeps-u", S,
           "                    nxt, nmode = u, first\n"
           "                u = None\n",
           "                    nxt, nmode = u, first\n",
           "a dead store: every path to the next read of u assigns it first",
           deleted=True),
    Mutant("tsmp-nests-at-lo", S,
           "                    m = NARROW if ret else WARROW  # tsmp: pending's evaluation returned\n"
           "                    if m != fmode and pending > lo:\n"
           "                        frames += pending, None, m\n"
           "                        continue\n"
           "                    frames[-1] = fmode = m\n",
           "                    if ret and fmode == WARROW:  # tsmp: a narrowing nests a NARROW loop\n"
           "                        frames += pending, None, NARROW\n"
           "                        continue\n",
           "tsmp nests a NARROW loop at pending == lo too, where it drains what the "
           "switched frame would",
           deleted=True),
    Mutant("unchanged-update-not-sound", S,
           "                if eq(old, new):\n"
           "                    ret = True\n"
           "                else:\n",
           "                if not eq(old, new):\n",
           "an unchanged update opens no NARROW loop: no slot at or above it is queued",
           deleted=True),
    Mutant("mismatched-record-kept", S,
           "                    del recorded[r]\n",
           "",
           "a record is kept after a mismatch: its values are final phase-0 values "
           "and sigma1 only descends from them, so the read that differed differs "
           "again, and a later replay reruns the program at it or before it",
           deleted=True),
    Mutant("replaying-resume-keeps-mode", S,
           "                mode, sig = NARROW, sigma1\n",
           "",
           "a REPLAYING resume keeps mode and sig: the last evaluation before it "
           "was a NARROW one",
           deleted=True),
    Mutant("suspended-resume-keeps-sig", S,
           "                end = len(code)\n"
           "                sig = sigma0 if mode == WIDEN else sigma1\n"
           "                v = sig[u]\n",
           "                end = len(code)\n"
           "                v = sig[u]\n",
           "a SUSPENDED resume keeps sig: the last evaluation before it ran in the "
           "resumed evaluation's phase",
           deleted=True),
    Mutant("replay-registers-unset-read", S,
           "                    v = sig[u]\n"
           "                    if v is UNSET:\n"
           "                        break\n",
           "                    v = sig[u]\n",
           "a replay's read of a variable not yet in sigma1 marks and registers "
           "before it suspends: the reader is already registered from phase 0, and "
           "the marked slot is below the ENTER loop's lo, so not evaluated before "
           "the resumed replay marks it again",
           deleted=True),
    # --- tsrr ---------------------------------------------------------------------
    Mutant("tsrr-flag-of-last-sweep", S,
           "sweep_flags[bisect_right(sweeps, k) - 1]",
           "sweep_flags[-1]",
           "a level takes the flag of the last sweep, not of the last one covering it"),
    Mutant("tsrr-never-unparks", S,
           "            if stamp[-j] == s:\n",
           "            if False:\n",
           "a level parked by its flag stays parked when a sweep flips the flag"),
    Mutant("tsrr-no-self-requeue", S,
           "        heappush(work, -k)  # the rule may move k again, as narrowing after widening\n",
           "",
           "a changed level is not revisited"),
    Mutant("tsrr-reuses-stale-result", S,
           "            last[r] = _STALE\n",
           "            pass\n",
           "a level reuses its last result after a variable it read changed"),
    # --- check_stratified -----------------------------------------------------------
    Mutant("strict-self-edges-only", I,
           "if strict and comp[u] == comp[u2]:",
           "if strict and u == u2:",
           "only a strict self-call counts as a cycle", STRATIFY_TESTS),
    Mutant("tarjan-cross-edges-lower-low", I,
           "                if nxt not in comp:\n",
           "                if True:\n",
           "an edge into a finished component lowers the low-link", STRATIFY_TESTS),
    Mutant("levels-folded-unsorted", I,
           "sorted(edges, key=lambda edge: comp[edge[0]])",
           "edges",
           "levels fold over the edges in file order, not callees first", STRATIFY_TESTS),
    Mutant("levels-count-every-edge", I,
           "level[comp[u2]] + strict",
           "level[comp[u2]] + 1",
           "a call that passes the context through still raises the level", STRATIFY_TESTS),
    Mutant("lit-operands-searched", I,
           "    if expr[0] != \"lit\":\n"
           "        for a in expr[1:]:\n",
           "    for a in expr[1:]:\n",
           "a literal's operand is a lattice value, never a tuple that holds a cell",
           STRATIFY_TESTS, deleted=True),
    Mutant("cycle-self-shortcut", I,
           "    if src == dst:\n"
           "        return (src, src)\n",
           "",
           "a search from dst == src stops at once with the same (src, src)",
           STRATIFY_TESTS, deleted=True),
    Mutant("fold-within-component", I,
           "        if c != c2:\n",
           "",
           "an edge inside a component is never strict, so folding it changes nothing",
           STRATIFY_TESTS, deleted=True),
    # --- cli --------------------------------------------------------------------------
    Mutant("compare-swaps-buckets", C,
           '"a_more_precise": a_more,\n            "b_more_precise": b_more,',
           '"a_more_precise": b_more,\n            "b_more_precise": a_more,',
           "compare counts each side's more precise variables for the other", CLI_TESTS),
    Mutant("declaration-error-loses-line", C,
           "        except (LatticeError, SchemeError) as exc:\n"
           "            raise ParseError(str(exc), lineno) from None\n",
           "",
           "a lattice or builtin error in a declaration escapes without its line",
           CLI_TESTS),
    Mutant("render-ignores-operand", C,
           'return f"({text})" if operand else text',
           "return text",
           "the formatter writes operands without their parentheses", CLI_TESTS),
    # --- the layout of finite systems ---------------------------------------------------
    Mutant("rhs-wraps-answers", E,
           "return Program(entry, ops) if entry.__class__ is tuple else entry",
           "return Program(entry, ops)",
           "a finite system's rhs wraps every stored entry, answers included",
           LAYOUT_TESTS),
    Mutant("leaf-of-another-name", O,
           'gets = [_GET_LEAVES.setdefault(v, ("get", v)) for v in variables]',
           'gets = [_GET_LEAVES.setdefault(v, ("get", w))\n'
           '            for v, w in zip(variables, variables[1:] + variables[:1])]',
           "the leaf table pairs each name with the next name's leaf",
           LAYOUT_TESTS),
    Mutant("build-stores-program", E,
           "stored[name] = entry.code if entry.__class__ is Program else entry",
           "stored[name] = entry",
           "a finite system stores each Program, not its code",
           LAYOUT_TESTS),
]


def run(mutant):
    """(verdict, seconds) of one mutant."""
    text = (ROOT / mutant.file).read_text()
    count = text.count(mutant.old)
    if mutant.deleted:
        return ("deleted" if count == 0 else "present"), 0.0
    if count != 1:
        return f"stale ({count} matches)", 0.0
    with tempfile.TemporaryDirectory(prefix="latfix-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        (copy / mutant.file).write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *mutant.tests]
        started = time.monotonic()
        try:
            done = subprocess.run(argv, cwd=copy, env=env, timeout=LIMIT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "hung", time.monotonic() - started
        seconds = time.monotonic() - started
    verdict = {0: "survived", 1: "killed"}.get(done.returncode, f"error (exit {done.returncode})")
    return verdict, seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    width = max(len(m.name) for m in MUTANTS)
    bad = 0
    for mutant in [by_name[n] for n in args.names] or MUTANTS:
        verdict, seconds = run(mutant)
        bad += verdict not in ("killed", "deleted")
        print(f"{mutant.name:<{width}}  {verdict:<8}  {seconds:6.1f} s  "
              f"{mutant.file}: {mutant.fault}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
