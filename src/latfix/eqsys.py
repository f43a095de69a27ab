"""Computation trees, compiled programs, partial assignments, equation systems.

A right-hand side is pure: evaluating it is a finite sequence of variable
look-ups ending in a value, and the set of variables touched along the way
is well defined.  It takes one of two forms, and `eval_tree` runs both:

  tree     an immediate `Answer`, or a `Query` for one variable whose
           continuation maps the looked-up value to the rest of the
           computation.  Continuations are built on demand (the value space
           may be infinite) and must be deterministic.  Hand-built trees are
           accepted wherever a right-hand side is.
  program  what `compile_rhs_dsl` makes of an expression of either input
           language, once per right-hand side: a `Program` holding one flat
           tuple of small-int opcodes interleaved with their operands, run
           by one loop over an explicit value stack.  Its query sequence is
           static data, so evaluation allocates no nodes or closures.  A
           right-hand side that reads nothing compiles to an `Answer`.

A finite system (`FiniteProgram.build`) stores each compiled right-hand
side's code tuple, not its `Program`, and its `rhs(var)` wraps the code in a
fresh `Program` on each request, as a scheme's system does per (point,
context).  The solvers request each right-hand side once per solve and keep
only its code, so no `Program` lives per variable.

Instructions (operands in brackets; "pop b, a" pops the top first):

  GET [var]          push lookup(var)
  LIT [value]        push value
  JOIN, MEET         pop b, a; push ops.join(a, b) or ops.meet(a, b)
  EQ, LEQ [target]   pop b, a; jump to target unless ops.eq(a, b) or
                     ops.leq(a, b) holds
  JMP [target]       jump to target
  CELL [point]       replace the top d by lookup((point, d))
  CTX                push the context the program is bound to
  CALL [fn]          replace the top v by fn(v)

CELL and CTX occur only in schemes, and CALL applies a scheme's builtins as
well as the finite language's `inc` (fn is ops.succ).  In schemes these three
are most of the code, so their opcodes are the highest and `eval_tree` tells
them from the rest with one comparison, right after the four instructions
both languages use most.

Only GET and CELL read variables, and only GET names its variable in the
code: `static_reads` decodes a program by instruction width and lists its
GET operands, on both branches of every comparison.  Since a right-hand side
is pure, its value depends on those variables alone.

A CALL's function is stored in the code; the other lattice operations are
looked up on the program's ops object when an instruction runs.  `eval_tree`
serves `tsrr` and the checks; the demand-driven solvers' core runs the same
instructions in its own loop, in the same operand and query order, with the
solver's operations.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from .lattice import LatticeOps, Value

VarId = Hashable
Lookup = Callable[[VarId], Value]

OP_GET, OP_LIT, OP_JOIN, OP_MEET, OP_EQ, OP_LEQ, OP_JMP, OP_CELL, OP_CTX, OP_CALL = range(10)
# Each instruction's width in code words, by opcode: the opcode and its operand.
_WIDTH = (2, 2, 1, 1, 2, 2, 2, 2, 1, 2)


class UnknownVariableError(KeyError):
    def __init__(self, var):
        super().__init__(var)
        self.var = var

    def __str__(self):
        return f"unknown variable {self.var!r}"


@dataclass(frozen=True)
class Answer:
    value: Value


@dataclass(frozen=True)
class Query:
    var: VarId
    cont: Callable[[Value], "Tree"]


class Program:
    """A compiled right-hand side: flat code, its ops, and a bound context."""

    __slots__ = ("code", "ops", "ctx")

    def __init__(self, code: tuple, ops: LatticeOps, ctx: Value = None):
        self.code = code
        self.ops = ops
        self.ctx = ctx


Tree = Answer | Query | Program


def static_reads(tree: Tree) -> set | None:
    """The variables a right-hand side can read, or None if its code does not say.

    An `Answer` reads nothing; a program reads the operands of its GET
    instructions, on every branch.  A `Query` tree's reads show only as it
    runs, and a CELL computes the variable it reads: for those, None.
    """
    if tree.__class__ is Answer:
        return set()
    if tree.__class__ is not Program:
        return None
    code = tree.code
    reads = set()
    pc = 0
    end = len(code)
    while pc < end:
        op = code[pc]
        if op == OP_GET:
            reads.add(code[pc + 1])
        elif op == OP_CELL:
            return None
        pc += _WIDTH[op]
    return reads


def gc_paused(fn):
    """`fn` with the cycle collector off for the call.

    For the bulk builders, whose trees, tuples and programs hold no cycles: a
    collection while they run only re-scans what they have just built.  The
    collector is turned back on afterwards, exception or not, if it was on.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def as_lookup(source) -> Lookup:
    """Accept a callable or a mapping as the variable lookup."""
    if callable(source):
        return source

    def lookup(var):
        try:
            return source[var]
        except KeyError:
            raise UnknownVariableError(var) from None

    return lookup


def eval_tree(tree: Tree, lookup) -> Value:
    """Run a right-hand side, tree or program, against a total lookup.

    A program runs in this frame: one loop over its code, with the top of the
    value stack kept in `top`, so evaluation adds no frame per expression
    level and every look-up is called from here.
    """
    lookup = as_lookup(lookup)
    if tree.__class__ is not Program:
        while isinstance(tree, Query):
            tree = tree.cont(lookup(tree.var))
        return tree.value
    code = tree.code
    ops = tree.ops
    stack = []
    push = stack.append
    pop = stack.pop
    top = None
    pc = 0
    end = len(code)
    while pc < end:
        op = code[pc]
        if op == OP_GET:
            push(top)
            top = lookup(code[pc + 1])
            pc += 2
        elif op == OP_LIT:
            push(top)
            top = code[pc + 1]
            pc += 2
        elif op == OP_JOIN:
            top = ops.join(pop(), top)
            pc += 1
        elif op == OP_MEET:
            top = ops.meet(pop(), top)
            pc += 1
        elif op >= OP_CELL:
            if op == OP_CALL:
                top = code[pc + 1](top)
                pc += 2
            elif op == OP_CTX:
                push(top)
                top = tree.ctx
                pc += 1
            else:
                top = lookup((code[pc + 1], top))
                pc += 2
        elif op == OP_EQ:
            b = top
            a = pop()
            top = pop()
            pc = pc + 2 if ops.eq(a, b) else code[pc + 1]
        elif op == OP_LEQ:
            b = top
            a = pop()
            top = pop()
            pc = pc + 2 if ops.leq(a, b) else code[pc + 1]
        else:  # OP_JMP
            pc = code[pc + 1]
    return top


def tree_dep(tree: Tree, lookup) -> set:
    """Variables the tree touches when evaluated under `lookup`.

    Agreement of two lookups on this set forces equal evaluation results.
    """
    lookup = as_lookup(lookup)
    deps = set()

    def record(var):
        deps.add(var)
        return lookup(var)

    eval_tree(tree, record)
    return deps


class Assignment:
    """Partial map from variables to values of one domain."""

    def __init__(self, ops: LatticeOps, values: Mapping[VarId, Value]):
        self.ops = ops
        self.values = dict(values)

    @property
    def dom(self) -> set:
        return set(self.values)

    def __getitem__(self, var):
        try:
            return self.values[var]
        except KeyError:
            raise UnknownVariableError(var) from None

    def __contains__(self, var):
        return var in self.values

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return isinstance(other, Assignment) and self.values == other.values

    def items(self):
        return self.values.items()

    def __repr__(self):
        body = ", ".join(
            f"{v!r}: {self.ops.format(d)}" for v, d in sorted(
                self.values.items(), key=lambda kv: str(kv[0]))
        )
        return "Assignment({%s})" % body


def extend_top(assignment: Assignment) -> Lookup:
    """Total lookup: the assignment's value inside its domain, top outside."""
    values = assignment.values
    top = assignment.ops.top

    def lookup(var):
        return values.get(var, top)

    return lookup


class EquationSystem:
    """Total mapping from variables to right-hand sides (trees or programs).

    The mapping may be defined lazily over an infinite variable space; for
    explicitly finite systems `all_vars` lists every variable.  The list is
    kept as given, not copied, so its owner must not change it.  Repeated
    requests for the same variable must yield behaviorally identical ones.
    """

    def __init__(self, rhs, all_vars: list | None = None):
        if callable(rhs):
            self._rhs = rhs
        else:
            mapping = dict(rhs)

            def from_map(var):
                try:
                    return mapping[var]
                except KeyError:
                    raise UnknownVariableError(var) from None

            self._rhs = from_map
            if all_vars is None:
                all_vars = list(mapping)
        self.all_vars = all_vars

    def rhs(self, var) -> Tree:
        return self._rhs(var)


@dataclass
class FiniteProgram:
    """A finite equation system and the expressions it was compiled from.

    `variables` is the system's `all_vars` list itself, not a copy.
    """

    ops: LatticeOps
    variables: list
    exprs: dict
    system: EquationSystem

    @classmethod
    def build(cls, ops: LatticeOps, exprs: dict) -> "FiniteProgram":
        """Compile each expression; the variables are the keys of `exprs`, in order.

        A `Program` is stored as its code tuple and rebuilt on each request;
        anything else `compile_rhs_dsl` returns is stored and served as it is.
        """
        stored = {}
        for name, expr in exprs.items():
            entry = compile_rhs_dsl(expr, ops)
            stored[name] = entry.code if entry.__class__ is Program else entry

        def rhs(var):
            try:
                entry = stored[var]
            except KeyError:
                raise UnknownVariableError(var) from None
            return Program(entry, ops) if entry.__class__ is tuple else entry

        variables = list(exprs)
        return cls(ops, variables, exprs, EquationSystem(rhs, variables))


def is_closed(assignment: Assignment, system: EquationSystem) -> bool:
    """Does every domain variable's dependency set stay inside the domain?"""
    dom = assignment.dom
    lookup = extend_top(assignment)
    for var in dom:
        if not tree_dep(system.rhs(var), lookup) <= dom:
            return False
    return True


# --- the expression IR -------------------------------------------------------
#
# Both input languages parse to tag-first tuples:
#   ("lit", value) ("join", e, e) ("meet", e, e)        in both languages
#   ("get", var) ("inc", e) ("ite", (cmp, e, e), e, e)  in finite systems,
#                                      with cmp in {"eq", "leq"}
#   ("ctx",) ("cell", point, e) ("apply", builtin_name, e)  in schemes
# A finite `inc` and a scheme's `apply` both compile to one CALL.

def compile_rhs_dsl(expr: tuple, ops: LatticeOps,
                    builtins: Mapping | None = None) -> Program | Answer:
    """Compile an expression into a program, or an answer if it reads nothing.

    `builtins` maps the names `apply` nodes use to unary functions.  Every
    `get` or `cell` becomes exactly one query; operands are computed left to
    right, a cell computes its argument before it queries, and `ite` computes
    both comparison operands, then runs the selected branch only.  Operations
    on literal operands, builtins included, are done here, once, so an
    expression that reads no variable and no context compiles to one literal.
    """
    code = []
    if _emit(expr, code, ops, builtins):
        return Answer(code[1])
    return Program(tuple(code), ops)


def _emit(e: tuple, code: list, ops: LatticeOps, builtins) -> bool:
    """Append the code of `e`; True if that code is a single LIT."""
    tag = e[0]
    if tag == "get":
        code += (OP_GET, e[1])
        return False
    if tag == "lit":
        code += (OP_LIT, e[1])
        return True
    if tag == "join" or tag == "meet":
        literal = _emit(e[1], code, ops, builtins)
        if _emit(e[2], code, ops, builtins) and literal:
            a, b = code[-3], code[-1]
            del code[-4:]
            code += (OP_LIT, ops.join(a, b) if tag == "join" else ops.meet(a, b))
            return True
        code.append(OP_JOIN if tag == "join" else OP_MEET)
        return False
    if tag == "ite":
        cmp_op, lhs, rhs = e[1]
        literal = _emit(lhs, code, ops, builtins)
        if _emit(rhs, code, ops, builtins) and literal:
            a, b = code[-3], code[-1]
            del code[-4:]
            taken = ops.eq(a, b) if cmp_op == "eq" else ops.leq(a, b)
            return _emit(e[2] if taken else e[3], code, ops, builtins)
        code += (OP_EQ if cmp_op == "eq" else OP_LEQ, None)
        jump_else = len(code) - 1
        _emit(e[2], code, ops, builtins)
        code += (OP_JMP, None)
        jump_end = len(code) - 1
        code[jump_else] = len(code)
        _emit(e[3], code, ops, builtins)
        code[jump_end] = len(code)
        return False
    if tag == "ctx":
        code.append(OP_CTX)
        return False
    if tag == "cell":
        _emit(e[2], code, ops, builtins)
        code += (OP_CELL, e[1])
        return False
    if tag == "inc":
        fn = ops.succ
    elif tag == "apply":
        fn = builtins[e[1]]
    else:
        raise ValueError(f"bad expression tag {tag!r}")
    if _emit(e[-1], code, ops, builtins):  # a literal operand: apply fn here
        code[-1] = fn(code[-1])
        return True
    code += (OP_CALL, fn)
    return False
