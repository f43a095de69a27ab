"""Interprocedural equation schemes with partial tabulation.

A scheme gives every program point one context-parameterized right-hand-side
expression, in the tag-tuple IR of `latfix.eqsys`: `("lit", v)`, `("ctx",)`,
`("join", a, b)`, `("meet", a, b)`, `("apply", builtin, a)` and
`("cell", point, a)`, where a builtin names a unary function of the lattice
(`resolve_builtin`).  Cells induce indirect addressing: the value of the
inner expression selects which (point, context) variable is read, so a
scheme denotes a family of equations over the possibly infinite variable
space (point, context-value).  Instantiation is lazy; the solvers
materialize variables on demand.

Stratification is the termination handle: if levels can be assigned so that
same-level cells pass the context through unchanged and all other cells go
strictly down, the demand-driven solvers only ever meet finitely many
contexts per point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .eqsys import (
    Answer,
    EquationSystem,
    Program,
    UnknownVariableError,
    compile_rhs_dsl,
)
from .lattice import LatticeOps


class SchemeError(ValueError):
    pass


def resolve_builtin(name: str, ops: LatticeOps) -> Callable:
    """The unary function `name` denotes on `ops`, made on the fly for `name:param`.

    Join and meet are expression forms, not builtins, but `join:3` is still
    told that join takes no parameter.
    """
    base, sep, param = name.partition(":")
    if sep and base in ("join", "meet", "id", "inc", "dec"):
        raise SchemeError(f"builtin {base!r} takes no parameter, got {name!r}")
    if not param and base in ("add_const", "meet_const", "join_const"):
        raise SchemeError(f"builtin {base!r} needs a parameter, got none")
    if base == "id":
        return lambda v: v
    if base in ("inc", "dec", "add_const") and not ops.has_arith:
        raise SchemeError(f"{base!r} is not defined on {ops.name}")
    if base == "inc":
        return ops.succ
    if base == "dec":
        return ops.pred
    if base == "add_const":
        try:
            k = int(param)
        except ValueError:
            raise SchemeError(f"add_const needs an integer parameter, got {param!r}") from None
        return lambda v: ops.add_const(v, k)
    if base == "meet_const":
        c = ops.parse(param)
        return lambda v: ops.meet(v, c)
    if base == "join_const":
        c = ops.parse(param)
        return lambda v: ops.join(v, c)
    raise SchemeError(f"unknown builtin {name!r}")


@dataclass
class Scheme:
    ops: LatticeOps
    points: tuple
    rhs: dict          # point -> expression
    builtins: dict     # name -> unary function, for the `apply` nodes
    start: tuple

    def validate(self):
        points = set(self.points)
        if len(points) != len(self.points):
            raise SchemeError("duplicate point names")
        for u in self.points:
            if u not in self.rhs:
                raise SchemeError(f"point {u!r} has no equation")
        if self.start[0] not in points:
            raise SchemeError(f"start point {self.start[0]!r} is not declared")
        self.ops.validate(self.start[1])
        for u in self.points:
            self._validate_expr(self.rhs[u], points)
        return self

    def _validate_expr(self, expr, points):
        tag = expr[0]
        if tag == "apply":
            if expr[1] not in self.builtins:
                raise SchemeError(f"unknown builtin {expr[1]!r}")
            tag, args, count = expr[1], expr[2:], 1
        elif tag == "join" or tag == "meet":
            args, count = expr[1:], 2
        elif tag == "cell" and len(expr) == 3:
            if expr[1] not in points:
                raise SchemeError(f"unknown point {expr[1]!r}")
            args, count = expr[2:], 1
        elif (tag == "lit" and len(expr) == 2) or expr == ("ctx",):
            return
        else:
            raise SchemeError(f"bad expression node {expr!r}")
        if count != len(args):
            raise SchemeError(f"builtin {tag!r} takes {count} arguments, got {len(args)}")
        for a in args:
            self._validate_expr(a, points)


def instantiate_system(scheme: Scheme) -> EquationSystem:
    """Lazy equation system over (point, context) variables.

    Each point's expression is compiled once; the right-hand side of
    (point, ctx) is that program bound to ctx, and an expression that reads
    neither the context nor a cell is an answer.
    """
    ops = scheme.ops
    compiled = {point: compile_rhs_dsl(expr, ops, scheme.builtins)
                for point, expr in scheme.rhs.items()}

    def rhs(var):
        point, ctx = var
        try:
            entry = compiled[point]
        except KeyError:
            raise UnknownVariableError(var) from None
        return entry if entry.__class__ is Answer else Program(entry.code, ops, ctx)

    return EquationSystem(rhs)


# --- stratification -----------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleCycle:
    """A call cycle that creates fresh contexts; points, first == last."""

    points: tuple


def _cell_edges(point, expr):
    """(caller, callee, strict) triples for all cells at any nesting depth."""
    if expr[0] == "cell":
        yield (point, expr[1], expr[2] != ("ctx",))
    if expr[0] != "lit":
        for a in expr[1:]:
            if isinstance(a, tuple):
                yield from _cell_edges(point, a)


def _components(nodes, succs):
    """Each node's strongly connected component number, by one Tarjan pass.

    Components are numbered as they complete, so an edge never leads to a
    higher number: callees come first.  A node with an index but no number
    yet is still on Tarjan's stack.
    """
    index, low, comp = {}, {}, {}
    stack = []
    count = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succs[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(succs[nxt])))
                    break
                if nxt not in comp:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while (member := stack.pop()) != node:
                        comp[member] = count
                    comp[node] = count
                    count += 1
    return comp


def _cycle_through(src, dst, comp, succs):
    """The cycle src -> dst ->* src inside src's component, as (src, dst, ..., src).

    A breadth-first search from dst over the edges that stay in the component
    (`comp` numbers them, see `_components`) finds a shortest way back to src.
    """
    if src == dst:
        return (src, src)
    parent = {dst: None}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        if node == src:
            break
        for nxt in succs[node]:
            if comp[nxt] == comp[src] and nxt not in parent:
                parent[nxt] = node
                frontier.append(nxt)
    path = [src]
    node = parent[src]
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    return (src, *path)


def check_stratified(scheme: Scheme):
    """Levels witness, or a counterexample cycle through a strict call edge.

    An edge u -> u' exists for every cell of u' inside the equation of u; it
    is strict unless the cell's argument is exactly the context variable.
    The scheme is stratified iff no strict edge lies inside a strongly
    connected component; levels then count the longest strict-edge path in
    the condensation, with all points of one component sharing a level.
    Callees' components are numbered lower, so one pass over the edges in
    order of their source's component folds every level.
    """
    edges = []
    for u in scheme.points:
        edges.extend(_cell_edges(u, scheme.rhs[u]))
    succs = {u: [] for u in scheme.points}
    for u, u2, _ in edges:
        succs[u].append(u2)
    comp = _components(scheme.points, succs)
    for u, u2, strict in edges:
        if strict and comp[u] == comp[u2]:
            return CounterexampleCycle(_cycle_through(u, u2, comp, succs))
    level = [0] * len(scheme.points)
    for u, u2, strict in sorted(edges, key=lambda edge: comp[edge[0]]):
        c, c2 = comp[u], comp[u2]
        if c != c2:
            level[c] = max(level[c], level[c2] + strict)
    return {u: level[comp[u]] for u in scheme.points}
