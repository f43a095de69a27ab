"""Independent reference checker for the benchmark's outputs.

Everything here re-states latfix's semantics with plain Python values
(`int`, `float("inf")`, `frozenset`, `tuple`) and evaluates the generator's
DSL tuples and the benchmark's own scheme expressions directly.  It imports
nothing from latfix, so a defect in latfix's lattices, trees or oracle cannot
hide itself by also sitting in the reference.

The lower-monotonization check enumerates only the variables a right-hand
side mentions, not every variable of the system as latfix's oracle does.
The answer is the same (a right-hand side ignores the rest), and the cost is
small enough to check every operation of a run.
"""

from __future__ import annotations

import itertools

INF = float("inf")
NEG_INF = float("-inf")


class Domain:
    """One lattice: order, join/meet, successor, and value codec."""

    def __init__(self, kind, param=None):
        self.kind = kind
        self.param = param
        if kind == "chain":
            self.bot, self.top = 0, param - 1
        elif kind == "powerset":
            self.bot, self.top = frozenset(), frozenset(param)
        elif kind == "natinf":
            self.bot, self.top = 0, INF
        elif kind == "interval":
            self.bot, self.top = None, (NEG_INF, INF)
        else:
            raise ValueError(f"unknown domain kind {kind!r}")

    def leq(self, a, b):
        if self.kind == "interval":
            if a is None:
                return True
            if b is None:
                return False
            return b[0] <= a[0] and a[1] <= b[1]
        return a <= b

    def join(self, a, b):
        if self.kind == "powerset":
            return a | b
        if self.kind == "interval":
            if a is None or b is None:
                return b if a is None else a
            return (min(a[0], b[0]), max(a[1], b[1]))
        return max(a, b)

    def meet(self, a, b):
        if self.kind == "powerset":
            return a & b
        if self.kind == "interval":
            if a is None or b is None:
                return None
            lo, hi = max(a[0], b[0]), min(a[1], b[1])
            return (lo, hi) if lo <= hi else None
        return min(a, b)

    def add(self, a, k):
        """Shift by k: saturating on chains, clamped at 0 on natinf."""
        if self.kind == "chain":
            return min(max(a + k, 0), self.top)
        if self.kind == "natinf":
            return a if a == INF else max(a + k, 0)
        if self.kind == "interval":
            return None if a is None else (a[0] + k, a[1] + k)
        raise ValueError(f"no arithmetic on {self.kind}")

    def values(self):
        if self.kind == "chain":
            return list(range(self.param))
        if self.kind == "powerset":
            atoms = sorted(self.param)
            return [frozenset(c) for k in range(len(atoms) + 1)
                    for c in itertools.combinations(atoms, k)]
        raise ValueError(f"{self.kind} is not enumerable")

    def format(self, v):
        if self.kind == "powerset":
            return "{%s}" % ",".join(sorted(v))
        if self.kind == "interval":
            return "bot" if v is None else f"[{_bound(v[0])},{_bound(v[1])}]"
        return _bound(v)

    def parse(self, text):
        if self.kind == "powerset":
            body = text.strip()[1:-1].strip()
            return frozenset(p.strip() for p in body.split(",")) if body else frozenset()
        if self.kind == "interval":
            if text == "bot":
                return None
            lo, hi = text[1:-1].split(",")
            return (_parse_bound(lo), _parse_bound(hi))
        return _parse_bound(text)

    def directive(self):
        if self.kind == "chain":
            return f"chain {self.param}"
        if self.kind == "powerset":
            return "powerset " + " ".join(self.param)
        return self.kind


def _bound(x):
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    return str(x)


def _parse_bound(text):
    text = text.strip()
    if text == "inf":
        return INF
    if text == "-inf":
        return NEG_INF
    return int(text)


# --- finite-system DSL tuples -------------------------------------------------
#
# ("get", v) ("lit", d) ("join", e, e) ("meet", e, e) ("inc", e)
# ("ite", (cmp, e, e), e, e): both guard operands are evaluated, then the
# taken branch only, which fixes the set of variables a run reads.

def eval_dsl(expr, dom, look, reads=None):
    def ev(e):
        tag = e[0]
        if tag == "lit":
            return e[1]
        if tag == "get":
            if reads is not None:
                reads.add(e[1])
            return look(e[1])
        if tag == "join":
            a = ev(e[1])
            return dom.join(a, ev(e[2]))
        if tag == "meet":
            a = ev(e[1])
            return dom.meet(a, ev(e[2]))
        if tag == "inc":
            return dom.add(ev(e[1]), 1)
        if tag == "ite":
            cmp_op, lhs, rhs = e[1]
            a, b = ev(lhs), ev(rhs)
            taken = a == b if cmp_op == "eq" else dom.leq(a, b)
            return ev(e[2] if taken else e[3])
        raise ValueError(f"bad DSL tag {tag!r}")

    return ev(expr)


def dsl_vars(expr):
    """Every variable the expression mentions, in any branch."""
    tag = expr[0]
    if tag == "get":
        return {expr[1]}
    if tag == "lit":
        return set()
    if tag == "ite":
        _, lhs, rhs = expr[1]
        parts = (lhs, rhs, expr[2], expr[3])
    else:
        parts = expr[1:]
    return set().union(*(dsl_vars(e) for e in parts))


def render_dsl(expr, dom):
    tag = expr[0]
    if tag == "get":
        return f"get {expr[1]}"
    if tag == "lit":
        return f"lit {dom.format(expr[1])}"

    def arg(e):
        return "(" + render_dsl(e, dom) + ")"

    if tag in ("join", "meet"):
        return f"{tag} {arg(expr[1])} {arg(expr[2])}"
    if tag == "inc":
        return f"inc {arg(expr[1])}"
    cmp_op, lhs, rhs = expr[1]
    return f"ite ({cmp_op} {arg(lhs)} {arg(rhs)}) {arg(expr[2])} {arg(expr[3])}"


def render_finite_file(dom, order, exprs):
    lines = ["lattice " + dom.directive()]
    lines += [f"var {v} = {render_dsl(exprs[v], dom)}" for v in order]
    return "\n".join(lines) + "\n"


class FiniteSystem:
    """Reference view of a finite system given as DSL tuples."""

    def __init__(self, dom, order, exprs):
        self.dom = dom
        self.order = list(order)
        self.exprs = exprs

    def _top_extended(self, sigma):
        top = self.dom.top
        return lambda v: sigma.get(v, top)

    def closed(self, sigma):
        look = self._top_extended(sigma)
        for y in sigma:
            reads = set()
            eval_dsl(self.exprs[y], self.dom, look, reads)
            if not reads <= sigma.keys():
                return False
        return True

    def post_solution(self, sigma):
        look = self._top_extended(sigma)
        return all(self.dom.leq(eval_dsl(self.exprs[y], self.dom, look), sigma[y])
                   for y in sigma)

    def post_solution_lower_mono(self, sigma):
        """Is the meet of f_y over every assignment above top+sigma below sigma(y)?"""
        dom = self.dom
        values = dom.values()
        for y in self.order:
            bound = sigma.get(y, dom.top)
            if bound == dom.top:
                continue
            support = sorted(dsl_vars(self.exprs[y]))
            choices = [[w for w in values if dom.leq(sigma.get(v, dom.top), w)]
                       for v in support]
            acc = dom.top
            for combo in itertools.product(*choices):
                point = dict(zip(support, combo))
                acc = dom.meet(acc, eval_dsl(self.exprs[y], dom, point.__getitem__))
                if dom.leq(acc, bound):
                    break
            if not dom.leq(acc, bound):
                return False
        return True


# --- schemes --------------------------------------------------------------------
#
# ("ctx",) ("lit", d) ("app", name, param, args) ("cell", point, arg)
# Builtin names follow the scheme syntax: join, meet, inc, dec, add_const:K,
# meet_const:V, join_const:V.  Cells read variable (point, value of arg).

def apply_builtin(dom, name, param, args):
    if name == "join":
        return dom.join(*args)
    if name == "meet":
        return dom.meet(*args)
    (a,) = args
    if name == "inc":
        return dom.add(a, 1)
    if name == "dec":
        return dom.add(a, -1)
    if name == "add_const":
        return dom.add(a, param)
    if name == "meet_const":
        return dom.meet(a, param)
    if name == "join_const":
        return dom.join(a, param)
    raise ValueError(f"unknown builtin {name!r}")


def eval_scheme(expr, dom, ctx, look, reads=None):
    def ev(e):
        tag = e[0]
        if tag == "ctx":
            return ctx
        if tag == "lit":
            return e[1]
        if tag == "app":
            return apply_builtin(dom, e[1], e[2], [ev(a) for a in e[3]])
        var = (e[1], ev(e[2]))
        if reads is not None:
            reads.add(var)
        return look(var)

    return ev(expr)


def render_scheme_expr(expr, dom):
    tag = expr[0]
    if tag == "ctx":
        return "ctx"
    if tag == "lit":
        return f"lit {dom.format(expr[1])}"

    def arg(e):
        return "ctx" if e[0] == "ctx" else "(" + render_scheme_expr(e, dom) + ")"

    if tag == "cell":
        return f"cell {expr[1]} {arg(expr[2])}"
    name, param, args = expr[1], expr[2], expr[3]
    rendered = " ".join(arg(a) for a in args)
    if name in ("join", "meet"):
        return f"{name} {rendered}"
    if param is not None:
        shown = param if name == "add_const" else dom.format(param)
        name = f"{name}:{shown}"
    return f"apply {name} {rendered}"


class SchemeSystem:
    """Reference view of a scheme over (point, context) variables."""

    def __init__(self, dom, points, exprs, start):
        self.dom = dom
        self.points = list(points)
        self.exprs = exprs
        self.start = start

    def render(self):
        lines = ["scheme " + self.dom.directive(),
                 f"start {self.start[0]} {self.dom.format(self.start[1])}"]
        lines += [f"point {p} = {render_scheme_expr(self.exprs[p], self.dom)}"
                  for p in self.points]
        return "\n".join(lines) + "\n"

    def parse_var(self, text):
        point, _, ctx = text.partition(":")
        return (point, self.dom.parse(ctx))

    def _eval(self, var, sigma, reads=None):
        top = self.dom.top
        return eval_scheme(self.exprs[var[0]], self.dom, var[1],
                           lambda v: sigma.get(v, top), reads)

    def closed(self, sigma):
        for var in sigma:
            reads = set()
            self._eval(var, sigma, reads)
            if not reads <= sigma.keys():
                return False
        return True

    def post_solution(self, sigma):
        return all(self.dom.leq(self._eval(var, sigma), sigma[var]) for var in sigma)


def compare_buckets(dom, a, b):
    """The `compare` report recomputed from two assignments."""
    shared = a.keys() & b.keys()
    equal = a_more = b_more = incomparable = 0
    for var in shared:
        x, y = a[var], b[var]
        if x == y:
            equal += 1
        elif dom.leq(x, y):
            a_more += 1
        elif dom.leq(y, x):
            b_more += 1
        else:
            incomparable += 1
    return {"shared_vars": len(shared), "equal": equal, "a_more_precise": a_more,
            "b_more_precise": b_more, "incomparable": incomparable}
