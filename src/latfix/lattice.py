"""Pluggable complete-lattice domains.

Each domain bundles order, join/meet, widening/narrowing, and a textual codec
into one ops object that works on plain Python values:

  chain(n)         ints 0..n-1 with the natural order
  powerset(atoms)  frozensets of atoms, ordered by inclusion
  natinf           naturals plus infinity (float("inf") is the top element)
  interval         None (the empty interval) or (lo, hi) with lo <= hi,
                   where bounds are ints or +-float("inf")

Values are immutable and structurally comparable; ops objects hold no mutable
state and may be shared freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

INF = float("inf")
NEG_INF = float("-inf")

Value = Any


@dataclass(frozen=True)
class Chain:
    """Total order 0 < 1 < ... < size-1."""

    size: int


@dataclass(frozen=True)
class Powerset:
    """All subsets of a finite atom alphabet, ordered by inclusion."""

    atoms: tuple[str, ...]


@dataclass(frozen=True)
class NatInf:
    """Naturals extended with an infinite top element."""


@dataclass(frozen=True)
class Interval:
    """Integer intervals with open-ended bounds; None is the empty interval."""


LatticeDescriptor = Chain | Powerset | NatInf | Interval


class LatticeError(ValueError):
    """Malformed descriptor, unparsable value, or out-of-domain value."""


class LatticeOps:
    """Operation bundle for one lattice domain.

    Mixing values of different domains is a usage error; it is caught only
    where values cross an API boundary (parsing, validation), not in the hot
    operations.
    """

    name: str
    descriptor: LatticeDescriptor
    bot: Value
    top: Value
    is_finite = False
    has_arith = True  # succ/pred/add_const available

    def leq(self, a: Value, b: Value) -> bool:
        raise NotImplementedError

    def eq(self, a: Value, b: Value) -> bool:
        return a == b

    def join(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def meet(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def widen(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def narrow(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def succ(self, a: Value) -> Value:
        """Successor step used by the `inc` operator of the input languages."""
        raise LatticeError(f"{self.name}: no successor operation")

    def pred(self, a: Value) -> Value:
        raise LatticeError(f"{self.name}: no predecessor operation")

    def add_const(self, a: Value, k: int) -> Value:
        raise LatticeError(f"{self.name}: no add_const operation")

    def values(self) -> list[Value]:
        """All domain values, in a fixed deterministic order (finite only)."""
        raise LatticeError(f"{self.name}: not enumerable")

    def validate(self, v: Value) -> Value:
        raise NotImplementedError

    def parse(self, text: str) -> Value:
        raise NotImplementedError

    def format(self, v: Value) -> str:
        raise NotImplementedError

    def sample(self, rng) -> Value:
        raise NotImplementedError

    def sort_key(self, v: Value):
        """Total order on values for deterministic output (not the lattice order)."""
        raise NotImplementedError


class _ChainOps(LatticeOps):
    is_finite = True

    def __init__(self, descriptor: Chain):
        if descriptor.size < 1:
            raise LatticeError("chain size must be >= 1")
        self.descriptor = descriptor
        self.size = descriptor.size
        self.name = f"chain({self.size})"
        self.bot = 0
        self.top = self.size - 1

    def leq(self, a, b):
        return a <= b

    def join(self, a, b):
        return a if a >= b else b

    def meet(self, a, b):
        return a if a <= b else b

    # Finite lattice: join/meet already stabilize, no acceleration needed.
    widen = join
    narrow = meet

    def succ(self, a):
        return a + 1 if a < self.top else self.top

    def pred(self, a):
        return a - 1 if a > 0 else 0

    def add_const(self, a, k):
        return min(max(a + k, 0), self.top)

    def values(self):
        return list(range(self.size))

    def validate(self, v):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.size:
            raise LatticeError(f"{self.name}: bad value {v!r}")
        return v

    def parse(self, text):
        try:
            v = int(text)
        except ValueError:
            raise LatticeError(f"{self.name}: cannot parse {text!r}") from None
        return self.validate(v)

    def format(self, v):
        return str(v)

    def sample(self, rng):
        return rng.randrange(self.size)

    def sort_key(self, v):
        return v


class _PowersetOps(LatticeOps):
    is_finite = True
    has_arith = False

    def __init__(self, descriptor: Powerset):
        atoms = descriptor.atoms
        if not atoms:
            raise LatticeError("powerset needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise LatticeError("powerset atoms must be distinct")
        for a in atoms:
            if not a or not all(c.isalnum() or c == "_" for c in a):
                raise LatticeError(f"bad atom name {a!r}")
        self.descriptor = descriptor
        self.atoms = tuple(atoms)
        self.name = "powerset({%s})" % ",".join(atoms)
        self.bot = frozenset()
        self.top = frozenset(atoms)

    def leq(self, a, b):
        return a <= b

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return a & b

    widen = join
    narrow = meet

    def values(self):
        ordered = sorted(self.atoms)
        out = []
        for k in range(len(ordered) + 1):
            for combo in itertools.combinations(ordered, k):
                out.append(frozenset(combo))
        return out

    def validate(self, v):
        if not isinstance(v, frozenset) or not v <= self.top:
            raise LatticeError(f"{self.name}: bad value {v!r}")
        return v

    def parse(self, text):
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise LatticeError(f"{self.name}: cannot parse {text!r}")
        body = text[1:-1].strip()
        if not body:
            return frozenset()
        parts = [p.strip() for p in body.split(",")]
        for p in parts:
            if p not in self.atoms:
                raise LatticeError(f"{self.name}: unknown atom {p!r}")
        return frozenset(parts)

    def format(self, v):
        return "{%s}" % ",".join(sorted(v))

    def sample(self, rng):
        return frozenset(a for a in self.atoms if rng.random() < 0.5)

    def sort_key(self, v):
        return (len(v), tuple(sorted(v)))


class _NatInfOps(LatticeOps):
    def __init__(self, descriptor: NatInf):
        self.descriptor = descriptor
        self.name = "natinf"
        self.bot = 0
        self.top = INF

    def leq(self, a, b):
        return a <= b

    def join(self, a, b):
        return a if a >= b else b

    def meet(self, a, b):
        return a if a <= b else b

    def widen(self, a, b):
        return INF if a < b else a

    def narrow(self, a, b):
        return b if a == INF else a

    def succ(self, a):
        return a + 1

    def pred(self, a):
        return a - 1 if 0 < a < INF else a

    def add_const(self, a, k):
        return a if a == INF else max(a + k, 0)

    def validate(self, v):
        if v == INF:
            return v
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise LatticeError(f"{self.name}: bad value {v!r}")
        return v

    def parse(self, text):
        text = text.strip()
        if text == "inf":
            return INF
        try:
            v = int(text)
        except ValueError:
            raise LatticeError(f"{self.name}: cannot parse {text!r}") from None
        return self.validate(v)

    def format(self, v):
        return "inf" if v == INF else str(v)

    def sample(self, rng):
        if rng.random() < 0.12:
            return INF
        return rng.randrange(0, 12)

    def sort_key(self, v):
        return float(v)


class _IntervalOps(LatticeOps):
    def __init__(self, descriptor: Interval):
        self.descriptor = descriptor
        self.name = "interval"
        self.bot = None
        self.top = (NEG_INF, INF)

    def leq(self, a, b):
        if a is None:
            return True
        if b is None:
            return False
        return b[0] <= a[0] and a[1] <= b[1]

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (min(a[0], b[0]), max(a[1], b[1]))

    def meet(self, a, b):
        if a is None or b is None:
            return None
        lo, hi = max(a[0], b[0]), min(a[1], b[1])
        return (lo, hi) if lo <= hi else None

    def widen(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (a[0] if a[0] <= b[0] else NEG_INF, a[1] if a[1] >= b[1] else INF)

    def narrow(self, a, b):
        # Refines infinite bounds only; bot operands pin the result to bot.
        if a is None or b is None:
            return None
        lo = b[0] if a[0] == NEG_INF else a[0]
        hi = b[1] if a[1] == INF else a[1]
        return (lo, hi) if lo <= hi else None

    def succ(self, a):
        if a is None:
            return None
        return (a[0] + 1, a[1] + 1)

    def pred(self, a):
        if a is None:
            return None
        return (a[0] - 1, a[1] - 1)

    def add_const(self, a, k):
        if a is None:
            return None
        return (a[0] + k, a[1] + k)

    def validate(self, v):
        if v is None:
            return v
        if not isinstance(v, tuple) or len(v) != 2:
            raise LatticeError(f"{self.name}: bad value {v!r}")
        lo, hi = v
        for x in (lo, hi):
            ok = (isinstance(x, int) and not isinstance(x, bool)) or x in (INF, NEG_INF)
            if not ok:
                raise LatticeError(f"{self.name}: bad bound {x!r}")
        if lo > hi or lo == INF or hi == NEG_INF:
            raise LatticeError(f"{self.name}: bad value {v!r}")
        return v

    def _parse_bound(self, text):
        if text == "inf":
            return INF
        if text == "-inf":
            return NEG_INF
        try:
            return int(text)
        except ValueError:
            raise LatticeError(f"{self.name}: bad bound {text!r}") from None

    def parse(self, text):
        text = text.strip()
        if text == "bot":
            return None
        if not (text.startswith("[") and text.endswith("]")):
            raise LatticeError(f"{self.name}: cannot parse {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != 2:
            raise LatticeError(f"{self.name}: cannot parse {text!r}")
        lo = self._parse_bound(parts[0].strip())
        hi = self._parse_bound(parts[1].strip())
        return self.validate((lo, hi))

    def _fmt_bound(self, x):
        if x == INF:
            return "inf"
        if x == NEG_INF:
            return "-inf"
        return str(x)

    def format(self, v):
        if v is None:
            return "bot"
        return f"[{self._fmt_bound(v[0])},{self._fmt_bound(v[1])}]"

    def sample(self, rng):
        if rng.random() < 0.1:
            return None
        lo = NEG_INF if rng.random() < 0.18 else rng.randint(-10, 10)
        if rng.random() < 0.18:
            hi = INF
        elif lo == NEG_INF:
            hi = rng.randint(-10, 12)
        else:
            hi = rng.randint(lo, lo + 12)
        return (lo, hi)

    def sort_key(self, v):
        if v is None:
            return (0, 0.0, 0.0)
        return (1, float(v[0]), float(v[1]))


def make_domain(descriptor: LatticeDescriptor) -> LatticeOps:
    """Build the ops object for a descriptor, rejecting malformed ones."""
    if isinstance(descriptor, Chain):
        return _ChainOps(descriptor)
    if isinstance(descriptor, Powerset):
        return _PowersetOps(descriptor)
    if isinstance(descriptor, NatInf):
        return _NatInfOps(descriptor)
    if isinstance(descriptor, Interval):
        return _IntervalOps(descriptor)
    raise LatticeError(f"unknown lattice descriptor {descriptor!r}")
