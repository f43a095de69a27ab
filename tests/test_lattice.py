"""Lattice domains: order laws, operator contracts, stabilization, codecs."""

import random

import pytest
from hypothesis import given, strategies as st

from latfix.lattice import (
    Chain,
    INF,
    Interval,
    LatticeError,
    NEG_INF,
    NatInf,
    Powerset,
    make_domain,
)

CHAIN5 = make_domain(Chain(5))
POW_AB = make_domain(Powerset(("a", "b")))
POW_ABC = make_domain(Powerset(("a", "b", "c")))
NAT = make_domain(NatInf())
IVL = make_domain(Interval())

ALL_DOMAINS = [CHAIN5, POW_ABC, NAT, IVL]
FINITE_DOMAINS = [
    make_domain(Chain(2)),
    make_domain(Chain(4)),
    make_domain(Chain(6)),
    make_domain(Powerset(("a",))),
    POW_AB,
    POW_ABC,
]


def pairs(ops, n, seed=0):
    rng = random.Random(seed)
    return [(ops.sample(rng), ops.sample(rng)) for _ in range(n)]


# --- construction -------------------------------------------------------------

def test_make_domain_basic_shapes():
    ops = make_domain(Chain(5))
    assert ops.bot == 0 and ops.top == 4
    assert NAT.widen(0, 1) == INF
    assert IVL.narrow((0, INF), (0, 3)) == (0, 3)


def test_make_domain_rejects_malformed():
    with pytest.raises(LatticeError):
        make_domain(Chain(0))
    with pytest.raises(LatticeError):
        make_domain(Powerset(()))
    with pytest.raises(LatticeError):
        make_domain(Powerset(("a", "a")))
    with pytest.raises(LatticeError):
        IVL.validate((5, 3))
    with pytest.raises(LatticeError):
        IVL.parse("[5,3]")


def test_leq_examples():
    assert NAT.leq(3, INF)
    assert POW_AB.leq(frozenset("a"), frozenset("ab"))
    assert IVL.leq((1, 2), (0, 5))
    assert not IVL.leq((0, 5), (1, 2))
    assert IVL.leq(None, (1, 2))


def test_join_examples():
    assert NAT.join(2, 5) == 5
    assert IVL.join((0, 1), (4, 5)) == (0, 5)
    assert POW_ABC.join(frozenset("a"), frozenset("c")) == frozenset("ac")


def test_meet_examples():
    assert NAT.meet(3, 2) == 2
    assert IVL.meet((0, 3), (2, 9)) == (2, 3)
    assert IVL.meet((0, 1), (5, 6)) is None


def test_widen_examples():
    assert NAT.widen(0, 1) == INF
    assert NAT.widen(4, 2) == 4
    got = IVL.widen((0, 0), (0, 1))
    assert got == (0, INF)
    assert IVL.leq(IVL.join((0, 0), (0, 1)), got)


def test_narrow_examples():
    assert NAT.narrow(INF, 2) == 2
    assert NAT.narrow(1, 0) == 1
    got = IVL.narrow((0, INF), (0, 7))
    assert got == (0, 7)
    assert IVL.leq(IVL.meet((0, INF), (0, 7)), got) and IVL.leq(got, (0, INF))


def test_interval_bot_operator_cases():
    assert IVL.widen(None, (1, 2)) == (1, 2)
    assert IVL.widen((1, 2), None) == (1, 2)
    assert IVL.narrow((1, 2), None) is None
    assert IVL.narrow(None, (1, 2)) is None
    # Narrowing may collapse to bot when the refined bounds cross.
    assert IVL.narrow((NEG_INF, 0), (5, 9)) is None


# --- order laws, exhaustive on small finite domains ----------------------------

@pytest.mark.parametrize("ops", FINITE_DOMAINS, ids=lambda o: o.name)
def test_order_laws_exhaustive(ops):
    values = ops.values()
    for a in values:
        assert ops.leq(a, a)
        assert ops.leq(ops.bot, a) and ops.leq(a, ops.top)
    for a in values:
        for b in values:
            if ops.leq(a, b) and ops.leq(b, a):
                assert ops.eq(a, b)
            for c in values:
                if ops.leq(a, b) and ops.leq(b, c):
                    assert ops.leq(a, c)


@pytest.mark.parametrize("ops", FINITE_DOMAINS, ids=lambda o: o.name)
def test_join_meet_are_least_and_greatest_bounds(ops):
    values = ops.values()
    for a in values:
        for b in values:
            j = ops.join(a, b)
            assert ops.leq(a, j) and ops.leq(b, j)
            m = ops.meet(a, b)
            assert ops.leq(m, a) and ops.leq(m, b)
            for c in values:
                if ops.leq(a, c) and ops.leq(b, c):
                    assert ops.leq(j, c)
                if ops.leq(c, a) and ops.leq(c, b):
                    assert ops.leq(c, m)


# --- order laws on the infinite domains, via hypothesis ------------------------

natinf_values = st.one_of(st.integers(0, 40), st.just(INF))


def _mk_interval(lo, hi, lo_inf, hi_inf):
    lo2 = NEG_INF if lo_inf else min(lo, hi)
    hi2 = INF if hi_inf else max(lo, hi)
    return (lo2, hi2)


interval_values = st.one_of(
    st.none(),
    st.builds(_mk_interval, st.integers(-20, 20), st.integers(-20, 20),
              st.booleans(), st.booleans()),
)


@given(natinf_values, natinf_values, natinf_values)
def test_natinf_lattice_laws(a, b, c):
    assert NAT.leq(a, NAT.join(a, b)) and NAT.leq(NAT.meet(a, b), a)
    assert NAT.join(a, b) == NAT.join(b, a)
    assert NAT.join(NAT.join(a, b), c) == NAT.join(a, NAT.join(b, c))
    if NAT.leq(a, b) and NAT.leq(b, c):
        assert NAT.leq(a, c)


@given(interval_values, interval_values, interval_values)
def test_interval_lattice_laws(a, b, c):
    j = IVL.join(a, b)
    assert IVL.leq(a, j) and IVL.leq(b, j)
    m = IVL.meet(a, b)
    assert IVL.leq(m, a) and IVL.leq(m, b)
    assert IVL.join(a, b) == IVL.join(b, a)
    assert IVL.meet(a, b) == IVL.meet(b, a)
    if IVL.leq(a, b) and IVL.leq(b, c):
        assert IVL.leq(a, c)
    if IVL.leq(a, b) and IVL.leq(b, a):
        assert a == b


@given(interval_values, interval_values)
def test_interval_operator_contracts_hyp(a, b):
    w = IVL.widen(a, b)
    assert IVL.leq(IVL.join(a, b), w)
    n = IVL.narrow(a, b)
    assert IVL.leq(IVL.meet(a, b), n) and IVL.leq(n, a)


# --- bounds equal the min/max formulas, value and type ----------------------------

def _bounds_and_types(v):
    return None if v is None else (v, type(v[0]), type(v[1]))


_GRID_BOUNDS = (NEG_INF, -3, 0, 2, 5, INF)
INTERVAL_GRID = [None] + [
    (lo, hi) for lo in _GRID_BOUNDS for hi in _GRID_BOUNDS
    if lo <= hi and lo != INF and hi != NEG_INF
]


def test_interval_join_meet_equal_the_min_max_formulas():
    for a in INTERVAL_GRID:
        for b in INTERVAL_GRID:
            if a is None or b is None:
                want_join = b if a is None else a
                want_meet = None
            else:
                want_join = (min(a[0], b[0]), max(a[1], b[1]))
                lo, hi = max(a[0], b[0]), min(a[1], b[1])
                want_meet = (lo, hi) if lo <= hi else None
            assert _bounds_and_types(IVL.join(a, b)) == _bounds_and_types(want_join), (a, b)
            assert _bounds_and_types(IVL.meet(a, b)) == _bounds_and_types(want_meet), (a, b)


@pytest.mark.parametrize("ops", [NAT, make_domain(Chain(6))], ids=lambda o: o.name)
def test_add_const_equals_the_min_max_formula(ops):
    values = [*range(8), INF] if ops is NAT else ops.values()
    for a in values:
        for k in range(-7, 8):
            if ops is NAT:
                want = a if a == INF else max(a + k, 0)
            else:
                want = min(max(a + k, 0), ops.top)
            got = ops.add_const(a, k)
            assert (got, type(got)) == (want, type(want)), (a, k)


# --- operator contracts over bulk random samples --------------------------------

@pytest.mark.parametrize("ops", ALL_DOMAINS, ids=lambda o: o.name)
def test_widen_narrow_contracts_bulk(ops):
    for a, b in pairs(ops, 10_000, seed=7):
        w = ops.widen(a, b)
        assert ops.leq(ops.join(a, b), w)
        n = ops.narrow(a, b)
        assert ops.leq(ops.meet(a, b), n)
        assert ops.leq(n, a)


STABILIZATION_BOUNDS = {
    "chain(5)": (4, 4),
    "powerset({a,b,c})": (3, 3),
    "natinf": (1, 1),
    # A widening chain seeded at bot can strictly rise three times
    # (bot escape plus once per bound); a narrowing chain can move each
    # bound once and then still collapse to bot on a bot argument.
    "interval": (3, 3),
}


@pytest.mark.parametrize("ops", ALL_DOMAINS, ids=lambda o: o.name)
def test_widening_and_narrowing_chains_stabilize(ops):
    widen_bound, narrow_bound = STABILIZATION_BOUNDS[ops.name]
    rng = random.Random(13)
    for _ in range(1000):
        a = ops.sample(rng)
        steps = 0
        for _ in range(50):
            nxt = ops.widen(a, ops.sample(rng))
            if not ops.eq(nxt, a):
                steps += 1
            a = nxt
        assert steps <= widen_bound
        a = ops.sample(rng)
        steps = 0
        for _ in range(50):
            nxt = ops.narrow(a, ops.sample(rng))
            if not ops.eq(nxt, a):
                steps += 1
            a = nxt
        assert steps <= narrow_bound


# --- codec ----------------------------------------------------------------------

def test_parse_format_specifics():
    assert CHAIN5.parse("3") == 3
    assert NAT.parse("inf") == INF and NAT.format(INF) == "inf"
    assert NAT.format(7) == "7"
    assert POW_AB.parse("{b,a}") == frozenset("ab")
    assert POW_AB.format(frozenset("ba")) == "{a,b}"
    assert POW_AB.parse("{}") == frozenset()
    assert IVL.parse("bot") is None
    assert IVL.parse("[-inf,4]") == (NEG_INF, 4)
    assert IVL.format((NEG_INF, INF)) == "[-inf,inf]"
    with pytest.raises(LatticeError):
        CHAIN5.parse("9")
    with pytest.raises(LatticeError):
        POW_AB.parse("{z}")


@pytest.mark.parametrize("ops", ALL_DOMAINS, ids=lambda o: o.name)
def test_parse_format_roundtrip_sampled(ops):
    rng = random.Random(21)
    for _ in range(500):
        v = ops.sample(rng)
        ops.validate(v)
        assert ops.eq(ops.parse(ops.format(v)), v)


def test_enumerate_finite_only():
    assert len(POW_ABC.values()) == 8
    assert CHAIN5.values() == [0, 1, 2, 3, 4]
    with pytest.raises(LatticeError):
        NAT.values()
    with pytest.raises(LatticeError):
        IVL.values()
