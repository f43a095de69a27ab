"""Ground-truth machinery: Kleene iteration, lower monotonization, soundness."""

import itertools
import random

import pytest

from latfix import (
    Answer,
    Assignment,
    OracleError,
    SolveStatus,
    compile_rhs_dsl,
    gen_random_system,
    is_closed,
    is_post_solution,
    is_post_solution_lower_mono,
    rhs_monotone,
    tsmp,
)
from latfix.cli import parse_finite_file
from latfix.lattice import Chain, Interval, Powerset, make_domain

from fixtures import EX1_CHAIN4, EX5_NATINF, loop_call_concrete
from oracle_ref import (
    ConcreteSystem,
    call_loop_system,
    check_sigma_closed,
    check_sound,
    identity_galois,
    kleene_least_solution,
    lower_mono_value,
    powerset_interval_galois,
)

CHAIN4 = make_domain(Chain(4))
POW_AB = make_domain(Powerset(("a", "b")))


def finite_system(text):
    prog = parse_finite_file(text)
    return prog.ops, prog.system, prog.var_order


# --- kleene -----------------------------------------------------------------------

def test_kleene_on_loop_call_system():
    conc = loop_call_concrete()
    sol = kleene_least_solution(conc.system(), conc.ops)
    both = frozenset({"q0", "q1"})
    assert sol[("u", "q0")] == both and sol[("v", "q0")] == both
    assert sol[("u", "q1")] == frozenset({"q1"})
    assert sol[("v", "q1")] == frozenset({"q1"})


def test_kleene_trivial_and_two_round():
    ops, system, _ = finite_system("lattice powerset a b\nvar y = lit {}\n")
    assert kleene_least_solution(system, ops)["y"] == frozenset()
    text = ("lattice powerset a b\n"
            "var y1 = join (get y2) (lit {a})\n"
            "var y2 = get y1\n")
    ops, system, _ = finite_system(text)
    sol = kleene_least_solution(system, ops)
    assert sol["y1"] == frozenset("a") and sol["y2"] == frozenset("a")


def test_kleene_reports_non_monotone():
    ops, system, _ = finite_system(
        "lattice chain 2\n"
        "var y = ite (eq (get y) (lit 0)) (lit 1) (lit 0)\n")
    with pytest.raises(OracleError, match="monotone"):
        kleene_least_solution(system, ops)


# --- lower monotonization ------------------------------------------------------------

def test_lower_mono_of_flip_flop_is_zero():
    ops, system, variables = finite_system(EX1_CHAIN4)
    tree = system.rhs("y1")
    assert lower_mono_value(tree, {"y1": 0}, variables, ops) == 0
    assert lower_mono_value(tree, {"y1": 1}, variables, ops) == 0


def test_lower_mono_of_monotone_tree_is_itself():
    tree = compile_rhs_dsl(("join", ("get", "y"), ("lit", 1)), CHAIN4)
    assert lower_mono_value(tree, {"y": 2}, ["y"], CHAIN4) == 2


def test_lower_mono_of_constant():
    assert lower_mono_value(Answer(3), {"y": 0}, ["y"], CHAIN4) == 3


def _tiny_exprs(count, nvars, ops, seed):
    from test_eqsys import random_expr

    rng = random.Random(seed)
    variables = [f"y{i + 1}" for i in range(nvars)]
    return variables, [random_expr(rng, ops, variables, rng.randint(0, 2))
                       for _ in range(count)]


def test_lower_mono_lemma_properties_small():
    # Monotone in the argument, below the original, equal when monotone.
    for nvars in (1, 2):
        for size in (2, 3, 4):
            ops = make_domain(Chain(size))
            variables, exprs = _tiny_exprs(12, nvars, ops, seed=size * 10 + nvars)
            assignments = [dict(zip(variables, combo))
                           for combo in itertools.product(ops.values(),
                                                          repeat=nvars)]
            for expr in exprs:
                tree = compile_rhs_dsl(expr, ops)
                lm = {tuple(a.values()): lower_mono_value(tree, a, variables, ops)
                      for a in assignments}
                monotone = rhs_monotone(tree, variables, ops)
                for a in assignments:
                    value = lm[tuple(a.values())]
                    from latfix import eval_tree

                    direct = eval_tree(tree, a)
                    assert ops.leq(value, direct)
                    if monotone:
                        assert ops.eq(value, direct)
                for a in assignments:
                    for b in assignments:
                        if all(ops.leq(a[v], b[v]) for v in variables):
                            assert ops.leq(lm[tuple(a.values())],
                                           lm[tuple(b.values())])


# --- post-solution checks --------------------------------------------------------------

def test_is_post_solution_on_min_max_system():
    prog = parse_finite_file(EX5_NATINF)
    good = Assignment(prog.ops, {"y1": 2, "y2": 2, "y3": 3})
    assert is_post_solution(good, prog.system)
    bad = Assignment(prog.ops, {"y1": 0, "y2": 0, "y3": 0})
    assert not is_post_solution(bad, prog.system)
    assert is_post_solution(Assignment(prog.ops, {}), prog.system)


def test_is_post_solution_lower_mono_examples():
    ops, system, _ = finite_system(EX1_CHAIN4)
    assert is_post_solution_lower_mono(Assignment(ops, {"y1": 1}), system, ops)
    assert is_post_solution_lower_mono(Assignment(ops, {}), system, ops)
    # Not everything passes: value 0 is below the required constant... the
    # flip-flop's lower monotonization is 0, so even 0 passes; use a strictly
    # constant system to get a failing case.
    ops2, system2, _ = finite_system("lattice chain 4\nvar y = lit 3\n")
    assert not is_post_solution_lower_mono(
        Assignment(ops2, {"y": 1}), system2, ops2)


def test_post_solution_implies_lower_mono_post_exhaustive():
    for seed in range(12):
        gen = gen_random_system(seed, 2, Chain(3), 2, monotone_only=False)
        for combo in itertools.product(gen.ops.values(), repeat=2):
            cand = Assignment(gen.ops, dict(zip(gen.variables, combo)))
            if is_post_solution(cand, gen.system):
                assert is_post_solution_lower_mono(cand, gen.system, gen.ops)


def test_lower_mono_check_agrees_with_the_reference():
    # The shipped check against the brute-force reference, which shares no
    # enumeration code with it, on every total assignment of small systems.
    descriptors = [Chain(2), Chain(3), Chain(4), Powerset(("a", "b"))]
    verdicts = set()
    for seed in range(96):
        descriptor = descriptors[seed % 4]
        nvars = seed // 4 % 3 + 1
        gen = gen_random_system(seed, nvars, descriptor, 2 + seed % 2,
                                monotone_only=seed // 12 % 2 == 0)
        ops, variables, system = gen.ops, gen.variables, gen.system
        for combo in itertools.product(ops.values(), repeat=nvars):
            a = Assignment(ops, dict(zip(variables, combo)))
            expected = all(
                ops.leq(lower_mono_value(system.rhs(y), a, variables, ops), a[y])
                for y in variables)
            assert is_post_solution_lower_mono(a, system, ops) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


# --- soundness via Galois connections ----------------------------------------------------

def test_check_sound_identity_cases():
    conc = loop_call_concrete()
    galois = identity_galois(conc.ops)
    relation = [(v, v) for v in conc.variables]

    result = tsmp(conc.system(), ("u", "q0"), conc.ops)
    assert result.status is SolveStatus.COMPLETED
    assert check_sound(conc, result.assignment, galois, relation)

    all_top = Assignment(conc.ops, {v: conc.ops.top for v in conc.variables})
    assert check_sound(conc, all_top, galois, relation)

    all_bot = Assignment(conc.ops, {v: conc.ops.bot for v in conc.variables})
    assert not check_sound(conc, all_bot, galois, relation)


def test_check_sigma_closed_cases():
    conc = loop_call_concrete()
    sol = kleene_least_solution(conc.system(), conc.ops)
    assert check_sigma_closed(conc, sol, set(conc.variables))
    assert check_sigma_closed(conc, sol, {("v", "q1")})
    assert not check_sigma_closed(conc, sol, {("u", "q0")})


def test_galois_adjunctions():
    assert identity_galois(POW_AB).adjunction_holds()
    pow_ints = make_domain(Powerset(("0", "1", "2", "3")))
    galois = powerset_interval_galois(pow_ints, make_domain(Interval()))
    assert galois.adjunction_holds(rng=random.Random(4), samples=1500)


# --- generator -----------------------------------------------------------------------------

def test_generator_is_deterministic():
    a = gen_random_system(1, 2, Chain(3), 2, monotone_only=True)
    b = gen_random_system(1, 2, Chain(3), 2, monotone_only=True)
    assert a.exprs == b.exprs
    assert a.variables == b.variables


def test_monotone_corpus_is_monotone():
    for seed in range(40):
        nvars = seed % 2 + 1
        gen = gen_random_system(seed, nvars, Chain(4), 3, monotone_only=True)
        for v in gen.variables:
            assert rhs_monotone(gen.system.rhs(v), gen.variables, gen.ops)


def test_unrestricted_corpus_contains_non_monotone():
    found = False
    for seed in range(500):
        gen = gen_random_system(seed, 2, Chain(3), 3, monotone_only=False)
        if not all(rhs_monotone(gen.system.rhs(v), gen.variables, gen.ops)
                   for v in gen.variables):
            found = True
            break
    assert found


def test_monotonicity_checker_matches_pair_enumeration():
    # Literal all-pairs definition, cross-validating the one-step checker.
    from latfix import eval_tree
    from test_eqsys import random_expr

    ops = make_domain(Chain(3))
    variables = ["y1", "y2"]
    rng = random.Random(11)
    assignments = [dict(zip(variables, combo))
                   for combo in itertools.product(ops.values(), repeat=2)]
    for _ in range(200):
        expr = random_expr(rng, ops, variables, rng.randint(0, 2))
        tree = compile_rhs_dsl(expr, ops)
        by_pairs = all(
            ops.leq(eval_tree(tree, a), eval_tree(tree, b))
            for a in assignments
            for b in assignments
            if all(ops.leq(a[v], b[v]) for v in variables))
        assert rhs_monotone(tree, variables, ops) == by_pairs


# --- lemma-2-style random pairs ---------------------------------------------------------------

def _random_union_system(seed):
    """Monotone concrete system from queries, unions, and literals only."""
    rng = random.Random(seed)
    atoms = ("a", "b")[: rng.randint(1, 2)]
    ops = make_domain(Powerset(atoms))
    nvars = rng.randint(1, 3)
    variables = [f"x{i}" for i in range(nvars)]

    def gen(depth):
        if depth <= 0 or rng.random() < 0.4:
            if rng.random() < 0.6:
                return ("get", rng.choice(variables))
            return ("lit", ops.sample(rng))
        return ("join", gen(depth - 1), gen(depth - 1))

    rhs = {v: compile_rhs_dsl(gen(2), ops) for v in variables}
    return ConcreteSystem(atoms, tuple(variables), rhs, ops)


def test_sound_abstractions_describe_least_solutions():
    for seed in range(200):
        conc = _random_union_system(seed)
        system = conc.system()
        result = tsmp(system, conc.variables[0], conc.ops)
        assert result.status is SolveStatus.COMPLETED
        if not is_post_solution_lower_mono(result.assignment, system, conc.ops):
            continue
        galois = identity_galois(conc.ops)
        relation = [(v, v) for v in conc.variables]
        assert check_sound(conc, result.assignment, galois, relation)


def test_closed_sound_assignments_give_sigma_closed_sets():
    cases = [
        (["q0", "q1"], {"q0": {"q1"}, "q1": set()}),
        (["q0", "q1"], {"q0": {"q0", "q1"}, "q1": {"q1"}}),
        (["q0", "q1", "q2"], {"q0": {"q1"}, "q1": {"q2"}, "q2": set()}),
        (["q0", "q1", "q2"], {"q0": {"q2"}, "q1": set(), "q2": {"q1"}}),
    ]
    for states, transfer in cases:
        conc = call_loop_system(states, transfer)
        system = conc.system()
        result = tsmp(system, ("u", states[0]), conc.ops)
        assert is_closed(result.assignment, system)
        assert is_post_solution_lower_mono(result.assignment, system, conc.ops)
        sol = kleene_least_solution(system, conc.ops)
        assert check_sigma_closed(conc, sol, result.assignment.dom)
