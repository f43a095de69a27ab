"""Terminating widening/narrowing fixpoint solvers over pluggable lattices."""

from .lattice import (
    Chain,
    INF,
    Interval,
    LatticeError,
    LatticeOps,
    NEG_INF,
    NatInf,
    Powerset,
    make_domain,
)
from .eqsys import (
    Answer,
    Assignment,
    EquationSystem,
    Program,
    Query,
    UnknownVariableError,
    compile_rhs_dsl,
    eval_tree,
    extend_top,
    is_closed,
    tree_dep,
)
from .solvers import (
    SolveStatus,
    SolverResult,
    Stats,
    VarBudgetExceeded,
    tsmp,
    tsrr,
    tstp,
    warrow,
    warrow_solve,
)
from .interproc import (
    BuiltinFn,
    CounterexampleCycle,
    Scheme,
    SchemeError,
    check_stratified,
    instantiate_system,
    resolve_builtin,
)
from .oracle import (
    ConcreteSystem,
    GaloisConnection,
    OracleBudgetError,
    OracleError,
    call_loop_system,
    check_sigma_closed,
    check_sound,
    gen_random_system,
    identity_galois,
    is_post_solution,
    is_post_solution_lower_mono,
    kleene_least_solution,
    lower_mono_value,
    powerset_interval_galois,
    rhs_monotone,
    system_monotone,
)

__version__ = "0.1.0"
