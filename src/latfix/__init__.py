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
    OracleBudgetError,
    OracleError,
    gen_random_system,
    is_post_solution,
    is_post_solution_lower_mono,
    rhs_monotone,
    system_monotone,
)

__version__ = "0.1.0"
