"""Native solvers and the extensible adapter interface."""

from .base import (
    Solution,
    Solver,
    SolverAdapter,
    SolverOptions,
    Stats,
    available_solvers,
    interpolate,
    register_solver,
)
from .qp import ActiveSetQP, QPResult, solve_qp
from .sqp import QuasiNewtonSolver, SQPSolver

register_solver("qp", ActiveSetQP)
register_solver("bfgs", QuasiNewtonSolver)
register_solver("sqp", SQPSolver)

__all__ = [
    "Solution",
    "Solver",
    "SolverAdapter",
    "SolverOptions",
    "Stats",
    "available_solvers",
    "interpolate",
    "register_solver",
    "ActiveSetQP",
    "QuasiNewtonSolver",
    "SQPSolver",
    "QPResult",
    "solve_qp",
]
