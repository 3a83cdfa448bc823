"""Solver lifecycle: options, sessions, solutions, and the adapter contract.

A solver adapter supplies three behaviors: initialize with options, solve
returning the optimal flat vector, and report statistics.  Adapters are
registered by tag and selected in :meth:`Solver.setup`, which also checks
that the adapter accepts the problem's classification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..problem import FeasibilityReport, Problem, ProblemClass

__all__ = [
    "SolverOptions",
    "Solution",
    "Stats",
    "SolverAdapter",
    "Solver",
    "register_solver",
    "available_solvers",
    "interpolate",
]


@dataclass
class SolverOptions:
    """Tuning knobs shared by the native algorithms.

    ``max_iterations``, ``step_tolerance``, ``constraint_tolerance`` and the
    line-search entries (``armijo_coeff``, ``backtrack_factor``,
    ``max_backtracks``) drive the SQP outer iterations, which the ``sqp``
    and ``bfgs`` tags share.  The
    ``qp_*`` entries drive the active-set QP, both standalone and inside SQP
    subproblems: ``qp_max_iterations`` caps its working-set changes, and a
    bound counts as violated by more than ``qp_absolute_tolerance +
    qp_relative_tolerance * max|Cx|``.
    """

    max_iterations: int = 100
    step_tolerance: float = 1e-8
    constraint_tolerance: float = 1e-6
    armijo_coeff: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 30
    qp_max_iterations: int = 4000
    qp_absolute_tolerance: float = 1e-8
    qp_relative_tolerance: float = 1e-8

    def validate(self) -> None:
        positive = (
            "step_tolerance",
            "constraint_tolerance",
            "armijo_coeff",
            "qp_absolute_tolerance",
            "qp_relative_tolerance",
        )
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise ValueError(f"option {name} must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.max_iterations < 1 or self.qp_max_iterations < 1 or self.max_backtracks < 1:
            raise ValueError("iteration counts must be at least 1")


@dataclass
class Stats:
    """Statistics of the most recent solve.

    Histories include the initial point, so their length is
    ``iterations + 1``.
    """

    iterations: int = 0
    objective_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_norm_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    duration: float = 0.0


@dataclass
class Solution:
    """Named optimal blocks plus solve diagnostics."""

    success: bool
    blocks: dict[str, np.ndarray]
    x: np.ndarray
    objective: float
    report: FeasibilityReport
    iterations: int
    duration: float
    termination: str

    def __getitem__(self, name: str) -> np.ndarray:
        return self.blocks[name]

    def __contains__(self, name: str) -> bool:
        return name in self.blocks


class SolverAdapter:
    """Base class for solver integrations.

    Subclasses implement :meth:`initialize`, :meth:`solve`, and (optionally)
    :meth:`statistics`; the default statistics are empty.  ``accepts`` is
    either ``None`` (any problem) or a set of :class:`ProblemClass` values.

    An adapter that evaluated the point it returns may set ``last_point``
    to ``(x, f, r_in, r_eq)``: that very array x, the objective there, and
    the rows ``[k; g]`` and ``[a; h]`` there.  :class:`Solver` then reports
    on those values instead of evaluating f and the rows again.
    """

    accepts: frozenset | None = None

    def __init__(self):
        self.converged = False
        self.termination = "not-run"
        self.last_point: tuple | None = None

    def initialize(self, problem: Problem, options: SolverOptions) -> None:
        raise NotImplementedError

    def solve(self, x0: np.ndarray, params: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def statistics(self) -> Stats:
        return Stats()


_ADAPTERS: dict[str, type[SolverAdapter]] = {}


def register_solver(tag: str, cls: type[SolverAdapter]) -> None:
    if tag in _ADAPTERS:
        raise ValueError(f"solver tag {tag!r} already registered")
    _ADAPTERS[tag] = cls


def available_solvers() -> list[str]:
    return sorted(_ADAPTERS)


class Solver:
    """A solve session: holds the problem, seed, parameters, and statistics."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.options = SolverOptions()
        self._adapter: SolverAdapter | None = None
        self._seed = np.zeros(problem.n_x)
        self._params = np.zeros(problem.n_p)
        self._stats: Stats | None = None

    def setup(self, algorithm: str = "sqp", options: SolverOptions | None = None) -> "Solver":
        """Select and initialize an algorithm by tag."""
        if algorithm not in _ADAPTERS:
            raise KeyError(f"unknown solver {algorithm!r}; available: {available_solvers()}")
        cls = _ADAPTERS[algorithm]
        if cls.accepts is not None and self.problem.classification not in cls.accepts:
            raise ValueError(
                f"solver {algorithm!r} does not accept "
                f"{self.problem.classification.value} problems"
            )
        self.options = options or SolverOptions()
        self.options.validate()
        self._adapter = cls()
        self._adapter.initialize(self.problem, self.options)
        return self

    def reset_initial_seed(self, values) -> None:
        """Store the next solve's seed; unnamed blocks default to zero.

        A previous :class:`Solution` may be passed directly, which is how
        warm starting across solves works.
        """
        if isinstance(values, Solution):
            values = values.blocks
        self._seed = self.problem.decision.vectorize(values)

    def reset_parameters(self, values) -> None:
        """Store parameter values; unnamed blocks default to zero."""
        self._params = self.problem.parameters.vectorize(values)

    def solve(self) -> Solution:
        if self._adapter is None:
            raise RuntimeError("call setup() before solve()")
        t0 = time.perf_counter()
        returned = self._adapter.solve(self._seed.copy(), self._params.copy())
        duration = time.perf_counter() - t0

        x_star = np.asarray(returned, dtype=float).ravel()
        stats = self._adapter.statistics()
        stats.duration = duration
        self._stats = stats

        success = bool(getattr(self._adapter, "converged", True))
        termination = str(getattr(self._adapter, "termination", "completed"))
        last = self._adapter.last_point
        if last is not None and last[0] is not returned:
            last = None
        if not np.all(np.isfinite(x_star)):
            success = False
            termination = "nan"
            x_star = np.where(np.isfinite(x_star), x_star, 0.0)
            last = None  # the reported point is not the one evaluated

        if last is not None:
            _, objective, r_in, r_eq = last
            report = self.problem.feasibility(
                x_star, self._params, rows=np.concatenate([r_eq, r_in])
            )
        else:
            objective = self.problem.objective(x_star, self._params)
            report = self.problem.feasibility(x_star, self._params)
        if not report.ok(self.options.constraint_tolerance):
            success = False

        return Solution(
            success=success,
            blocks=self.problem.decision.devectorize(x_star, squeeze=False),
            x=x_star,
            objective=objective,
            report=report,
            iterations=stats.iterations,
            duration=duration,
            termination=termination,
        )

    def stats(self) -> Stats:
        """Statistics of the most recent solve."""
        if self._stats is None:
            raise RuntimeError("no solve has been run yet")
        return self._stats


def interpolate(solution, name: str, grid_times, query_times) -> np.ndarray:
    """Piecewise-linear resampling of a named trajectory block.

    ``grid_times`` gives the time of each block column (strictly
    increasing); queries outside the grid range raise.
    """
    blocks = solution.blocks if isinstance(solution, Solution) else solution
    block = np.atleast_2d(np.asarray(blocks[name], dtype=float))
    grid = np.asarray(grid_times, dtype=float).ravel()
    query = np.asarray(query_times, dtype=float).ravel()
    if grid.size != block.shape[1]:
        raise ValueError(
            f"grid has {grid.size} times but block {name!r} has {block.shape[1]} columns"
        )
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid times must be strictly increasing")
    if query.size and (query.min() < grid[0] or query.max() > grid[-1]):
        raise ValueError("query times outside the trajectory range")
    out = np.empty((block.shape[0], query.size))
    for i in range(block.shape[0]):
        out[i] = np.interp(query, grid, block[i])
    return out
