"""Timing spans around the benchmark's calls into taskopt, and summary statistics.

Nothing inside taskopt is patched.  A :class:`Tracer` times the public calls
the benchmark itself makes (``tracer.call("urdf.load", load_urdf, path)``),
and :class:`ProblemProxy` stands in for a built ``Problem`` handed to
``Solver(...)``, so the solver's calls into the problem are timed without
touching solver code.  :class:`NullTracer` has the same interface and times
nothing; the untraced run uses it, so both runs execute the same workload code.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

PROBLEM_FUNCTIONS = (
    "objective",
    "gradient",
    "hessian",
    "lin_ineq",
    "lin_eq",
    "nonlin_ineq",
    "nonlin_ineq_jacobian",
    "nonlin_eq",
    "nonlin_eq_jacobian",
    "feasibility",
)


class NullTracer:
    """Runs every call directly and records nothing."""

    def call(self, _name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, _name):
        yield

    def wrap(self, problem):
        return problem

    def count_problem(self, problem):
        pass

    def solve(self, session):
        return session.solve()


class Tracer(NullTracer):
    """Accumulates seconds and call counts per span name.

    ``problem_s`` is the running total of time spent in ``problem.*`` calls;
    :meth:`solve` snapshots it so solver self time excludes evaluation.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.problem_s = 0.0
        self.sqp_iterations = 0
        self.terminations: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(name, time.perf_counter() - t0)

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def wrap(self, problem):
        return ProblemProxy(problem, self)

    def count_problem(self, problem):
        """Add a built problem's size and rows per canonical partition to the counts."""
        self.counts["builder.n_x"] += problem.n_x
        for part in "kagh":
            self.counts[f"builder.rows.{part}"] += getattr(problem, f"n_{part}")

    def solve(self, session):
        """Time ``session.solve()`` and split it into evaluation and solver self time."""
        p0 = self.problem_s
        t0 = time.perf_counter()
        sol = session.solve()
        elapsed = time.perf_counter() - t0
        self.add("solvers.solve", elapsed)
        self.seconds["solvers.problem_in_solve"] += self.problem_s - p0
        self.sqp_iterations += sol.iterations
        self.terminations[sol.termination] += 1
        return sol

    def total(self, prefix: str) -> float:
        """Seconds summed over every span whose name starts with ``prefix``."""
        return sum(s for name, s in self.seconds.items() if name.startswith(prefix))


class ProblemProxy:
    """Delegates to a ``Problem``, timing and counting each public evaluation.

    Attributes other than the evaluation methods (sizes, containers,
    classification, labels) pass straight through.
    """

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._problem, name)
        if name not in PROBLEM_FUNCTIONS:
            return attr
        tracer = self._tracer

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.add(f"problem.{name}", dt)
                tracer.problem_s += dt

        return timed


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile of ``n`` samples with at least ``beyond`` samples above it.

    ``None`` when that percentile would not lie above the median (fewer than
    ``2 * beyond + 1`` samples): such a percentile describes the body of the
    distribution, not its tail.
    """
    pct = math.floor(100 * (n - beyond) / n) if n > 0 else 0
    return pct if pct > 50 else None


def percentile_value(samples, pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % of samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def tail(samples, beyond: int = 10) -> tuple[float, str]:
    """Tail value by the rule above, with a label naming the percentile and sample count."""
    pct = tail_percentile(len(samples), beyond)
    if pct is None:
        return max(samples), f"max of {len(samples)} ops (too few for a tail percentile)"
    return percentile_value(samples, pct), f"p{pct} of {len(samples)} ops"
