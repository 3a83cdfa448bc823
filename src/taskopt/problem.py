"""Canonical constrained problem: numeric evaluation of objective, constraints,
and their derivatives given the stacked decision vector X and parameter vector P.

The constraint partitions follow the canonical form produced by the builder:

* ``k(X; P) = M(P) X + c(P) >= 0``   linear inequalities
* ``a(X; P) = A(P) X + b(P) = 0``    linear equalities
* ``g(X; P) >= 0``                   nonlinear inequalities
* ``h(X; P) = 0``                    nonlinear equalities

M, c, A, b depend on parameters only; this is asserted structurally when
the problem is assembled.  All matrices are dense; the problem sizes this
library targets (up to a few thousand decision variables) do not call for
sparsity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import expr
from .containers import VariableContainer
from .expr import CompiledFunction, Expression

__all__ = ["Problem", "ProblemClass", "ConstraintValues", "FeasibilityReport"]


class ProblemClass(enum.Enum):
    """The six problem types solvers use to accept or reject a problem."""

    UNCONSTRAINED_QUADRATIC = "unconstrained-quadratic"
    LINEAR_CONSTRAINED_QUADRATIC = "linear-constrained-quadratic"
    NONLINEAR_CONSTRAINED_QUADRATIC = "nonlinear-constrained-quadratic"
    UNCONSTRAINED_NONLINEAR = "unconstrained-nonlinear"
    LINEAR_CONSTRAINED_NONLINEAR = "linear-constrained-nonlinear"
    NONLINEAR_COST_AND_CONSTRAINTS = "nonlinear-cost-and-constraints"

    @property
    def quadratic_cost(self) -> bool:
        return self in (
            ProblemClass.UNCONSTRAINED_QUADRATIC,
            ProblemClass.LINEAR_CONSTRAINED_QUADRATIC,
            ProblemClass.NONLINEAR_CONSTRAINED_QUADRATIC,
        )

    @property
    def has_constraints(self) -> bool:
        return self not in (
            ProblemClass.UNCONSTRAINED_QUADRATIC,
            ProblemClass.UNCONSTRAINED_NONLINEAR,
        )

    @property
    def has_nonlinear_constraints(self) -> bool:
        return self in (
            ProblemClass.NONLINEAR_CONSTRAINED_QUADRATIC,
            ProblemClass.NONLINEAR_COST_AND_CONSTRAINTS,
        )


class ConstraintValues(NamedTuple):
    k: np.ndarray
    a: np.ndarray
    g: np.ndarray
    h: np.ndarray


@dataclass
class FeasibilityReport:
    """Constraint residuals of a candidate point; every value is >= 0."""

    equality_residual: float
    inequality_violation: float
    worst_constraint: str | None
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def max_violation(self) -> float:
        return max(self.equality_residual, self.inequality_violation)

    def ok(self, tol: float) -> bool:
        return self.max_violation <= tol


class Problem:
    """Compiled canonical problem over flat vectors X (decision) and P (parameter)."""

    def __init__(
        self,
        decision: VariableContainer,
        parameters: VariableContainer,
        objective_expr: Expression,
        lin_ineq: tuple[Expression, Expression] | None,
        lin_eq: tuple[Expression, Expression] | None,
        nonlin_ineq: Expression | None,
        nonlin_eq: Expression | None,
        labels: dict[str, list[str]] | None = None,
    ):
        self.decision = decision
        self.parameters = parameters
        self.n_x = decision.total_length
        self.n_p = parameters.total_length

        x_layout = ("variable", decision.layout())
        p_layout = ("parameter", parameters.layout())
        xp = (x_layout, p_layout)
        x_leaves = decision.leaves()

        if not objective_expr.is_scalar():
            raise ValueError("objective must be scalar")
        self._f_expr = objective_expr
        self._f = CompiledFunction(objective_expr, xp)
        grad_expr = expr.gradient(objective_expr, x_leaves)
        self._grad = CompiledFunction(grad_expr, xp)
        hess_expr = expr.hessian(objective_expr, x_leaves)
        self._hess = CompiledFunction(hess_expr, xp)

        def _param_only(e: Expression, what: str):
            for block in e.leaf_blocks():
                if block.kind != "parameter":
                    raise ValueError(f"{what} must depend on parameters only")

        if lin_ineq is not None:
            M, c = lin_ineq
            _param_only(M, "M"), _param_only(c, "c")
            self.n_k = M.rows
            self._M = CompiledFunction(M, (p_layout,))
            self._c = CompiledFunction(c, (p_layout,))
        else:
            self.n_k = 0
            self._M = self._c = None

        if lin_eq is not None:
            A, b = lin_eq
            _param_only(A, "A"), _param_only(b, "b")
            self.n_a = A.rows
            self._A = CompiledFunction(A, (p_layout,))
            self._b = CompiledFunction(b, (p_layout,))
        else:
            self.n_a = 0
            self._A = self._b = None

        if nonlin_ineq is not None:
            self.n_g = nonlin_ineq.rows
            self._g = CompiledFunction(nonlin_ineq, xp)
            self._Jg = CompiledFunction(expr.jacobian(nonlin_ineq, x_leaves), xp)
        else:
            self.n_g = 0
            self._g = self._Jg = None

        if nonlin_eq is not None:
            self.n_h = nonlin_eq.rows
            self._h = CompiledFunction(nonlin_eq, xp)
            self._Jh = CompiledFunction(expr.jacobian(nonlin_eq, x_leaves), xp)
        else:
            self.n_h = 0
            self._h = self._Jh = None

        self.labels = labels or {"k": [], "a": [], "g": [], "h": []}

        cost_class = expr.classify(objective_expr, x_leaves)
        self._classification = self._classify(cost_class <= expr.StructureClass.QUADRATIC)

    def _classify(self, quad_cost: bool) -> ProblemClass:
        if self.n_g + self.n_h > 0:
            return (
                ProblemClass.NONLINEAR_CONSTRAINED_QUADRATIC
                if quad_cost
                else ProblemClass.NONLINEAR_COST_AND_CONSTRAINTS
            )
        if self.n_k + self.n_a > 0:
            return (
                ProblemClass.LINEAR_CONSTRAINED_QUADRATIC
                if quad_cost
                else ProblemClass.LINEAR_CONSTRAINED_NONLINEAR
            )
        return (
            ProblemClass.UNCONSTRAINED_QUADRATIC
            if quad_cost
            else ProblemClass.UNCONSTRAINED_NONLINEAR
        )

    @property
    def classification(self) -> ProblemClass:
        return self._classification

    # evaluation -----------------------------------------------------------
    def _check(self, X, P) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float).ravel()
        P = np.asarray(P, dtype=float).ravel()
        if X.size != self.n_x:
            raise ValueError(f"X has length {X.size}, expected {self.n_x}")
        if P.size != self.n_p:
            raise ValueError(f"P has length {P.size}, expected {self.n_p}")
        return X, P

    def objective(self, X, P=()) -> float:
        X, P = self._check(X, P)
        return float(self._f(X, P)[0, 0])

    def gradient(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._grad(X, P).ravel()

    def hessian(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._hess(X, P)

    def lin_ineq(self, P=()) -> tuple[np.ndarray, np.ndarray]:
        """(M, c) with k = M X + c >= 0."""
        P = np.asarray(P, dtype=float).ravel()
        if self._M is None:
            return np.zeros((0, self.n_x)), np.zeros(0)
        return self._M(P), self._c(P).ravel()

    def lin_eq(self, P=()) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with a = A X + b = 0."""
        P = np.asarray(P, dtype=float).ravel()
        if self._A is None:
            return np.zeros((0, self.n_x)), np.zeros(0)
        return self._A(P), self._b(P).ravel()

    def nonlin_ineq(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._g(X, P).ravel() if self._g is not None else np.zeros(0)

    def nonlin_ineq_jacobian(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._Jg(X, P) if self._Jg is not None else np.zeros((0, self.n_x))

    def nonlin_eq(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._h(X, P).ravel() if self._h is not None else np.zeros(0)

    def nonlin_eq_jacobian(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._Jh(X, P) if self._Jh is not None else np.zeros((0, self.n_x))

    def constraints(self, X, P=()) -> ConstraintValues:
        """Values of all four partitions at (X, P)."""
        X, P = self._check(X, P)
        M, c = self.lin_ineq(P)
        A, b = self.lin_eq(P)
        return ConstraintValues(
            k=M @ X + c if self.n_k else np.zeros(0),
            a=A @ X + b if self.n_a else np.zeros(0),
            g=self.nonlin_ineq(X, P),
            h=self.nonlin_eq(X, P),
        )

    def feasibility(self, X, P=()) -> FeasibilityReport:
        """Residual report; callers judge it with :meth:`FeasibilityReport.ok`."""
        vals = self.constraints(X, P)
        residuals: dict[str, float] = {}
        worst_name, worst_val = None, -1.0

        def fold(names, values, violation):
            nonlocal worst_name, worst_val
            for name, v in zip(names, values):
                r = violation(v)
                if r > residuals.get(name, -1.0):
                    residuals[name] = r
                if r > worst_val:
                    worst_name, worst_val = name, r

        eq_res = 0.0
        for part, names in (("a", self.labels["a"]), ("h", self.labels["h"])):
            values = getattr(vals, part)
            if values.size:
                eq_res = max(eq_res, float(np.abs(values).max()))
            fold(names, values, lambda v: abs(float(v)))

        ineq_vio = 0.0
        for part, names in (("k", self.labels["k"]), ("g", self.labels["g"])):
            values = getattr(vals, part)
            if values.size:
                ineq_vio = max(ineq_vio, float(np.maximum(-values, 0.0).max()))
            fold(names, values, lambda v: max(-float(v), 0.0))

        return FeasibilityReport(
            equality_residual=eq_res,
            inequality_violation=ineq_vio,
            worst_constraint=worst_name,
            residuals=residuals,
        )
