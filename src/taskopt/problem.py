"""Canonical constrained problem: numeric evaluation of objective, constraints,
and their derivatives given the stacked decision vector X and parameter vector P.

Transcription happens here: :class:`Problem` routes each constraint row
into one of the four canonical partitions and builds every symbolic
derivative of the build (cost gradient and Hessian, row Jacobians and the
structure tests) from one shared memo, so none is built twice.

* ``k(X; P) = M(P) X + c(P) >= 0``   linear inequalities
* ``a(X; P) = A(P) X + b(P) = 0``    linear equalities
* ``g(X; P) >= 0``                   nonlinear inequalities
* ``h(X; P) = 0``                    nonlinear equalities

M, c, A, b hold no decision leaves by construction: M and A are the
Jacobian rows of structurally linear rows, and c and b are those rows with
every decision leaf set to 0.  They are compiled over P alone, which
rejects any decision leaf that slips in.

Derivatives are built and compiled from their structural nonzeros: each
row (and each gradient entry, for the Hessian) is differentiated only by
the decision leaves it depends on, so a horizon problem's derivatives grow
with its nonzeros, not with rows x columns.  Every evaluator still returns
a dense numpy array; the entries outside the structure are +0.0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import expr
from .containers import VariableContainer
from .expr import CompiledFunction, Expression, Node

__all__ = ["Problem", "ProblemClass", "ConstraintValues", "FeasibilityReport"]


class ProblemClass(enum.Enum):
    """The six problem types solvers use to accept or reject a problem."""

    UNCONSTRAINED_QUADRATIC = "unconstrained-quadratic"
    LINEAR_CONSTRAINED_QUADRATIC = "linear-constrained-quadratic"
    NONLINEAR_CONSTRAINED_QUADRATIC = "nonlinear-constrained-quadratic"
    UNCONSTRAINED_NONLINEAR = "unconstrained-nonlinear"
    LINEAR_CONSTRAINED_NONLINEAR = "linear-constrained-nonlinear"
    NONLINEAR_COST_AND_CONSTRAINTS = "nonlinear-cost-and-constraints"


class ConstraintValues(NamedTuple):
    k: np.ndarray
    a: np.ndarray
    g: np.ndarray
    h: np.ndarray


@dataclass
class FeasibilityReport:
    """Constraint residuals of a candidate point; every value is >= 0.

    A non-finite row (NaN or infinite) counts as violated by ``inf``, so a
    point whose rows fail to evaluate is never reported feasible.
    """

    equality_residual: float
    inequality_violation: float
    worst_constraint: str | None
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def max_violation(self) -> float:
        return max(self.equality_residual, self.inequality_violation)

    def ok(self, tol: float) -> bool:
        return self.max_violation <= tol


# the pieces compiled over P alone
_PARAMETER_ONLY = ("M", "c", "A", "b")
# Per row stack: its linear partition and that partition's (M, c), then its
# nonlinear partition and that partition's Jacobian.
_SPLITS = (("k", "M", "c", "g", "Jg"), ("a", "A", "b", "h", "Jh"))


def _transcribe(f: Expression, inequalities, equalities, x_leaves):
    """Symbolic pieces of the canonical program, row labels and whether f is quadratic.

    Every derivative comes from one ``_diff`` memo: the gradient, Hessian,
    row Jacobians and the structure tests of rows and cost share each
    (node, leaf) derivative, so none is built twice.  The memo is released
    on return, before anything is compiled.  Each derivative piece holds
    only its structural nonzeros, as the entries
    :class:`~taskopt.expr.CompiledFunction` takes.
    """
    memo: dict = {}
    n = len(x_leaves)
    x_set = frozenset(x_leaves)
    (grad,) = expr._jacobian(f.entries(), x_leaves, memo)
    pieces = {
        "f": f,
        "grad": expr._sparse_entries([grad], n),  # a row; gradient() ravels it
        "hess": expr._sparse_entries(expr._hessian(grad, x_leaves, memo), n),
    }
    quad_cost = expr._classify(f.entries(), x_set, memo) <= expr.StructureClass.QUADRATIC
    labels: dict[str, list[str]] = {"k": [], "a": [], "g": [], "h": []}
    for (k, M, c, g, Jg), rows in zip(_SPLITS, (inequalities, equalities)):
        stack = np.array([node for _, node in rows], dtype=object)
        J = expr._jacobian(stack, x_leaves, memo)
        linear = [expr._classify([node], x_set, memo) <= expr.StructureClass.LINEAR for node in stack]
        for (name, _), lin in zip(rows, linear):
            labels[k if lin else g].append(name)
        lin_rows = [i for i, lin in enumerate(linear) if lin]
        nonlin_rows = [i for i, lin in enumerate(linear) if not lin]
        if lin_rows:
            pieces[M] = expr._sparse_entries([J[i] for i in lin_rows], n)
            pieces[c] = expr._at_zero(Expression(stack[lin_rows]), x_leaves)
        if nonlin_rows:
            pieces[g] = Expression(stack[nonlin_rows])
            pieces[Jg] = expr._sparse_entries([J[i] for i in nonlin_rows], n)
    return pieces, labels, quad_cost


class Problem:
    """Compiled canonical problem over flat vectors X (decision) and P (parameter).

    ``inequalities`` and ``equalities`` hold one ``(label, row)`` pair per
    scalar row, read as ``row >= 0`` and ``row == 0``.  A row goes to its
    linear partition (k or a) when ``classify(row, X) <= LINEAR`` and to its
    nonlinear one (g or h) otherwise; ``labels`` lists each partition's row
    labels in row order.
    """

    def __init__(
        self,
        decision: VariableContainer,
        parameters: VariableContainer,
        objective_expr: Expression,
        inequalities: Sequence[tuple[str, Node]] = (),
        equalities: Sequence[tuple[str, Node]] = (),
    ):
        self.decision = decision
        self.parameters = parameters
        self.n_x = decision.total_length
        self.n_p = parameters.total_length
        if not objective_expr.is_scalar():
            raise ValueError("objective must be scalar")

        symbolic, self.labels, quad_cost = _transcribe(
            objective_expr, inequalities, equalities, decision.leaves()
        )
        p_layout = ("parameter", parameters.layout())
        xp = (("variable", decision.layout()), p_layout)
        fns = {}
        for name in list(symbolic):  # each derivative graph is released once compiled
            layouts = (p_layout,) if name in _PARAMETER_ONLY else xp
            fns[name] = CompiledFunction(symbolic.pop(name), layouts)
        self._f, self._grad, self._hess = fns["f"], fns["grad"], fns["hess"]
        self._M, self._c, self._A, self._b = (fns.get(k) for k in _PARAMETER_ONLY)
        self._g, self._Jg, self._h, self._Jh = (fns.get(k) for k in ("g", "Jg", "h", "Jh"))
        self.n_k, self.n_a, self.n_g, self.n_h = (len(self.labels[k]) for k in "kagh")
        self._classification = self._classify(quad_cost)
        # one constraint-name slot per row, in the report's row order [a; h; k; g]
        names = [name for part in "ahkg" for name in self.labels[part]]
        self._names = list(dict.fromkeys(names))
        slot = {name: i for i, name in enumerate(self._names)}
        self._slots = np.array([slot[name] for name in names], dtype=np.intp)

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
        if X.size != self.n_x:
            raise ValueError(f"X has length {X.size}, expected {self.n_x}")
        return X, self._check_p(P)

    def _check_p(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float).ravel()
        if P.size != self.n_p:
            raise ValueError(f"P has length {P.size}, expected {self.n_p}")
        return P

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
        P = self._check_p(P)
        if self._M is None:
            return np.zeros((0, self.n_x)), np.zeros(0)
        return self._M(P), self._c(P).ravel()

    def lin_eq(self, P=()) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with a = A X + b = 0."""
        P = self._check_p(P)
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
        """Residual report; callers judge it with :meth:`FeasibilityReport.ok`.

        A row's residual is ``|r|`` for an equality and ``max(-r, 0)`` for an
        inequality; a non-finite row counts as violated by ``inf``.
        """
        vals = self.constraints(X, P)
        v = np.concatenate([vals.a, vals.h, vals.k, vals.g])
        m_eq = self.n_a + self.n_h
        r = np.concatenate([np.abs(v[:m_eq]), np.maximum(-v[m_eq:], 0.0)])
        r[~np.isfinite(v)] = np.inf
        per_name = np.zeros(len(self._names))
        np.maximum.at(per_name, self._slots, r)
        return FeasibilityReport(
            equality_residual=float(r[:m_eq].max(initial=0.0)),
            inequality_violation=float(r[m_eq:].max(initial=0.0)),
            worst_constraint=self._names[self._slots[r.argmax()]] if r.size else None,
            residuals=dict(zip(self._names, per_name.tolist())),
        )
