"""Canonical constrained problem: numeric evaluation of objective, constraints,
and their derivatives given the stacked decision vector X and parameter vector P.

Transcription happens here: :class:`Problem` routes each constraint row
into one of the four canonical partitions and builds every symbolic
derivative of the build (cost Hessian, residual Jacobian, row Jacobians
and the structure tests) from one shared memo, so none is built twice.

* ``k(X; P) = M(P) X + c(P) >= 0``   linear inequalities
* ``a(X; P) = A(P) X + b(P) = 0``    linear equalities
* ``g(X; P) >= 0``                   nonlinear inequalities
* ``h(X; P) = 0``                    nonlinear equalities

M, c, A, b hold no decision leaves by construction: M and A are the
Jacobian rows of structurally linear rows, and c and b are those rows with
every decision leaf set to 0.  They are compiled over P alone, which
rejects any decision leaf that slips in.

The cost is split at build into weighted residuals and a rest,
``f = sum c r**2 + f_rest`` (:func:`_least_squares`): every summand of the
top-level sum of the form ``c * (r * r)``, with c a product of constants
>= 0 and r depending on X, adds a residual.  The residuals r and their Jacobian J are compiled
in place of f and ∇f, and f_rest with its gradient only when the cost
has a rest.  :meth:`Problem.objective` is ``sum c r**2 + f_rest`` and
:meth:`Problem.gradient` is ``2 J'(c r) + ∇f_rest``, with r and J from
one call.  A solver's curvature comes from the same J: the private
:meth:`Problem._gauss_newton` forms ``2 J'CJ`` block by block from the
values the last gradient left.  :meth:`Problem.hessian` stays the exact
∇²f, the only second derivative compiled.

Derivatives are built and compiled from their structural nonzeros: each
row (and each gradient entry, for the Hessian) is differentiated only by
the decision leaves it depends on, so a horizon problem's derivatives grow
with its nonzeros, not with rows x columns.  Every public evaluator still
returns a dense numpy array; the entries outside the structure are +0.0.
The connected components of the cost's curvature structure (∇²f and
``J'CJ``) are kept as :attr:`Problem.hessian_blocks`: a stage-wise cost
has a block-diagonal Hessian, and a solver can then work on each block
alone.

A k row whose M row has exactly one structural nonzero, a finite nonzero
constant, bounds one variable: ``coef * X[col] + c >= 0``.  These rows are
marked at build as a read-only triple of rows, columns and coefficients
(``Problem._bounds``), so a solver can take them as bounds on X rather
than as rows of a dense M.  :meth:`Problem.lin_ineq` still returns all of M.
"""

from __future__ import annotations

import enum
import math
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
# numpy arithmetic on evaluated values follows Python floats, as the
# compiled tapes do: an overflow gives inf and inf - inf NaN, with no warning
_float_rules = np.errstate(over="ignore", invalid="ignore")


def _least_squares(f: Node, x_set: frozenset) -> tuple[list, list, list]:
    """``(residuals, weights, rest)`` of a scalar cost, ``f = sum w r**2 + sum c n``.

    The summands of f's top-level sum are found through nested ``_ADD``
    nodes.  A summand ``c * (r * r)``, an ``_MUL`` of one node with itself
    reached through ``_MUL`` s by finite constants >= 0 (their product is
    c) and ``_ADD`` s, adds the residual r with weight c when r depends on
    a leaf of ``x_set``.  Every other summand, constants included, goes to
    ``rest`` as a ``(node, c)`` pair.  Residuals come in the order of the
    sum, left to right.
    """
    residuals, weights, rest = [], [], []

    def scaled(c: float, k: Node) -> float | None:
        if k.op != expr._CONST or not k.val >= 0.0:
            return None
        w = c * k.val
        return w if math.isfinite(w) else None

    stack = [(f, 1.0)]
    while stack:
        node, c = stack.pop()
        if node.op == expr._ADD:
            stack += [(node.b, c), (node.a, c)]
        elif node.op != expr._MUL:
            rest.append((node, c))
        elif node.a is node.b and expr._deps(node.a) & x_set:
            residuals.append(node.a)
            weights.append(c)
        elif (w := scaled(c, node.a)) is not None:
            stack.append((node.b, w))
        elif (w := scaled(c, node.b)) is not None:
            stack.append((node.a, w))
        else:
            rest.append((node, c))
    return residuals, weights, rest


def _transcribe(f: Expression, inequalities, equalities, x_leaves):
    """Symbolic pieces of the canonical program, row labels and whether f is quadratic.

    Every derivative comes from one ``_diff`` memo: the cost Hessian, the
    residual Jacobian, the gradient of the rest of the cost, the row
    Jacobians and the structure tests of rows and cost share each (node,
    leaf) derivative, so none is built twice.  The memo is released on
    return, before anything is compiled.  Each derivative piece holds only
    its structural nonzeros, as the entries
    :class:`~taskopt.expr.CompiledFunction` takes.

    The cost is split by :func:`_least_squares`.  ``res`` holds the
    residuals and ``res_jac`` the residuals followed by their Jacobian's
    nonzeros, row by row, so one call gives both; ``f_rest`` and
    ``grad_rest`` are the rest of the cost and its gradient.  A cost with
    no residual is all rest.  The residual Jacobian's pattern and the
    weights are returned as ``(rows, cols, weights)`` arrays, and
    ``rest_curved`` tells whether the rest has second derivatives.
    """
    memo: dict = {}
    n = len(x_leaves)
    x_set = frozenset(x_leaves)
    (grad,) = expr._jacobian(f.entries(), x_leaves, memo)
    hess = expr._hessian(grad, x_leaves, memo)
    pieces = {"hess": expr._sparse_entries(hess, n)}
    quad_cost = expr._classify(f.entries(), x_set, memo) <= expr.StructureClass.QUADRATIC

    residuals, weights, rest = _least_squares(f.entries()[0], x_set)
    jac = expr._jacobian(residuals, x_leaves, memo)
    m = len(residuals)
    if m:
        nodes = residuals + [node for row in jac for _, node in row]
        pieces["res"] = ((m, 1), list(range(m)), residuals)
        pieces["res_jac"] = ((1, len(nodes)), list(range(len(nodes))), nodes)
    rest_curved = False
    if rest:
        if m:
            f_rest = expr._ZERO
            for node, c in rest:
                f_rest = expr._add(f_rest, expr._mul(expr._const(c), node))
            (grad_rest,) = expr._jacobian([f_rest], x_leaves, memo)
        else:  # the whole cost is rest
            f_rest, grad_rest = f.entries()[0], grad
        rest_curved = any(expr._deps(node) & x_set for _, node in grad_rest)
        pieces["f_rest"] = ((1, 1), [0], [f_rest])
        pieces["grad_rest"] = expr._sparse_entries([grad_rest], n)
    pattern = (
        np.array([i for i, row in enumerate(jac) for _ in row], dtype=np.intp),
        np.array([j for row in jac for j, _ in row], dtype=np.intp),
        np.array(weights, dtype=float),
    )

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
    return pieces, labels, quad_cost, pattern, rest_curved


def _bound_rows(entries, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, coefs)`` of the rows of M's entries that bound one variable.

    A row is a bound when its pattern has exactly one structural nonzero
    and that entry is a finite, nonzero constant.  The arrays are read-only,
    with the rows ascending.
    """
    (m, _), positions, nodes = entries
    pos = np.asarray(positions, dtype=np.intp)
    single = np.bincount(pos // n, minlength=m) == 1
    rows, cols, coefs = [], [], []
    for p, node in zip(pos.tolist(), nodes):
        i, j = divmod(p, n)
        if single[i] and node.op == expr._CONST and np.isfinite(node.val) and node.val != 0.0:
            rows.append(i)
            cols.append(j)
            coefs.append(node.val)
    triple = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(coefs))
    for a in triple:
        a.flags.writeable = False
    return triple


def _hessian_blocks(positions, n: int) -> tuple[np.ndarray, ...]:
    """The connected components of the sparsity graph of an n x n matrix, grouped by size.

    ``positions`` are the flat positions of the structural nonzeros.  One
    read-only int array per block size, smallest size first; each row holds
    one block's columns in ascending order, and the rows are ordered by
    their first column.  A column with no nonzero is a block of its own.
    """
    first = list(range(n))  # union-find; a root is its block's first column

    def find(i: int) -> int:
        while first[i] != i:
            first[i] = i = first[first[i]]
        return i

    for p in positions:
        i, j = find(p // n), find(p % n)
        first[max(i, j)] = min(i, j)
    blocks: dict[int, list] = {}
    for col in range(n):
        blocks.setdefault(find(col), []).append(col)
    by_size: dict[int, list] = {}
    for cols in blocks.values():
        by_size.setdefault(len(cols), []).append(cols)
    groups = []
    for size in sorted(by_size):
        group = np.array(by_size[size], dtype=np.intp)
        group.flags.writeable = False
        groups.append(group)
    return tuple(groups)


def _gauss_newton_pairs(pattern, blocks, n: int):
    """How to sum ``2 J'CJ`` of a residual Jacobian into the blocks' values.

    ``pattern`` is ``(rows, cols, weights)`` of the Jacobian's nonzeros,
    row-major, and ``blocks`` is laid out as :attr:`Problem.hessian_blocks`,
    with every row's columns inside one block.  Each pair of nonzeros of a
    row adds ``2 c J[r, a] J[r, b]`` at entry (a, b) of that row's block.
    Returns ``(first, second, scale, target, groups)``: the pairs' Jacobian
    positions, ``2 c`` per pair, and each pair's flat position in the
    block groups laid end to end, where a group of k blocks of size b
    takes ``k * b * b`` values as ``(block, row, col)``; ``groups`` holds
    the ``(start, stop, (k, b, b))`` of each group in that layout.
    """
    rows, cols, weights = pattern
    start = np.empty(n, dtype=np.intp)  # flat position of each column's block row 0
    slot = np.empty(n, dtype=np.intp)  # the column's place in its block
    width = np.empty(n, dtype=np.intp)
    groups, total = [], 0
    for group in blocks:
        k, b = group.shape
        start[group] = total + b * b * np.arange(k)[:, None]
        slot[group] = np.arange(b)
        width[group] = b
        groups.append((total, total + k * b * b, (k, b, b)))
        total += k * b * b
    per_row = np.split(np.arange(rows.size), np.flatnonzero(np.diff(rows)) + 1)
    first = np.concatenate([np.repeat(at, at.size) for at in per_row])
    second = np.concatenate([np.tile(at, at.size) for at in per_row])
    a, b = cols[first], cols[second]
    target = start[a] + slot[a] * width[a] + slot[b]
    return first, second, 2.0 * weights[rows[first]], target, tuple(groups)


class Problem:
    """Compiled canonical problem over flat vectors X (decision) and P (parameter).

    ``inequalities`` and ``equalities`` hold one ``(label, row)`` pair per
    scalar row, read as ``row >= 0`` and ``row == 0``.  A row goes to its
    linear partition (k or a) when ``classify(row, X) <= LINEAR`` and to its
    nonlinear one (g or h) otherwise; ``labels`` lists each partition's row
    labels in row order.  ``hessian_blocks`` partitions the columns of X
    into the connected components of the cost's curvature structure (see
    :func:`_hessian_blocks`): no entry of ∇²f or of ``J'CJ`` couples two
    blocks.  The private ``_bounds`` holds the k rows that bound one
    variable (see :func:`_bound_rows`), and ``_rest_curved`` whether the
    rest of the cost has second derivatives, both fixed at build.
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

        symbolic, self.labels, quad_cost, pattern, self._rest_curved = _transcribe(
            objective_expr, inequalities, equalities, decision.leaves()
        )
        # the components of ∇²f's pattern, joined wherever a residual
        # couples two columns, so that 2 J'CJ lies inside the blocks even
        # where ∇²f cancels to zero
        rows, cols, _ = pattern
        ends = np.searchsorted(rows, rows, side="left")  # each row's first nonzero
        couplings = (cols[ends] * self.n_x + cols).tolist()
        self._hessian_blocks = _hessian_blocks(symbolic["hess"][1] + couplings, self.n_x)
        self._weights = pattern[2]
        self._jac_pattern = rows, cols
        self._pairs = _gauss_newton_pairs(pattern, self._hessian_blocks, self.n_x)
        self._bounds = _bound_rows(symbolic.get("M", ((0, self.n_x), [], [])), self.n_x)
        p_layout = ("parameter", parameters.layout())
        xp = (("variable", decision.layout()), p_layout)
        fns = {}
        for name in list(symbolic):  # each derivative graph is released once compiled
            layouts = (p_layout,) if name in _PARAMETER_ONLY else xp
            fns[name] = CompiledFunction(symbolic.pop(name), layouts)
        self._hess = fns["hess"]
        self._res, self._res_jac = fns.get("res"), fns.get("res_jac")
        self._f_rest, self._grad_rest = fns.get("f_rest"), fns.get("grad_rest")
        # (bytes of X and P, residuals and Jacobian values) of the last gradient
        self._last_res_jac = (None, None)
        self._M, self._c, self._A, self._b = (fns.get(k) for k in _PARAMETER_ONLY)
        self._g, self._Jg, self._h, self._Jh = (fns.get(k) for k in ("g", "Jg", "h", "Jh"))
        self.n_k, self.n_a, self.n_g, self.n_h = (len(self.labels[k]) for k in "kagh")
        general = np.ones(self.n_k, dtype=bool)
        general[self._bounds[0]] = False
        self._general_k = np.flatnonzero(general)
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

    @property
    def hessian_blocks(self) -> tuple[np.ndarray, ...]:
        return self._hessian_blocks

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

    @_float_rules
    def objective(self, X, P=()) -> float:
        """``sum(w r**2) + f_rest``: the residuals alone are evaluated, not their Jacobian."""
        X, P = self._check(X, P)
        f = float(self._f_rest(X, P)[0, 0]) if self._f_rest is not None else 0.0
        if self._res is not None:
            r = self._res(X, P).ravel()
            f += float(self._weights @ (r * r))
        return f

    @_float_rules
    def gradient(self, X, P=()) -> np.ndarray:
        """``2 J'(w r) + ∇f_rest``, with the residuals and J from one call.

        The residual and Jacobian values are kept for :meth:`_gauss_newton`
        at the same point.  An arithmetic fault makes all of them NaN, and
        then the whole gradient is NaN, as the fault rule asks.
        """
        X, P = self._check(X, P)
        if self._res_jac is None:
            return self._grad_rest(X, P).ravel()
        values = self._res_jac(X, P).ravel()
        self._last_res_jac = (X.tobytes() + P.tobytes(), values)
        rows, cols = self._jac_pattern
        m = self._weights.size
        wr = (self._weights * values[:m])[rows]
        g = 2.0 * np.bincount(cols, values[m:] * wr, minlength=self.n_x)
        if self._grad_rest is not None:
            g += self._grad_rest(X, P).ravel()
        if math.isnan(values[0]) and np.isnan(values).all():
            g[:] = np.nan
        return g

    def hessian(self, X, P=()) -> np.ndarray:
        """The exact ∇²f."""
        X, P = self._check(X, P)
        return self._hess(X, P)

    def _gauss_newton(self, X, P) -> tuple[np.ndarray, ...]:
        """``2 J'CJ`` of the residuals, one ``(k, b, b)`` array per group of :attr:`hessian_blocks`.

        Reads the Jacobian kept by the last :meth:`gradient` when that was
        at (X, P), and evaluates it otherwise.
        """
        X, P = self._check(X, P)
        first, second, scale, target, groups = self._pairs
        J = np.zeros(0)
        if self._res_jac is not None:
            key, values = self._last_res_jac
            if key != X.tobytes() + P.tobytes():
                values = self._res_jac(X, P).ravel()
            J = values[self._weights.size :]
        size = groups[-1][1] if groups else 0
        flat = np.bincount(target, scale * (J[first] * J[second]), minlength=size)
        return tuple(flat[start:stop].reshape(shape) for start, stop, shape in groups)

    def lin_ineq(self, P=()) -> tuple[np.ndarray, np.ndarray]:
        """(M, c) with k = M X + c >= 0."""
        P = self._check_p(P)
        if self._M is None:
            return np.zeros((0, self.n_x)), np.zeros(0)
        return self._M(P), self._c(P).ravel()

    def _lin_ineq_general(self, P) -> tuple[np.ndarray, np.ndarray]:
        """(M of the k rows that are not bounds, c of every k row).

        With ``_bounds`` this is all of ``lin_ineq``; M is evaluated only
        when some k row is not a bound.
        """
        P = self._check_p(P)
        if self._M is None:
            return np.zeros((0, self.n_x)), np.zeros(0)
        c = self._c(P).ravel()
        if self._general_k.size == 0:
            return np.zeros((0, self.n_x)), c
        return self._M(P)[self._general_k], c

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
        """Values of all four partitions at (X, P).

        The k rows that bound one variable are gathered from ``_bounds``,
        so a non-finite entry of X makes only the rows on that variable
        non-finite.
        """
        X, P = self._check(X, P)
        M, c = self._lin_ineq_general(P)
        rows, cols, coefs = self._bounds
        k = np.empty(self.n_k)
        k[rows] = coefs * X[cols] + c[rows]
        k[self._general_k] = M @ X + c[self._general_k]
        A, b = self.lin_eq(P)
        return ConstraintValues(
            k=k,
            a=A @ X + b if self.n_a else np.zeros(0),
            g=self.nonlin_ineq(X, P),
            h=self.nonlin_eq(X, P),
        )

    def feasibility(self, X, P=(), *, rows=None) -> FeasibilityReport:
        """Residual report; callers judge it with :meth:`FeasibilityReport.ok`.

        A row's residual is ``|r|`` for an equality and ``max(-r, 0)`` for an
        inequality; a non-finite row counts as violated by ``inf``.  A
        caller that already holds the rows at (X, P), stacked as
        ``[a; h; k; g]``, passes them as ``rows`` and they are judged as
        given, without evaluating them again.
        """
        if rows is None:
            vals = self.constraints(X, P)
            v = np.concatenate([vals.a, vals.h, vals.k, vals.g])
        else:
            v = np.asarray(rows, dtype=float).ravel()
            if v.size != self.n_a + self.n_h + self.n_k + self.n_g:
                raise ValueError(f"rows has length {v.size}, expected one value per row")
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
