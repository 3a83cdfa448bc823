"""Operator-splitting solver for quadratic programs.

Solves ``min 0.5 x'Hx + q'x  s.t.  l <= Cx <= u`` by the alternating
direction method with over-relaxation (the OSQP iteration).  Each
iteration solves the condensed n x n system
``(H + sigma I + C' diag(rho) C) x~ = sigma x - q + C'(rho z - y)``, sets
``z~ = C x~``, projects onto the box, and updates the duals.  With every
``rho > 0`` this is the reduced form of the (n + m) quasi-definite KKT
system, so only an n x n LU factor is kept; it is refactored when the
penalty adapts.  Equality rows (``l == u``) get their penalty scaled up,
which sharpens convergence on mixed problems.

Dual convention matches the dual-residual formula ``Hx + q + C'y``:
``y >= 0`` on active upper bounds and ``y <= 0`` on active lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ..problem import ProblemClass
from .base import SolverAdapter, SolverOptions, Stats

__all__ = ["solve_qp", "QPResult", "OperatorSplittingQP"]

_EQ_PENALTY_SCALE = 1e3
_ADAPT_INTERVAL = 50


@dataclass
class QPResult:
    x: np.ndarray
    y: np.ndarray
    converged: bool
    iterations: int
    termination: str
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    objective_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_history: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def max_residual(self) -> float:
        return max(self.primal_residual, self.dual_residual)


def _direct_solve(H, q, sigma, max_iter_label="kkt-tolerance") -> QPResult:
    n = H.shape[0]
    try:
        x = np.linalg.solve(H, -q)
    except np.linalg.LinAlgError:
        x = np.linalg.solve(H + sigma * np.eye(n), -q)
    obj = 0.5 * x @ H @ x + q @ x
    finite = bool(np.all(np.isfinite(x)))
    return QPResult(
        x=x,
        y=np.zeros(0),
        converged=finite,
        iterations=1,
        termination=max_iter_label,
        primal_residual=0.0,
        dual_residual=float(np.abs(H @ x + q).max(initial=0.0)) if finite else np.inf,
        objective_history=np.array([0.0 + q @ np.zeros(n), obj]),
        step_history=np.array([0.0, float(np.abs(x).max(initial=0.0))]),
    )


def _polish(H, q, C, l, u, x, y):
    """Refine a converged iterate by solving the active-set KKT system.

    The splitting iteration locates the active set; one direct solve then
    drives active rows to machine precision.  Returns the refined (x, y)
    only when both residuals improve, otherwise the input pair.
    """
    n, m = H.shape[0], C.shape[0]
    Cx = C @ x
    slack_lo = Cx - l
    slack_hi = u - Cx
    active = (np.abs(y) > 1e-9) | (slack_lo < 1e-7) | (slack_hi < 1e-7)
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return x, y
    A = C[idx]
    rhs_rows = np.where(
        (np.abs(y[idx]) > 1e-9) & (y[idx] > 0.0) & np.isfinite(u[idx]),
        u[idx],
        np.where(np.isfinite(l[idx]), l[idx], u[idx]),
    )
    # rows pinched by both bounds (equalities) keep their common value
    eq = np.abs(u[idx] - l[idx]) <= 1e-12
    rhs_rows[eq] = l[idx][eq]

    k = idx.size
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    rhs = np.concatenate([-q, rhs_rows])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        kkt[:n, :n] += 1e-10 * np.eye(n)
        kkt[n:, n:] -= 1e-10 * np.eye(k)
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    x_new = sol[:n]
    y_new = np.zeros(m)
    y_new[idx] = sol[n:]
    if not np.all(np.isfinite(x_new)):
        return x, y

    def residuals(xv, yv):
        Cxv = C @ xv
        r_p = float(np.maximum(np.maximum(l - Cxv, Cxv - u), 0.0).max(initial=0.0))
        r_d = float(np.abs(H @ xv + q + C.T @ yv).max(initial=0.0))
        return r_p, r_d

    rp_old, rd_old = residuals(x, y)
    rp_new, rd_new = residuals(x_new, y_new)
    if max(rp_new, rd_new) <= max(rp_old, rd_old):
        return x_new, y_new
    return x, y


def solve_qp(H, q, C, l, u, x0=None, y0=None, options: SolverOptions | None = None) -> QPResult:
    """Run the splitting iteration on one box-constrained QP."""
    opts = options or SolverOptions()
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    C = np.asarray(C, dtype=float).reshape(-1, H.shape[0]) if np.size(C) else np.zeros((0, H.shape[0]))
    l = np.asarray(l, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    n, m = H.shape[0], C.shape[0]

    if m == 0:
        return _direct_solve(H, q, opts.qp_regularization)

    sigma = opts.qp_regularization
    alpha = opts.qp_relaxation
    eq_rows = np.abs(u - l) <= 1e-12

    def factor(rho_base: float):
        rho = np.full(m, rho_base)
        rho[eq_rows] = rho_base * _EQ_PENALTY_SCALE
        K = H + sigma * np.eye(n) + C.T @ (rho[:, None] * C)
        return rho, scipy.linalg.lu_factor(K, check_finite=False)

    rho_base = opts.qp_penalty
    rho, lu_piv = factor(rho_base)

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).copy()
    z = np.clip(C @ x, l, u)
    Hx = H @ x

    obj_hist = [float(0.5 * x @ Hx + q @ x)]
    step_hist = [0.0]
    converged = False
    termination = "max-iterations"
    it = 0
    for it in range(1, opts.qp_max_iterations + 1):
        rhs = sigma * x - q + C.T @ (rho * z - y)
        x_t = scipy.linalg.lu_solve(lu_piv, rhs, check_finite=False)
        z_t = C @ x_t

        x_new = alpha * x_t + (1.0 - alpha) * x
        z_relaxed = alpha * z_t + (1.0 - alpha) * z
        z_new = np.clip(z_relaxed + y / rho, l, u)
        y = y + rho * (z_relaxed - z_new)

        step = float(np.abs(x_new - x).max(initial=0.0))
        x, z = x_new, z_new
        Hx = H @ x
        obj_hist.append(float(0.5 * x @ Hx + q @ x))
        step_hist.append(step)

        if not np.all(np.isfinite(x)):
            termination = "nan"
            break

        Cx = C @ x
        Cty = C.T @ y
        r_prim = float(np.abs(Cx - z).max(initial=0.0))
        r_dual = float(np.abs(Hx + q + Cty).max(initial=0.0))
        eps_prim = opts.qp_absolute_tolerance + opts.qp_relative_tolerance * max(
            np.abs(Cx).max(initial=0.0), np.abs(z).max(initial=0.0)
        )
        eps_dual = opts.qp_absolute_tolerance + opts.qp_relative_tolerance * max(
            np.abs(Hx).max(initial=0.0),
            np.abs(Cty).max(initial=0.0),
            np.abs(q).max(initial=0.0),
        )
        if r_prim <= eps_prim and r_dual <= eps_dual:
            converged = True
            termination = "residual-tolerance"
            break

        # deterministic penalty adaptation: rebalance primal vs dual progress
        if it % _ADAPT_INTERVAL == 0:
            prim_scale = max(np.abs(Cx).max(initial=0.0), np.abs(z).max(initial=0.0), 1e-12)
            dual_scale = max(
                np.abs(Hx).max(initial=0.0),
                np.abs(Cty).max(initial=0.0),
                np.abs(q).max(initial=0.0),
                1e-12,
            )
            ratio = (r_prim / prim_scale) / max(r_dual / dual_scale, 1e-16)
            scale = float(np.sqrt(ratio))
            if scale > 5.0 or scale < 0.2:
                rho_base = float(np.clip(rho_base * scale, 1e-6, 1e6))
                rho, lu_piv = factor(rho_base)

    if converged:
        x, y = _polish(H, q, C, l, u, x, y)

    Cx = C @ x
    r_prim = float(np.maximum(np.maximum(l - Cx, Cx - u), 0.0).max(initial=0.0))
    r_dual = float(np.abs(H @ x + q + C.T @ y).max(initial=0.0))
    return QPResult(
        x=x,
        y=y,
        converged=converged,
        iterations=it,
        termination=termination,
        primal_residual=r_prim,
        dual_residual=r_dual,
        objective_history=np.asarray(obj_hist),
        step_history=np.asarray(step_hist),
    )


class OperatorSplittingQP(SolverAdapter):
    """Adapter for quadratic-cost problems with (at most) linear constraints."""

    accepts = frozenset(
        (ProblemClass.UNCONSTRAINED_QUADRATIC, ProblemClass.LINEAR_CONSTRAINED_QUADRATIC)
    )

    def initialize(self, problem, options: SolverOptions) -> None:
        self.problem = problem
        self.options = options
        self.multipliers = np.zeros(0)
        self._stats = Stats()

    def solve(self, x0, params):
        prob = self.problem
        zeros = np.zeros(prob.n_x)
        H = prob.hessian(zeros, params)
        q = prob.gradient(zeros, params)
        f0 = prob.objective(zeros, params)

        M, c = prob.lin_ineq(params)
        A, b = prob.lin_eq(params)
        C = np.vstack([M, A])
        lo = np.concatenate([-c, -b])
        hi = np.concatenate([np.full(M.shape[0], np.inf), -b])

        # warm-start the duals from the previous solve of this session, unless
        # it ended in NaN, which would make this solve stop at iteration 1 too
        y0 = self.multipliers
        if y0.size != C.shape[0] or not np.isfinite(y0).all():
            y0 = None
        result = solve_qp(H, q, C, lo, hi, x0=x0, y0=y0, options=self.options)
        self.converged = result.converged
        self.termination = result.termination
        self.multipliers = result.y
        self._stats = Stats(
            iterations=result.iterations,
            objective_history=result.objective_history + f0,
            step_norm_history=result.step_history,
        )
        return result.x

    def statistics(self) -> Stats:
        return self._stats
