"""Sequential quadratic programming with an l1 merit line search.

Each iteration linearizes the constraints, solves the QP subproblem
exactly with the dual active-set solver, warm-started from the previous
iteration's multipliers, and backtracks on the l1 merit function.  The
Lagrangian Hessian is modeled by damped BFGS, seeded from the exact cost
Hessian projected to be positive definite (for sum-of-squares costs near a
solution this coincides with a Gauss-Newton seed), so every subproblem is
strictly convex.  Only a subproblem the QP certifies infeasible is solved
again, with elastic slacks weighted by 1e3 times the current penalty.

Each point is evaluated once: the line search computes f and the rows at
every trial point, and the loop computes the derivatives at the accepted
one, then carries all of them into the next iteration.

The same loop serves two tags.  ``sqp`` accepts every problem;
``bfgs`` accepts only unconstrained ones, where the subproblem has no rows,
so each step is a damped-BFGS quasi-Newton step with Armijo backtracking
on f.
"""

from __future__ import annotations

import numpy as np

from ..problem import ProblemClass
from .base import SolverAdapter, SolverOptions, Stats
from .qp import solve_qp

__all__ = ["SQPSolver", "QuasiNewtonSolver", "damped_bfgs_update"]

_MIN_EIGENVALUE = 1e-6
_ELASTIC_WEIGHT = 1e3


def _psd_projection(H: np.ndarray, relative_floor: float = 1e-3) -> np.ndarray:
    """Clip the spectrum from below.

    The default floor scales with the largest eigenvalue so flat cost
    directions still give the QP subproblem workable curvature early on;
    a zero relative floor keeps the Hessian nearly exact for endgame
    (Newton-quality) steps.
    """
    n = H.shape[0]
    if not np.all(np.isfinite(H)):
        return np.eye(n)
    H = 0.5 * (H + H.T)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError:
        return np.eye(n)
    floor = max(_MIN_EIGENVALUE, relative_floor * float(w.max(initial=0.0)))
    w = np.clip(w, floor, None)
    return (V * w) @ V.T


def damped_bfgs_update(B: np.ndarray, s: np.ndarray, y: np.ndarray):
    """Powell-damped BFGS update; returns (B_new, ok).

    ``ok`` is False when even the damped curvature is unusable, in which
    case ``B`` is returned unchanged.
    """
    Bs = B @ s
    sBs = float(s @ Bs)
    sy = float(s @ y)
    if not np.isfinite(sBs) or not np.isfinite(sy) or sBs <= 1e-16:
        return B, False
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * Bs
        sy = float(s @ y)
    if sy <= 1e-14:
        return B, False
    B_new = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    return 0.5 * (B_new + B_new.T), True


def _kkt_residual(grad, C_in, r_in, C_eq, r_eq, lam, nu) -> float:
    """Max of stationarity, feasibility, and complementarity residuals.

    ``r_in >= 0`` and ``r_eq = 0`` are the constraint rows with Jacobians
    ``C_in`` and ``C_eq``; ``lam >= 0`` and ``nu`` are their multipliers.
    """
    stat = grad - C_in.T @ lam - C_eq.T @ nu
    if not np.all(np.isfinite(stat)):
        return np.inf
    feas = 0.0
    if r_eq.size:
        feas = max(feas, float(np.abs(r_eq).max()))
    if r_in.size:
        feas = max(feas, float(np.maximum(-r_in, 0.0).max()))
    comp = float(np.abs(lam * r_in).max(initial=0.0))
    return max(float(np.abs(stat).max(initial=0.0)), feas, comp)


class SQPSolver(SolverAdapter):
    """Adapter tag ``"sqp"``: accepts every problem classification."""

    accepts = None

    def initialize(self, problem, options: SolverOptions) -> None:
        self.problem = problem
        self.options = options
        self._stats = Stats()

    @staticmethod
    def _violation(kv, gv, av, hv) -> float:
        total = 0.0
        if av.size:
            total += float(np.abs(av).sum())
        if hv.size:
            total += float(np.abs(hv).sum())
        if kv.size:
            total += float(np.maximum(-kv, 0.0).sum())
        if gv.size:
            total += float(np.maximum(-gv, 0.0).sum())
        return total

    # evaluation ------------------------------------------------------------
    def _values(self, x, params, M, c, A, b):
        """The objective and the stacked inequality and equality rows at x."""
        prob = self.problem
        f = prob.objective(x, params)
        r_in = np.concatenate([M @ x + c, prob.nonlin_ineq(x, params)])
        r_eq = np.concatenate([A @ x + b, prob.nonlin_eq(x, params)])
        return f, r_in, r_eq

    def _derivatives(self, x, params, M, A):
        """The cost gradient and the stacked row Jacobians at x."""
        prob = self.problem
        grad = prob.gradient(x, params)
        C_in = np.vstack([M, prob.nonlin_ineq_jacobian(x, params)])
        C_eq = np.vstack([A, prob.nonlin_eq_jacobian(x, params)])
        return grad, C_in, C_eq

    # subproblem ----------------------------------------------------------
    def _subproblem(self, B, grad, C_in, r_in, C_eq, r_eq, y0, mu):
        """QP step: min 0.5 d'Bd + grad'd  s.t. C_in d >= -r_in, C_eq d = -r_eq.

        Falls back to an elastic (slack-relaxed) formulation only when the
        plain subproblem is certified infeasible.
        """
        opts = self.options
        n = B.shape[0]
        m_in, m_eq = C_in.shape[0], C_eq.shape[0]
        C = np.vstack([C_in, C_eq]) if m_in + m_eq else np.zeros((0, n))
        lo = np.concatenate([-r_in, -r_eq])
        hi = np.concatenate([np.full(m_in, np.inf), -r_eq])

        res = solve_qp(B, grad, C, lo, hi, y0=y0, options=opts)
        if res.termination != "infeasible":
            return res.x, res.y, False

        # Elastic retry: one slack per inequality row, a split pair per
        # equality row, all nonnegative and priced into the objective; the
        # slacks' small curvature keeps the QP strictly convex.
        w = _ELASTIC_WEIGHT * max(mu, 1.0)
        n_aug = n + m_in + 2 * m_eq
        H_aug = _MIN_EIGENVALUE * np.eye(n_aug)
        H_aug[:n, :n] = B
        q_aug = np.concatenate([grad, np.full(m_in + 2 * m_eq, w)])

        rows = m_in + m_eq + (m_in + 2 * m_eq)
        C_aug = np.zeros((rows, n_aug))
        lo_aug = np.empty(rows)
        hi_aug = np.empty(rows)
        r = 0
        if m_in:
            C_aug[r : r + m_in, :n] = C_in
            C_aug[r : r + m_in, n : n + m_in] = np.eye(m_in)
            lo_aug[r : r + m_in] = -r_in
            hi_aug[r : r + m_in] = np.inf
            r += m_in
        if m_eq:
            C_aug[r : r + m_eq, :n] = C_eq
            C_aug[r : r + m_eq, n + m_in : n + m_in + m_eq] = -np.eye(m_eq)
            C_aug[r : r + m_eq, n + m_in + m_eq :] = np.eye(m_eq)
            lo_aug[r : r + m_eq] = -r_eq
            hi_aug[r : r + m_eq] = -r_eq
            r += m_eq
        n_slack = m_in + 2 * m_eq
        C_aug[r :, n:] = np.eye(n_slack)
        lo_aug[r:] = 0.0
        hi_aug[r:] = np.inf

        res = solve_qp(H_aug, q_aug, C_aug, lo_aug, hi_aug, options=opts)
        return res.x[:n], res.y[: m_in + m_eq], True

    # main loop -------------------------------------------------------------
    def solve(self, x0, params):
        prob, opts = self.problem, self.options
        n = prob.n_x
        x = np.asarray(x0, dtype=float).copy()

        M, c = prob.lin_ineq(params)
        A, b = prob.lin_eq(params)
        n_k, n_a = M.shape[0], A.shape[0]
        m_in, m_eq = n_k + prob.n_g, n_a + prob.n_h

        def violation(r_in, r_eq):
            return self._violation(r_in[:n_k], r_in[n_k:], r_eq[:n_a], r_eq[n_a:])

        def merit(f_x, r_in_x, r_eq_x):
            """The l1 merit at the current penalty; inf where f is not finite."""
            if not np.isfinite(f_x):
                return np.inf
            return f_x + mu * violation(r_in_x, r_eq_x)

        B = _psd_projection(prob.hessian(x, params))
        lam = np.zeros(m_in)  # inequality multipliers, >= 0
        nu = np.zeros(m_eq)  # equality multipliers
        mu = 1.0

        # these six always hold the values at x: the line search supplies
        # f and the rows at the accepted point, and the derivatives there
        # are evaluated once, for the BFGS update
        f, r_in, r_eq = self._values(x, params, M, c, A, b)
        grad, C_in, C_eq = self._derivatives(x, params, M, A)
        obj_hist = [f]
        step_hist = [0.0]
        self.converged = False
        self.termination = "max-iterations"

        y_prev = np.zeros(m_in + m_eq)
        ls_failures = 0
        bad_updates = 0

        it = 0
        for it in range(1, opts.max_iterations + 1):
            pieces = [f, grad, C_in, r_in, C_eq, r_eq]
            if not all(np.all(np.isfinite(np.atleast_1d(p))) for p in pieces):
                self.termination = "nan"
                it -= 1
                break

            kkt = _kkt_residual(grad, C_in, r_in, C_eq, r_eq, lam, nu)
            if kkt <= opts.constraint_tolerance:
                self.converged = True
                self.termination = "kkt-tolerance"
                it -= 1
                break

            d, y, elastic = self._subproblem(B, grad, C_in, r_in, C_eq, r_eq, y_prev, mu)
            if not np.all(np.isfinite(d)):
                self.termination = "nan"
                it -= 1
                break
            y_prev = y

            lam = np.maximum(-y[:m_in], 0.0)
            nu = -y[m_in:]

            # elastic multipliers carry the slack pricing; do not let them
            # inflate the merit penalty
            if not elastic:
                lam_norm = max(
                    float(np.abs(lam).max(initial=0.0)), float(np.abs(nu).max(initial=0.0))
                )
                if mu <= lam_norm:
                    mu = 2.0 * lam_norm + 1.0

            viol0 = violation(r_in, r_eq)
            merit0 = f + mu * viol0
            slope = float(grad @ d) - mu * viol0

            alpha = 1.0
            trial = self._values(x + alpha * d, params, M, c, A, b)
            merit_new = merit(*trial)
            accepted = False
            for _ in range(opts.max_backtracks):
                if np.isfinite(merit_new) and (
                    merit_new <= merit0 + opts.armijo_coeff * alpha * min(slope, 0.0)
                ):
                    accepted = True
                    break
                alpha *= opts.backtrack_factor
                trial = self._values(x + alpha * d, params, M, c, A, b)
                merit_new = merit(*trial)

            if not accepted and not (np.isfinite(merit_new) and merit_new < merit0):
                # no step length makes progress: swap in the (nearly) exact
                # cost Hessian once, then declare a stall at the best point
                ls_failures += 1
                if ls_failures < 2:
                    B = _psd_projection(prob.hessian(x, params), relative_floor=0.0)
                    obj_hist.append(f)
                    step_hist.append(0.0)
                    continue
                self.converged = kkt <= opts.constraint_tolerance
                self.termination = "line-search-failure"
                obj_hist.append(f)
                step_hist.append(0.0)
                break
            ls_failures = 0

            x_new = x + alpha * d
            s = x_new - x

            # BFGS on the Lagrangian gradient with the fresh multipliers
            gL_old = grad - C_in.T @ lam - C_eq.T @ nu
            grad, C_in, C_eq = self._derivatives(x_new, params, M, A)
            yv = grad - C_in.T @ lam - C_eq.T @ nu - gL_old

            B, ok = damped_bfgs_update(B, s, yv)
            if ok:
                bad_updates = 0
            else:
                bad_updates += 1
                if bad_updates >= 2:
                    B = np.eye(n)
                    bad_updates = 0

            step = float(np.abs(s).max(initial=0.0))
            x = x_new
            f, r_in, r_eq = trial
            obj_hist.append(f)
            step_hist.append(step)

            if step <= opts.step_tolerance:
                # the iteration is stationary; certify the final point
                kkt = _kkt_residual(grad, C_in, r_in, C_eq, r_eq, lam, nu)
                if kkt > opts.constraint_tolerance and ls_failures < 2:
                    # one endgame retry with near-exact curvature
                    ls_failures += 1
                    B = _psd_projection(prob.hessian(x, params), relative_floor=0.0)
                    continue
                self.converged = kkt <= opts.constraint_tolerance
                self.termination = "step-tolerance"
                break

        self._stats = Stats(
            iterations=it,
            objective_history=np.asarray(obj_hist),
            step_norm_history=np.asarray(step_hist),
        )
        return x

    def statistics(self) -> Stats:
        return self._stats


class QuasiNewtonSolver(SQPSolver):
    """Adapter tag ``"bfgs"``: the SQP loop, for unconstrained problems only."""

    accepts = frozenset(
        (ProblemClass.UNCONSTRAINED_QUADRATIC, ProblemClass.UNCONSTRAINED_NONLINEAR)
    )
