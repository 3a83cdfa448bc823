"""Sequential quadratic programming with an l1 merit line search.

Each iteration linearizes the constraints, solves the QP subproblem
exactly with the dual active-set solver, warm-started from the previous
iteration's multipliers, and backtracks on the l1 merit function.  The
Lagrangian Hessian is modeled by damped BFGS, seeded from the exact cost
Hessian projected to be positive definite (for sum-of-squares costs near a
solution this coincides with a Gauss-Newton seed), so every subproblem is
strictly convex.  The projection works on the diagonal blocks of the cost
Hessian's structure (``Problem.hessian_blocks``), one small
eigendecomposition per block, so for a stage-wise cost it grows linearly
with the horizon rather than with the cube of n.  Only a subproblem the QP
certifies infeasible is solved again, with elastic slacks weighted by 1e3
times the current penalty.

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
from .qp import _qp_rows, solve_qp

__all__ = ["SQPSolver", "QuasiNewtonSolver", "damped_bfgs_update"]

_MIN_EIGENVALUE = 1e-6
_ELASTIC_WEIGHT = 1e3


def _block_positions(blocks, n: int) -> tuple[np.ndarray, ...]:
    """Flat positions in an n x n matrix of each size group of ``blocks``.

    ``blocks`` is laid out as :attr:`Problem.hessian_blocks`: one int array
    per block size, a block's columns per row.  A group of k blocks of size
    b gives a (k, b, b) array.
    """
    return tuple(block[:, :, None] * n + block[:, None, :] for block in blocks)


def _psd_projection(H: np.ndarray, blocks, relative_floor: float = 1e-3) -> np.ndarray:
    """Clip the spectrum from below, one diagonal block at a time.

    ``blocks`` are the :func:`_block_positions` of a partition of H's
    columns into blocks that no entry of H couples.  Each block size is
    decomposed by one batched ``eigh``, and 1 x 1 blocks are clipped
    directly, so the cost grows with the blocks, not with n; the spectrum
    of H is the union of theirs.  With one block this is the projection of
    the whole matrix, to the byte.

    The default floor scales with the largest eigenvalue of H so flat cost
    directions still give the QP subproblem workable curvature early on;
    a zero relative floor keeps the Hessian nearly exact for endgame
    (Newton-quality) steps.
    """
    n = H.shape[0]
    if not np.isfinite(H).all():
        return np.eye(n)
    spectra = []  # (positions, eigenvalues, eigenvectors or None for 1 x 1 blocks)
    try:
        for at in blocks:
            if at.shape[-1] == 1:
                spectra.append((at, H.take(at), None))
                continue
            Hb = H.take(at)
            w, V = np.linalg.eigh(0.5 * (Hb + Hb.transpose(0, 2, 1)))
            spectra.append((at, w, V))
    except np.linalg.LinAlgError:
        return np.eye(n)
    top = max([w.max() for _, w, _ in spectra], default=0.0)
    floor = max(_MIN_EIGENVALUE, relative_floor * float(top))
    B = np.zeros((n, n))
    for at, w, V in spectra:
        w = np.maximum(w, floor)
        B.put(at, w if V is None else (V * w[..., None, :]) @ V.transpose(0, 2, 1))
    return B


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
        self._blocks = None  # _block_positions of the cost Hessian, on the first solve

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
        res = solve_qp(B, grad, *_qp_rows(C_in, r_in, C_eq, r_eq), y0=y0, options=opts)
        if res.termination != "infeasible":
            return res.x, res.y, False

        # Elastic retry: one slack per inequality row, a split pair per
        # equality row, all nonnegative and priced into the objective; the
        # slacks' small curvature keeps the QP strictly convex.
        w = _ELASTIC_WEIGHT * max(mu, 1.0)
        n_slack = m_in + 2 * m_eq
        H_aug = _MIN_EIGENVALUE * np.eye(n + n_slack)
        H_aug[:n, :n] = B
        q_aug = np.concatenate([grad, np.full(n_slack, w)])
        # over (d, slacks): the rows [C_in, I, 0] + r_in >= 0 with the slack
        # bounds [0, I] >= 0, and the rows [C_eq, 0, -I, I] + r_eq = 0
        I_in, I_eq = np.eye(m_in, n_slack), np.eye(m_eq)
        C_in_aug = np.block([[C_in, I_in], [np.zeros((n_slack, n)), np.eye(n_slack)]])
        r_in_aug = np.concatenate([r_in, np.zeros(n_slack)])
        C_eq_aug = np.hstack([C_eq, np.zeros((m_eq, m_in)), -I_eq, I_eq])

        res = solve_qp(H_aug, q_aug, *_qp_rows(C_in_aug, r_in_aug, C_eq_aug, r_eq), options=opts)
        return res.x[:n], np.concatenate([res.y[:m_in], res.y[m_in + n_slack :]]), True

    # main loop -------------------------------------------------------------
    def solve(self, x0, params):
        prob, opts = self.problem, self.options
        n = prob.n_x
        if self._blocks is None:
            self._blocks = _block_positions(prob.hessian_blocks, n)
        blocks = self._blocks
        x = np.asarray(x0, dtype=float).copy()

        M, c = prob.lin_ineq(params)
        A, b = prob.lin_eq(params)
        m_in, m_eq = prob.n_k + prob.n_g, prob.n_a + prob.n_h

        def violation(r_in, r_eq):
            return float(np.abs(r_eq).sum()) + float(np.maximum(-r_in, 0.0).sum())

        def merit(f_x, r_in_x, r_eq_x):
            """The l1 merit at the current penalty; inf where f is not finite."""
            if not np.isfinite(f_x):
                return np.inf
            return f_x + mu * violation(r_in_x, r_eq_x)

        B = _psd_projection(prob.hessian(x, params), blocks)
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
                    B = _psd_projection(prob.hessian(x, params), blocks, relative_floor=0.0)
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
                    B = _psd_projection(prob.hessian(x, params), blocks, relative_floor=0.0)
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
