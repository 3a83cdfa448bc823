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

The linear equality rows A depend only on the parameters, so each solve
checks that A has the bytes of the last one and otherwise factors it
anew (``qp._NullSpace``, a pivoted QR of A').  Every plain subproblem
gets that basis and eliminates the a rows with it, so no QP factors them
again; the elastic retry keeps them as rows.

The k rows that bound one variable (``Problem._bounds``) go to the QP as
bounds on the step, not as rows: a point's values of them are one gather,
``coef * x[col] + c``, and the QP gets ``lb``/``ub`` on d from them, the
tightest where a variable has several rows on one side.  A bound
multiplier goes back to the row that set it, divided by its coefficient,
and enters the merit penalty, the KKT test and the BFGS Lagrangian
gradient through one scatter-add over the bound columns.  The elastic
retry alone states every k row as a row, with its own slack.

Each point is evaluated once: the line search computes f and the rows at
every trial point, and the loop computes the derivatives at the accepted
one, then carries all of them into the next iteration.  The BFGS update
of an accepted step is made only once the KKT test at its end fails, so a
step that converges pays for none; the values at the last point are
handed back as ``last_point`` for the solution's report.

The same loop serves two tags.  ``sqp`` accepts every problem;
``bfgs`` accepts only unconstrained ones, where the subproblem has no rows,
so each step is a damped-BFGS quasi-Newton step with Armijo backtracking
on f.
"""

from __future__ import annotations

import numpy as np

from ..problem import ProblemClass
from .base import SolverAdapter, SolverOptions, Stats
from .qp import _NullSpace, _qp_rows, solve_qp

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


def _damped_pair(B: np.ndarray, s: np.ndarray, y: np.ndarray):
    """``(Bs, sBs, y, sy)`` of Powell's damped BFGS pair, or None when even
    the damped curvature is unusable."""
    Bs = B @ s
    sBs = float(s @ Bs)
    sy = float(s @ y)
    if not np.isfinite(sBs) or not np.isfinite(sy) or sBs <= 1e-16:
        return None
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * Bs
        sy = float(s @ y)
    if sy <= 1e-14:
        return None
    return Bs, sBs, y, sy


def damped_bfgs_update(B: np.ndarray, s: np.ndarray, y: np.ndarray):
    """Powell-damped BFGS update; returns (B_new, ok).

    ``ok`` is False when even the damped curvature is unusable, in which
    case ``B`` is returned unchanged.
    """
    pair = _damped_pair(B, s, y)
    if pair is None:
        return B, False
    Bs, sBs, y, sy = pair
    B_new = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    return 0.5 * (B_new + B_new.T), True


def _kkt_residual(gL, r_in, r_eq, lam) -> float:
    """Max of stationarity, feasibility, and complementarity residuals.

    ``gL`` is the Lagrangian gradient; ``r_in >= 0`` and ``r_eq = 0`` are
    the constraint rows, and ``lam >= 0`` the multipliers of ``r_in``.
    """
    if not np.isfinite(gL).all():
        return np.inf
    feas = 0.0
    if r_eq.size:
        feas = max(feas, float(np.abs(r_eq).max()))
    if r_in.size:
        feas = max(feas, float(np.maximum(-r_in, 0.0).max()))
    comp = float(np.abs(lam * r_in).max(initial=0.0))
    return max(float(np.abs(gL).max(initial=0.0)), feas, comp)


class _BoundRows:
    """Where the k rows that bound one variable sit among a session's rows.

    ``rows``/``cols``/``coefs`` are :attr:`Problem._bounds`: k row
    ``rows[i]`` is ``coefs[i] * x[cols[i]] + c``.  The inequality rows are
    stacked ``[k; g]`` and the multipliers ``[k; g; a; h]``; ``general``
    indexes the inequality rows that are not bounds, and ``warm`` the
    multipliers of the QP's rows (``general``, then the equalities).  Every
    array is fixed for the session, so a point costs gathers and no 2n x n
    product.
    """

    def __init__(self, bounds, n_k: int, n_g: int, m_eq: int):
        self.rows, self.cols, self.coefs = bounds
        m_in = n_k + n_g
        is_bound = np.zeros(m_in, dtype=bool)
        is_bound[self.rows] = True
        self.general_k = np.flatnonzero(~is_bound[:n_k])
        self.only = self.general_k.size == 0  # then rows is 0..n_k-1
        self.general = np.flatnonzero(~is_bound)
        self.warm = np.concatenate([self.general, np.arange(m_in, m_in + m_eq)])
        lower = self.coefs > 0.0
        # per side: positions in the triple, their columns, and whether no
        # column has two rows on that side
        self.sides = []
        for mask in (lower, ~lower):
            at = np.flatnonzero(mask)
            cols = self.cols[at]
            self.sides.append((at, cols, np.bincount(cols).max(initial=0) <= 1))

    def k(self, x, M, c):
        """The k rows at x; ``M`` holds only the general k rows of M."""
        if self.only:
            return self.coefs * x[self.cols] + c
        k = np.empty(c.size)
        k[self.rows] = self.coefs * x[self.cols] + c[self.rows]
        k[self.general_k] = M @ x + c[self.general_k]
        return k

    def qp_bounds(self, t, n):
        """``(lb, ub)`` on d from ``t``, where each bound row holds with equality.

        A variable with several rows on one side takes the tightest.
        """
        if self.rows.size == 0:
            return None, None
        limits = []
        for (at, cols, once), fill, tighter in zip(
            self.sides, (-np.inf, np.inf), (np.maximum, np.minimum)
        ):
            limit = np.full(n, fill)
            if once:
                limit[cols] = t[at]
            else:
                tighter.at(limit, cols, t[at])
            limits.append(limit)
        return tuple(limits)

    def row_multipliers(self, z, t, lb, ub):
        """Row-form multipliers of the bound rows from the QP's bound multipliers ``z``.

        Each nonzero ``z_j`` goes to the row that sets the active side of
        ``x_j`` (the first, on a tie), divided by that row's coefficient.
        """
        y = np.zeros(self.rows.size)
        if not z.any():
            return y
        for (at, cols, once), limit, sign in zip(self.sides, (lb, ub), (-1.0, 1.0)):
            zc = z[cols]
            hit = sign * zc > 0.0  # z < 0 on an active lower side, z > 0 on an upper one
            if not once:
                hit &= t[at] == limit[cols]
                first = np.unique(cols[hit], return_index=True)[1]
                hit = np.flatnonzero(hit)[first]
            y[at[hit]] = zc[hit] / self.coefs[at[hit]]
        return y

    def lagrangian_gradient(self, grad, C_in, C_eq, lam, nu):
        """``grad - C'lam - C_eq'nu``; the bound rows' share is one scatter-add over their columns.

        ``C_in`` holds the general inequality rows and ``lam`` every inequality multiplier.
        """
        gL = grad - C_in.T @ lam[self.general] - C_eq.T @ nu
        lam_b = lam[self.rows]
        if lam_b.any():
            gL -= np.bincount(self.cols, self.coefs * lam_b, minlength=gL.size)
        return gL

    def dense(self, C_in, n):
        """The whole inequality Jacobian ``[M; Jg]`` from its general rows ``C_in``."""
        C = np.zeros((self.general.size + self.rows.size, n))
        C[self.rows, self.cols] = self.coefs
        C[self.general] = C_in
        return C


class SQPSolver(SolverAdapter):
    """Adapter tag ``"sqp"``: accepts every problem classification."""

    accepts = None

    def initialize(self, problem, options: SolverOptions) -> None:
        self.problem = problem
        self.options = options
        self._stats = Stats()
        # _block_positions of the cost Hessian and the _BoundRows, on the first solve
        self._blocks = None
        self._bound_rows = None
        # the _NullSpace of the a rows, built on the first solve and again
        # whenever A changes
        self._null_space = None

    # evaluation ------------------------------------------------------------
    def _values(self, x, params, M, c, A, b):
        """The objective and the stacked inequality and equality rows at x.

        ``M`` holds only the general k rows; the bound rows are gathered.
        """
        prob = self.problem
        f = prob.objective(x, params)
        r_in = np.concatenate([self._bound_rows.k(x, M, c), prob.nonlin_ineq(x, params)])
        r_eq = np.concatenate([A @ x + b, prob.nonlin_eq(x, params)])
        return f, r_in, r_eq

    def _derivatives(self, x, params, M, A):
        """The cost gradient and the Jacobians of the general inequality and the equality rows at x."""
        prob = self.problem
        grad = prob.gradient(x, params)
        C_in = np.vstack([M, prob.nonlin_ineq_jacobian(x, params)]) if prob.n_g else M
        C_eq = np.vstack([A, prob.nonlin_eq_jacobian(x, params)]) if prob.n_h else A
        return grad, C_in, C_eq

    # subproblem ----------------------------------------------------------
    def _subproblem(self, B, grad, C_in, r_in, C_eq, r_eq, y0, mu):
        """QP step: min 0.5 d'Bd + grad'd  s.t. r_in + J_in d >= 0, C_eq d = -r_eq.

        The bound rows of ``r_in`` go to the QP as bounds on d, and ``C_in``
        holds the Jacobian of the others (``_BoundRows.general``).  ``y0``
        and the returned multipliers cover the rows ``[k; g; a; h]``.
        Falls back to an elastic (slack-relaxed) formulation only when the
        plain subproblem is certified infeasible.
        """
        opts = self.options
        rows = self._bound_rows
        n = B.shape[0]
        m_in, m_eq = r_in.size, C_eq.shape[0]
        t = -r_in[rows.rows] / rows.coefs
        lb, ub = rows.qp_bounds(t, n)
        res = solve_qp(
            B,
            grad,
            *_qp_rows(C_in, r_in[rows.general], C_eq, r_eq),
            y0=y0[rows.warm],
            options=opts,
            lb=lb,
            ub=ub,
            _null_space=self._null_space,
        )
        if res.termination != "infeasible":
            y = np.zeros(m_in + m_eq)
            y[rows.warm] = res.y
            y[rows.rows] = rows.row_multipliers(res.z, t, lb, ub)
            return res.x, y, False

        # Elastic retry: one slack per inequality row, bound rows included,
        # a split pair per equality row, all nonnegative and priced into the
        # objective; the slacks' small curvature keeps the QP strictly convex.
        C_in = rows.dense(C_in, n)
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

    def _update_null_space(self, A):
        """Keep ``_null_space`` a basis of this A: built when A's bytes differ from its own.

        The a rows sit after the general inequality rows in the QP's C.
        Without a rows, or with a non-finite A, there is none.
        """
        ns = self._null_space
        if A.shape[0] == 0 or not np.isfinite(A).all():
            self._null_space = None
        elif ns is None or not np.array_equal(ns.A.view(np.uint64), A.view(np.uint64)):
            self._null_space = _NullSpace(A, self._bound_rows.general.size)

    # main loop -------------------------------------------------------------
    def solve(self, x0, params):
        prob, opts = self.problem, self.options
        n = prob.n_x
        m_in, m_eq = prob.n_k + prob.n_g, prob.n_a + prob.n_h
        if self._blocks is None:
            self._blocks = _block_positions(prob.hessian_blocks, n)
            self._bound_rows = _BoundRows(prob._bounds, prob.n_k, prob.n_g, m_eq)
        blocks, rows = self._blocks, self._bound_rows
        x = np.asarray(x0, dtype=float).copy()

        M, c = prob._lin_ineq_general(params)
        A, b = prob.lin_eq(params)
        self._update_null_space(A)

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
        # are evaluated once, for the KKT test and the BFGS update
        f, r_in, r_eq = self._values(x, params, M, c, A, b)
        grad, C_in, C_eq = self._derivatives(x, params, M, A)
        obj_hist = [f]
        step_hist = [0.0]
        self.converged = False
        self.termination = "max-iterations"

        y_prev = np.zeros(m_in + m_eq)
        ls_failures = 0
        bad_updates = 0
        # the BFGS update of the last accepted step, (s, derivatives at its
        # start), applied only once the KKT test at its end fails
        pending = None

        def count_update(ok):
            """Track unusable updates; True when two in a row call for a reset of B."""
            nonlocal bad_updates
            bad_updates = 0 if ok else bad_updates + 1
            if bad_updates >= 2:
                bad_updates = 0
                return True
            return False

        it = 0
        for it in range(1, opts.max_iterations + 1):
            finite = (
                np.isfinite(f)
                and np.isfinite(grad).all()
                and np.isfinite(C_in).all()
                and np.isfinite(r_in).all()
                and np.isfinite(C_eq).all()
                and np.isfinite(r_eq).all()
            )
            if not finite:
                self.termination = "nan"
                it -= 1
                break

            gL = rows.lagrangian_gradient(grad, C_in, C_eq, lam, nu)
            kkt = _kkt_residual(gL, r_in, r_eq, lam)
            if kkt <= opts.constraint_tolerance:
                self.converged = True
                self.termination = "kkt-tolerance"
                it -= 1
                break

            if pending is not None:
                # BFGS on the Lagrangian gradient with the fresh multipliers
                s, old = pending
                pending = None
                B, ok = damped_bfgs_update(B, s, gL - rows.lagrangian_gradient(*old, lam, nu))
                if count_update(ok):
                    B = np.eye(n)

            d, y, elastic = self._subproblem(B, grad, C_in, r_in, C_eq, r_eq, y_prev, mu)
            if not np.isfinite(d).all():
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
            pending = (s, (grad, C_in, C_eq))
            grad, C_in, C_eq = self._derivatives(x_new, params, M, A)

            step = float(np.abs(s).max(initial=0.0))
            x = x_new
            f, r_in, r_eq = trial
            obj_hist.append(f)
            step_hist.append(step)

            if step <= opts.step_tolerance:
                # the iteration is stationary; certify the final point
                gL = rows.lagrangian_gradient(grad, C_in, C_eq, lam, nu)
                kkt = _kkt_residual(gL, r_in, r_eq, lam)
                if kkt > opts.constraint_tolerance and ls_failures < 2:
                    # one endgame retry with near-exact curvature, in place
                    # of the pending update; its curvature test still counts
                    # toward the reset, as when the update was made first
                    old = pending[1]
                    pending = None
                    count_update(
                        _damped_pair(B, s, gL - rows.lagrangian_gradient(*old, lam, nu))
                        is not None
                    )
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
        self.last_point = (x, f, r_in, r_eq)
        return x

    def statistics(self) -> Stats:
        return self._stats


class QuasiNewtonSolver(SQPSolver):
    """Adapter tag ``"bfgs"``: the SQP loop, for unconstrained problems only."""

    accepts = frozenset(
        (ProblemClass.UNCONSTRAINED_QUADRATIC, ProblemClass.UNCONSTRAINED_NONLINEAR)
    )
