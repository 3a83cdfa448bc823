"""Sequential quadratic programming with an l1 merit line search.

Each iteration linearizes the constraints, solves the QP subproblem
exactly with the dual active-set solver, warm-started from the previous
iteration's multipliers, and backtracks on the l1 merit function.

The QP's curvature B is the Gauss-Newton matrix G of the cost's
residuals.  :class:`~taskopt.problem.Problem` splits a least-squares cost
into weighted residuals, ``f = sum c r**2 + f_rest``, and hands back
``G = 2 J'CJ`` block by block on :attr:`Problem.hessian_blocks`; it is
positive semidefinite by construction, as in constrained Gauss-Newton
(Bock 1983) and the least-squares MPC costs of acados.  G leaves out the
residuals' own curvature, ``sum c r ∇²r``, which only a residual that
stays large at the solution makes matter.  Each accepted step s tells
both: when the cost gradient's change along s departs from ``s'Gs`` by
at least ``s'Gs``, Gauss-Newton does not contract along s, and when f
also fell by less than a fifth the residual is not vanishing (the hybrid
test of Fletcher & Xu 1987).  Then the next QP's B is G plus ∇²f - G with
the spectrum of each block clipped from below (:func:`_psd_projection`);
a cost whose rest has second derivatives always takes that B.  B is
formed only where a QP follows, at a point whose KKT test failed, from the
residual Jacobian the gradient there already evaluated.  A B that is
singular off the null space of the equality rows goes through the QP's
proximal passes.  The curvature of the constraint rows is not modelled.
Only a subproblem the QP certifies infeasible is solved again, with
elastic slacks weighted by 1e3 times the current penalty.

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
and enters the merit penalty and the KKT test through one scatter-add
over the bound columns.  The elastic retry alone states every k row as a
row, with its own slack, and its slacks >= 0 as ``lb``.

Each point is evaluated once: the line search computes f and the rows at
every trial point, and the loop computes the derivatives at the accepted
one, then carries all of them into the next iteration; the values at the
last point are handed back as ``last_point`` for the solution's report.

The same loop serves two tags.  ``sqp`` accepts every problem;
``bfgs`` keeps its name and accepts only unconstrained ones, where the
subproblem has no rows, so each step minimises the model above with
Armijo backtracking on f; it runs no BFGS update.
"""

from __future__ import annotations

import numpy as np

from ..problem import ProblemClass
from .base import SolverAdapter, SolverOptions, Stats
from .qp import _NullSpace, _qp_rows, solve_qp

__all__ = ["SQPSolver", "QuasiNewtonSolver"]

_MIN_EIGENVALUE = 1e-6
# the projection's floor on each eigenvalue, relative to the largest one
_RELATIVE_FLOOR = 1e-3
_ELASTIC_WEIGHT = 1e3
# a step that lowers f by less than this share of it marks a residual that
# does not vanish (Fletcher & Xu 1987)
_LARGE_RESIDUAL = 0.2


def _block_positions(blocks, n: int) -> tuple[np.ndarray, ...]:
    """Flat positions in an n x n matrix of each size group of ``blocks``.

    ``blocks`` is laid out as :attr:`Problem.hessian_blocks`: one int array
    per block size, a block's columns per row.  A group of k blocks of size
    b gives a (k, b, b) array.
    """
    return tuple(block[:, :, None] * n + block[:, None, :] for block in blocks)


def _psd_projection(H: np.ndarray, blocks) -> np.ndarray:
    """Clip the spectrum from below, one diagonal block at a time.

    ``blocks`` are the :func:`_block_positions` of a partition of H's
    columns into blocks that no entry of H couples.  Each block size is
    decomposed by one batched ``eigh``, and 1 x 1 blocks are clipped
    directly, so the cost grows with the blocks, not with n; the spectrum
    of H is the union of theirs.  With one block this is the projection of
    the whole matrix, to the byte.

    The floor scales with the largest eigenvalue of H
    (``_RELATIVE_FLOOR``), and is at least ``_MIN_EIGENVALUE``, so flat
    cost directions still give the QP subproblem workable curvature.
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
    floor = max(_MIN_EIGENVALUE, _RELATIVE_FLOOR * float(top))
    B = np.zeros((n, n))
    for at, w, V in spectra:
        w = np.maximum(w, floor)
        B.put(at, w if V is None else (V * w[..., None, :]) @ V.transpose(0, 2, 1))
    return B


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
        # _block_positions of Problem.hessian_blocks and the _BoundRows, on the first solve
        self._blocks = None
        self._bound_rows = None
        # the _NullSpace of the a rows, built on the first solve and again
        # whenever A changes
        self._null_space = None

    # evaluation ------------------------------------------------------------
    def _values(self, x, params, M, c, A, b):
        """The objective and the stacked inequality and equality rows at x.

        ``M`` holds only the general k rows; ``Problem._k`` gathers the bound rows.
        """
        prob = self.problem
        f = prob.objective(x, params)
        r_in = np.concatenate([prob._k(x, M, c), prob.nonlin_ineq(x, params)])
        r_eq = np.concatenate([A @ x + b, prob.nonlin_eq(x, params)])
        return f, r_in, r_eq

    def _derivatives(self, x, params, M, A):
        """The cost gradient and the Jacobians of the general inequality and the equality rows at x."""
        prob = self.problem
        grad = prob.gradient(x, params)
        C_in = np.vstack([M, prob.nonlin_ineq_jacobian(x, params)]) if prob.n_g else M
        C_eq = np.vstack([A, prob.nonlin_eq_jacobian(x, params)]) if prob.n_h else A
        return grad, C_in, C_eq

    def _curvature(self, x, params, exact):
        """The QP's B at x and ``G = 2 J'CJ`` of the residuals, put block by block.

        B is G, plus, when ``exact``, ∇²f - G projected per block.
        """
        prob, blocks = self.problem, self._blocks
        G = np.zeros((prob.n_x, prob.n_x))
        for at, values in zip(blocks, prob._gauss_newton(x, params)):
            G.put(at, values)
        if not exact:
            return G, G
        return G + _psd_projection(prob.hessian(x, params) - G, blocks), G

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
        w = _ELASTIC_WEIGHT * max(mu, 1.0)
        n_slack = m_in + 2 * m_eq
        H_aug = _MIN_EIGENVALUE * np.eye(n + n_slack)
        H_aug[:n, :n] = B
        q_aug = np.concatenate([grad, np.full(n_slack, w)])
        # over (d, slacks): the rows [C_in, I, 0] + r_in >= 0 and
        # [C_eq, 0, -I, I] + r_eq = 0, with the slacks >= 0 as lb
        I_eq = np.eye(m_eq)
        C_in_aug = np.hstack([rows.dense(C_in, n), np.eye(m_in, n_slack)])
        C_eq_aug = np.hstack([C_eq, np.zeros((m_eq, m_in)), -I_eq, I_eq])
        lb = np.concatenate([np.full(n, -np.inf), np.zeros(n_slack)])

        res = solve_qp(H_aug, q_aug, *_qp_rows(C_in_aug, r_in, C_eq_aug, r_eq), options=opts, lb=lb)
        return res.x[:n], res.y, True

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
        rows = self._bound_rows
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

        lam = np.zeros(m_in)  # inequality multipliers, >= 0
        nu = np.zeros(m_eq)  # equality multipliers
        mu = 1.0

        # these six always hold the values at x: the line search supplies
        # f and the rows at the accepted point, and the derivatives there
        # are evaluated once, for the KKT test and, when it fails, the next QP
        f, r_in, r_eq = self._values(x, params, M, c, A, b)
        grad, C_in, C_eq = self._derivatives(x, params, M, A)
        obj_hist = [f]
        step_hist = [0.0]
        self.converged = False
        self.termination = "max-iterations"

        y_prev = np.zeros(m_in + m_eq)
        # whether B takes ∇²f as well as G, and the last step with the cost
        # gradient's change along it and f at its start
        exact = prob._rest_curved
        secant = None
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

            if secant is not None:
                # G leaves out sum c r ∇²r.  Where the last step met at least
                # as much of that curvature as of G's, Gauss-Newton does not
                # contract along it; where f also fell by less than a fifth,
                # the residual is not vanishing.  Then ∇²f joins B
                s, dg, f_start = secant
                sGs = float(s @ G @ s)
                exact = abs(float(s @ dg) - sGs) >= sGs and f_start - f < _LARGE_RESIDUAL * f_start
            B, G = self._curvature(x, params, exact)
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
                # no step length makes progress: a stall at the best point
                self.termination = "line-search-failure"
                obj_hist.append(f)
                step_hist.append(0.0)
                break

            x_new = x + alpha * d
            grad_x = grad
            grad, C_in, C_eq = self._derivatives(x_new, params, M, A)
            if not prob._rest_curved:
                secant = (x_new - x, grad - grad_x, f)
            step = float(np.abs(x_new - x).max(initial=0.0))
            x = x_new
            f, r_in, r_eq = trial
            obj_hist.append(f)
            step_hist.append(step)

            if step <= opts.step_tolerance:
                # the iteration is stationary; certify the final point
                gL = rows.lagrangian_gradient(grad, C_in, C_eq, lam, nu)
                self.converged = _kkt_residual(gL, r_in, r_eq, lam) <= opts.constraint_tolerance
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
