"""Dual active-set solver for convex quadratic programs.

Solves ``min 0.5 x'Hx + q'x  s.t.  l <= Cx <= u`` by the method of
Goldfarb and Idnani (Math. Prog. 27, 1983).  The iterate always minimizes
the cost with the rows of a working set held at their bounds, and every
one-sided multiplier stays nonnegative, so the iterate is dual feasible
throughout.  Each working-set change adds the most-violated bound, or
drops the active row whose multiplier reaches zero first on the way to
it.  The answer is exact once no bound is violated, and a violated row
whose primal direction vanishes with no row left to drop certifies
infeasibility.

H is factored once per call by Cholesky, each row is carried whitened as
``L^{-1} c``, and the working set is held as a QR factor of those columns.
Rows with ``l == u`` enter together in one Schur-complement solve.  A dual
guess ``y0`` seeds the working set with the rows it marks active, on the
side its sign gives (the warm start of qpOASES, Ferreau et al. 2014); the
seed is kept only when it is independent and dual feasible.  A positive
semidefinite H is handled by proximal-point outer steps on ``H + delta I``,
all sharing one factor.

Dual convention matches the stationarity condition ``Hx + q + C'y = 0``:
``y >= 0`` on active upper bounds and ``y <= 0`` on active lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from ..problem import ProblemClass
from .base import SolverAdapter, SolverOptions, Stats

__all__ = ["solve_qp", "QPResult", "ActiveSetQP"]

# a whitened row whose part outside the working span is shorter than this,
# relative to its length, is treated as dependent on the working set
_DEPENDENT = 1e-10
# proximal weight for a singular H, relative to its largest diagonal entry
_PROXIMAL = 1e-6


@dataclass
class QPResult:
    x: np.ndarray
    y: np.ndarray
    converged: bool
    iterations: int
    termination: str
    objective_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_history: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _inverse_factor(H):
    """``L^{-1}`` for the Cholesky factor ``H = L L'``, or None when H is not
    numerically positive definite."""
    L, info = lapack.dpotrf(H, lower=1, clean=1)
    if info != 0:
        return None
    d = np.diag(L)
    if d.min() <= np.sqrt(np.finfo(float).eps) * d.max():
        return None
    return lapack.dtrtri(L, lower=1)[0]


def _solve_r(R, b, trans=0):
    """``R^{-1} b`` (or ``R^{-T} b``) for the upper-triangular working-set factor."""
    return lapack.dtrtrs(R, b, lower=0, trans=trans)[0] if b.size else b


class _WorkingSet:
    """Goldfarb-Idnani iteration on one factored H.

    ``rows``/``sides`` list the active rows; side +1 holds ``c'x >= l`` and
    side -1 holds ``-c'x >= -u``.  ``lam`` are their multipliers in the
    form ``Hx + q = sum lam_i side_i c_i``; ``Q R`` factors the whitened
    active normals ``side_i L^{-1} c_i``.  A row is whitened the first time
    the iteration touches it, since most rows of a large QP never are.
    """

    def __init__(self, Linv, C, l, u, eq):
        self.Linv, self.C, self.l, self.u, self.eq = Linv, C, l, u, eq
        self.Nt = np.empty((Linv.shape[0], C.shape[0]), order="F")
        self.whitened = np.zeros(C.shape[0], dtype=bool)
        # x = 0, then the iterate after each entry and each working-set change
        self.iterates = [np.zeros(Linv.shape[0])]

    def normals(self, rows):
        """Whitened rows ``L^{-1} c_i`` as columns."""
        new = rows[~self.whitened[rows]]
        if new.size:
            self.Nt[:, new] = self.Linv @ self.C[new].T
            self.whitened[new] = True
        return self.Nt[:, rows]

    def bound(self, rows, sides):
        return np.where(sides > 0, self.l[rows], -self.u[rows])

    def enter(self, q, rows, sides):
        """Minimize over ``rows`` held at their bounds by one Schur-complement solve.

        Keeps a maximal independent subset of the rows (pivoted QR) and
        returns whether all of them were independent.
        """
        Linv = self.Linv
        self.x = -Linv.T @ (Linv @ q)
        if rows.size == 0:
            self.rows, self.sides, self.lam = rows, sides, np.zeros(0)
            self.refactor()
            return True
        Q, R, piv = scipy.linalg.qr(
            self.normals(rows) * sides, mode="economic", pivoting=True, check_finite=False
        )
        d = np.abs(np.diag(R))
        rank = int(np.count_nonzero(d > _DEPENDENT * d[0]))
        self.rows, self.sides = rows[piv[:rank]], sides[piv[:rank]]
        self.Q, self.R = Q[:, :rank], np.ascontiguousarray(R[:rank, :rank])
        gap = self.bound(self.rows, self.sides) - self.sides * (self.C[self.rows] @ self.x)
        self.lam = _solve_r(self.R, _solve_r(self.R, gap, trans=1))
        self.x = self.x + Linv.T @ (self.Q @ (self.R @ self.lam))
        return rank == rows.size

    def start(self, q, y0, options):
        """Enter the equality rows, plus the rows ``y0`` marks active when that start holds.

        Returns False when dependent equality rows contradict each other.
        """
        m = self.C.shape[0]
        eq_rows = np.flatnonzero(self.eq)
        if y0 is not None and y0.size == m and np.isfinite(y0).all():
            sides = np.where(y0 > 0.0, -1.0, 1.0)
            seed = ~self.eq & (y0 != 0.0) & np.isfinite(self.bound(np.arange(m), sides))
            if seed.any():
                rows = np.concatenate([eq_rows, np.flatnonzero(seed)])
                all_sides = np.concatenate([np.ones(eq_rows.size), sides[seed]])
                if self.enter(q, rows, all_sides) and (self.lam[~self.eq[self.rows]] >= 0.0).all():
                    return True
        if self.enter(q, eq_rows, np.ones(eq_rows.size)):
            return True
        # a dependent equality row met here stays met: it is a combination of
        # rows the working set holds for good
        Cx = self.C[eq_rows] @ self.x
        tol = options.qp_absolute_tolerance + options.qp_relative_tolerance * np.abs(Cx).max()
        return np.abs(Cx - self.l[eq_rows]).max() <= tol

    def refactor(self):
        n = self.Linv.shape[0]
        if self.rows.size:
            self.Q, self.R = np.linalg.qr(self.normals(self.rows) * self.sides)
        else:
            self.Q, self.R = np.zeros((n, 0)), np.zeros((0, 0))

    @property
    def iterations(self):
        return len(self.iterates) - 1

    def run(self, options):
        """Add violated bounds until none is left; returns the termination.

        ``options.qp_max_iterations`` caps the iterations after the first.
        """
        C, l, u, Linv = self.C, self.l, self.u, self.Linv
        if C.shape[0] == 0:
            return "kkt-tolerance"
        ineq = ~self.eq
        has_lo = ineq & np.isfinite(l)
        has_hi = ineq & np.isfinite(u)
        while True:
            Cx = C @ self.x
            tol = options.qp_absolute_tolerance + options.qp_relative_tolerance * np.abs(Cx).max()
            short = np.where(has_lo, l - Cx, -np.inf)
            over = np.where(has_hi, Cx - u, -np.inf)
            short[self.rows[self.sides > 0]] = -np.inf
            over[self.rows[self.sides < 0]] = -np.inf
            i_lo, i_hi = int(np.argmax(short)), int(np.argmax(over))
            if max(short[i_lo], over[i_hi]) <= tol:
                return "kkt-tolerance"
            p, s = (i_lo, 1.0) if short[i_lo] >= over[i_hi] else (i_hi, -1.0)
            b_p = l[p] if s > 0 else -u[p]
            n_p = s * self.normals(np.array([p]))[:, 0]
            lam_p = 0.0
            while True:
                if self.iterations - 1 >= options.qp_max_iterations:
                    return "max-iterations"
                # part of n_p outside the working span, orthogonalized twice
                w = self.Q.T @ n_p
                z = n_p - self.Q @ w
                w2 = self.Q.T @ z
                z -= self.Q @ w2
                w += w2
                r = _solve_r(self.R, w)
                zz = float(z @ z)
                gap = max(b_p - s * float(C[p] @ self.x), 0.0)
                t_full = gap / zz if zz > (_DEPENDENT**2) * float(n_p @ n_p) else np.inf
                blocking = ineq[self.rows] & (r > 0.0)
                t_part, j = np.inf, -1
                if blocking.any():
                    ratios = np.where(blocking, self.lam / np.where(blocking, r, 1.0), np.inf)
                    j = int(np.argmin(ratios))
                    t_part = max(float(ratios[j]), 0.0)  # a multiplier rounded below 0
                t = min(t_part, t_full)
                if not np.isfinite(t):
                    return "infeasible"
                if np.isfinite(t_full):
                    self.x = self.x + t * (Linv.T @ z)
                self.lam = self.lam - t * r
                lam_p += t
                if t_full <= t_part:
                    # append n_p to the factor: its new direction is z
                    rho = np.sqrt(zz)
                    k = self.rows.size
                    R = np.zeros((k + 1, k + 1))
                    R[:k, :k] = self.R
                    R[:k, k] = w
                    R[k, k] = rho
                    self.R = R
                    self.Q = np.column_stack([self.Q, z / rho])
                    self.rows = np.append(self.rows, p)
                    self.sides = np.append(self.sides, s)
                    self.lam = np.append(self.lam, lam_p)
                    self.iterates.append(self.x)
                    break
                keep = np.arange(self.rows.size) != j
                self.rows, self.sides, self.lam = self.rows[keep], self.sides[keep], self.lam[keep]
                self.refactor()
                self.iterates.append(self.x)

    def multipliers(self, m):
        y = np.zeros(m)
        y[self.rows] = -self.sides * self.lam
        return y


def _failed(n, m, termination) -> QPResult:
    return QPResult(
        x=np.full(n, np.nan),
        y=np.zeros(m),
        converged=False,
        iterations=0,
        termination=termination,
        objective_history=np.full(1, np.nan),
        step_history=np.zeros(1),
    )


def _qp_rows(C_in, r_in, C_eq, r_eq):
    """``(C, l, u)`` of the rows ``C_in x + r_in >= 0`` and ``C_eq x + r_eq = 0``."""
    C = np.vstack([C_in, C_eq])
    l = np.concatenate([-r_in, -r_eq])
    u = np.concatenate([np.full(r_in.size, np.inf), -r_eq])
    return C, l, u


def solve_qp(H, q, C, l, u, y0=None, options: SolverOptions | None = None) -> QPResult:
    """Solve one convex QP exactly; ``y0`` is an optional dual guess for a warm start."""
    opts = options or SolverOptions()
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    q = np.asarray(q, dtype=float).ravel()
    C = np.asarray(C, dtype=float).reshape(-1, n) if np.size(C) else np.zeros((0, n))
    l = np.asarray(l, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    m = C.shape[0]
    y_guess = None if y0 is None else np.asarray(y0, dtype=float).ravel()

    if not (np.isfinite(H).all() and np.isfinite(q).all() and np.isfinite(C).all()) or (
        np.isnan(l).any() or np.isnan(u).any()
    ):
        return _failed(n, m, "nan")

    eq = np.abs(u - l) <= 1e-12
    H = 0.5 * (H + H.T)
    Linv = _inverse_factor(H)
    delta = 0.0
    if Linv is None:
        delta = _PROXIMAL * max(1.0, float(np.abs(np.diag(H)).max(initial=0.0)))
        Linv = _inverse_factor(H + delta * np.eye(n))
        if Linv is None:
            return _failed(n, m, "not-convex")
    ws = _WorkingSet(Linv, C, l, u, eq)

    x = np.zeros(n)
    while True:
        # with delta > 0 each pass is one proximal step: the cost gains
        # 0.5 delta |x - x_k|^2, which shifts q by -delta x_k
        started = ws.start(q - delta * x, y_guess, opts)
        ws.iterates.append(ws.x)
        if not started:
            termination = "infeasible"
            break
        termination = ws.run(opts)
        x, y = ws.x, ws.multipliers(m)
        if delta == 0.0 or termination != "kkt-tolerance":
            break
        Hx, Cty = H @ x, C.T @ y
        eps_dual = opts.qp_absolute_tolerance + opts.qp_relative_tolerance * max(
            np.abs(Hx).max(initial=0.0), np.abs(Cty).max(initial=0.0), np.abs(q).max(initial=0.0)
        )
        if np.abs(Hx + q + Cty).max(initial=0.0) <= eps_dual:
            break
        if ws.iterations - 1 >= opts.qp_max_iterations:
            termination = "max-iterations"
            break
        y_guess = y

    x, y = ws.x, ws.multipliers(m)
    X = np.asarray(ws.iterates)
    return QPResult(
        x=x,
        y=y,
        converged=termination == "kkt-tolerance",
        iterations=ws.iterations,
        termination=termination,
        objective_history=((0.5 * X @ H + q) * X).sum(axis=1),
        step_history=np.concatenate([[0.0], np.abs(np.diff(X, axis=0)).max(axis=1)]),
    )


class ActiveSetQP(SolverAdapter):
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

        C, lo, hi = _qp_rows(*prob.lin_ineq(params), *prob.lin_eq(params))

        # warm-start the working set from the previous solve of this
        # session; the solver ignores a guess of the wrong size or with NaN
        result = solve_qp(H, q, C, lo, hi, y0=self.multipliers, options=self.options)
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
