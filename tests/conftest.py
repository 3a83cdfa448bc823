import itertools

import numpy as np
import pytest

import taskopt as to


def central_difference(fn, x, h=1e-7):
    """Central finite differences of a vector-valued function, step 1e-7."""
    x = np.asarray(x, dtype=float)
    f0 = np.ravel(fn(x))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        J[:, j] = (np.ravel(fn(x + e)) - np.ravel(fn(x - e))) / (2.0 * h)
    return J


def relative_error(approx, exact, floor=1e-8):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = np.maximum(np.abs(exact), floor)
    return float((np.abs(approx - exact) / scale).max(initial=0.0))


def fd_close(approx, exact, rel=1e-6, abs_=1e-8):
    """Derivative comparison at 1e-6 relative with 1e-8 absolute slack near zero."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return bool(np.all(np.abs(approx - exact) <= rel * np.abs(exact) + abs_))


def brute_force_qp(H, q, C, b, E=None, e=None):
    """Minimize 0.5 x'Hx + q'x subject to C x >= b by enumerating active sets.

    Strictly convex H assumed.  Equality rows ``E x = e``, when given, are
    held in every active set, with multipliers of either sign; a set of
    dependent rows is skipped, as its KKT matrix is singular.  Returns
    (x, lam, objective); lam >= 0 holds the inequality multipliers with
    stationarity H x + q - C' lam - E' nu = 0.
    """
    n, m = H.shape[0], C.shape[0]
    E = np.zeros((0, n)) if E is None else E
    e = np.zeros(0) if e is None else e
    p = E.shape[0]
    best = None
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            idx = list(subset)
            rows = np.vstack([E, C[idx]])
            k = rows.shape[0]
            if k and np.linalg.matrix_rank(rows) < k:
                continue  # an optimum has an active set of independent rows
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = H
            if k:
                kkt[:n, n:] = -rows.T
                kkt[n:, :n] = rows
            rhs = np.concatenate([-q, e, b[idx]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            lam_act = sol[n + p :]
            if np.any(lam_act < -1e-9):
                continue
            if np.any(C @ x - b < -1e-9):
                continue
            obj = 0.5 * x @ H @ x + q @ x
            if best is None or obj < best[2]:
                lam = np.zeros(m)
                lam[idx] = np.maximum(lam_act, 0.0)
                best = (x, lam, obj)
    return best


def planar_fk(q):
    """Closed-form planar-2R forward kinematics (unit links)."""
    q = np.asarray(q, dtype=float)
    return np.array(
        [np.cos(q[0]) + np.cos(q[0] + q[1]), np.sin(q[0]) + np.sin(q[0] + q[1]), 0.0]
    )


def planar_jacobian(q):
    """Closed-form planar-2R positional Jacobian rows (x, y)."""
    q = np.asarray(q, dtype=float)
    s1, s12 = np.sin(q[0]), np.sin(q[0] + q[1])
    c1, c12 = np.cos(q[0]), np.cos(q[0] + q[1])
    return np.array([[-s1 - s12, -s12], [c1 + c12, c12]])


@pytest.fixture(scope="session")
def planar2r():
    return to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")


@pytest.fixture(scope="session")
def arm6():
    return to.RobotModel(to.fixture_path("arm6"), tip="ee", name="arm6")


def _horizon_task(T):
    """planar2r tracking its tip reference stage by stage, with rate cost, Euler steps, limits and a pinned start."""
    r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
    b = to.TaskBuilder(T, robots=[r])
    ref = b.add_parameter("ref", 3, T)
    tracking = to.constant(0.0)
    for t in range(T):
        tip = r.global_link_position("ee", b.get_model_state("arm", t))
        tracking = tracking + to.sumsqr(tip - ref[:, t])
    b.add_cost_term("tracking", tracking)
    b.add_cost_term("rates", 1e-3 * to.sumsqr(b.model_block("arm", 1)))
    b.add_equality_constraint("init", b.get_model_state("arm", 0), b.add_parameter("qc", 2))
    b.integrate_model_states("arm", 1, 0.1)
    b.enforce_model_limits("arm")
    return r, b


@pytest.fixture(scope="session")
def horizon_task():
    """``horizon_task(T) -> (robot, builder)``: a fresh planar2r horizon task on each call."""
    return _horizon_task
