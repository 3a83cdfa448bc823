"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values come from independent oracles: closed-form planar
kinematics, central finite differences, and a brute-force active-set QP
solver that enumerates active constraint subsets.
"""

import json
import time

import numpy as np
import pytest

import taskopt as to
from taskopt.cli import _DEFAULTS, main, run_dims, run_plan, run_track
from taskopt.solvers import Solver, SolverOptions

from conftest import brute_force_qp, central_difference, planar_fk, planar_jacobian

TIGHT = SolverOptions(
    max_iterations=150,
    constraint_tolerance=1e-8,
    step_tolerance=1e-14,
    qp_absolute_tolerance=1e-11,
    qp_relative_tolerance=1e-11,
)


def _report(criterion: int, text: str):
    print(f"PASS criterion {criterion}: {text}")


# -- oracles -------------------------------------------------------------------


def _ik_session(robot, tip="ee", regularizer=1e-9):
    b = to.TaskBuilder(1, robots=[robot])
    q = b.get_model_state(robot.name, 0)
    goal = b.add_parameter("goal", 3)
    nominal = b.add_parameter("nominal", robot.ndof)
    b.add_cost_term("goal", to.sumsqr(robot.global_link_position(tip, q) - goal))
    b.add_cost_term("reg", regularizer * to.sumsqr(q - nominal))
    b.enforce_model_limits(robot.name)
    return Solver(b.build()).setup("sqp", TIGHT)


# -- criteria -------------------------------------------------------------------


def test_criterion_1_kinematics_oracle(planar2r):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        qv = rng.uniform(-np.pi, np.pi, 2)
        assert np.abs(planar2r.global_link_position("ee", qv) - planar_fk(qv)).max() <= 1e-12

    q_sym = to.variable("q", 2)
    p_sym = planar2r.global_link_position("ee", q_sym)
    J_ad_expr = to.jacobian(p_sym, q_sym)
    for _ in range(50):
        qv = rng.uniform(-np.pi, np.pi, 2)
        J_geo = planar2r.geometric_jacobian("ee", qv)[:2]
        J_ad = to.evaluate(J_ad_expr, {"q": qv})[:2]
        J_fd = central_difference(lambda v: planar_fk(v)[:2], qv)
        exact = planar_jacobian(qv)
        for J in (J_geo, J_ad, J_fd):
            assert np.all(np.abs(J - exact) <= 1e-6 * np.abs(exact) + 1e-6)
        assert np.abs(J_geo - J_ad).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"planar FK/Jacobian oracle agreement ({elapsed:.2f}s < 5s)")


def test_criterion_2_ad_suite():
    rng = np.random.default_rng(202)

    def fixtures(x, a, B, c):
        # scalar-valued graphs over a 3-vector, mixing every operator family
        return [
            to.sumsqr(x),
            to.dot(to.constant(a), x) + 1.5,
            x[0, 0] * x[1, 0] * x[2, 0],
            to.sumsqr(to.constant(B) @ x - to.constant(a)),
            to.sin(x[0, 0]) * to.cos(x[1, 0]) + to.tan(0.3 * x[2, 0]),
            to.exp(0.3 * x[0, 0]) + to.log(1.0 + to.sumsqr(x)),
            to.sqrt(1.0 + to.sumsqr(x)),
            to.atan2(x[0, 0], 2.0 + x[1, 0] * x[1, 0]) * x[2, 0],
            to.norm(x - to.constant(a)) ** 3,
            (x[0, 0] + c) / (2.0 + x[1, 0] * x[1, 0]),
            to.det(to.vertcat(
                to.horzcat(x[0, 0], x[1, 0], 0.5),
                to.horzcat(x[1, 0], 2.0 + x[2, 0], c),
                to.horzcat(0.5, c, 3.0),
            )),
            to.sumsqr(to.sin(x) - to.cos(x)),
            to.dot(x, to.constant(B) @ x),
        ]

    checked = 0
    case = 0
    while checked < 25:
        a = rng.normal(size=3)
        B = rng.normal(size=(3, 3))
        c = float(rng.normal())
        x = to.variable(f"x{case}", 3)
        exprs = fixtures(x, a, B, c)
        e = exprs[case % len(exprs)]
        case += 1
        xv = rng.uniform(-0.8, 0.8, 3)
        name = f"x{case - 1}"

        g = to.evaluate(to.gradient(e, x), {name: xv}).ravel()
        g_fd = central_difference(lambda v: to.evaluate(e, {name: v}), xv).ravel()
        assert np.all(np.abs(g - g_fd) <= 1e-6 * np.abs(g_fd) + 1e-8)

        H = to.evaluate(to.hessian(e, x), {name: xv})
        H_fd = central_difference(
            lambda v: to.evaluate(to.gradient(e, x), {name: v}).ravel(), xv
        )
        assert np.all(np.abs(H - H_fd) <= 1e-6 * np.abs(H_fd) + 1e-8)

        vec = to.vertcat(e, to.sumsqr(x) * 0.5, x[0, 0] - x[2, 0])
        J = to.evaluate(to.jacobian(vec, x), {name: xv})
        J_fd = central_difference(lambda v: to.evaluate(vec, {name: v}), xv)
        assert np.all(np.abs(J - J_fd) <= 1e-6 * np.abs(J_fd) + 1e-8)
        checked += 1
    _report(2, "25 randomized expression fixtures match finite differences")


def _fidelity_task():
    robot = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
    T = 5
    b = to.TaskBuilder(T, robots=[robot])
    qc = b.add_parameter("qc", 2)
    pg = b.add_parameter("pg", 3)
    center = b.add_parameter("center", 3)
    radius = b.add_parameter("radius")
    cost_exprs = {
        "goal": to.sumsqr(robot.global_link_position("ee", b.get_model_state("arm", -1)) - pg),
        "smooth": 1e-2 * to.sumsqr(b.model_block("arm", 1)),
    }
    for nm, e in cost_exprs.items():
        b.add_cost_term(nm, e)
    b.add_equality_constraint("init", b.get_model_state("arm", 0), qc)
    b.integrate_model_states("arm", 1, 0.1)
    b.enforce_model_limits("arm")
    rows = [
        to.sumsqr(robot.global_link_position("ee", b.get_model_state("arm", t)) - center)
        - radius * radius
        for t in range(T)
    ]
    b.add_leq_inequality_constraint("obstacle", 0.0, to.vertcat(*rows))

    # canonical-form user expressions per partition, in insertion order
    user = {
        "f": cost_exprs["goal"] + cost_exprs["smooth"],
        "k": {},
        "a": {},
        "g": {"obstacle": to.vertcat(*rows)},
        "h": {},
    }
    q_block = b.model_block("arm", 0)
    dq_block = b.model_block("arm", 1)
    lo, hi = robot.lower_limits, robot.upper_limits
    vel = robot.velocity_limits
    user["k"]["arm/0/lower"] = (q_block - to.constant(lo)).vec()
    user["k"]["arm/0/upper"] = (to.constant(hi) - q_block).vec()
    user["k"]["arm/1/lower"] = (dq_block - to.constant(-vel)).vec()
    user["k"]["arm/1/upper"] = (to.constant(vel) - dq_block).vec()
    user["a"]["init"] = b.get_model_state("arm", 0) - qc
    nxt = to.Expression(q_block._n[:, 1:])
    cur = to.Expression(q_block._n[:, :-1])
    user["a"]["arm/integration/1"] = (nxt - cur - dq_block * 0.1).vec()
    return b.build(), user


def test_criterion_3_transcription_fidelity():
    rng = np.random.default_rng(303)
    problem, user = _fidelity_task()

    for trial in range(200):
        X = rng.normal(scale=1.5, size=problem.n_x)
        P = rng.normal(scale=0.8, size=problem.n_p)
        P[problem.parameters.offset_of("radius")] = abs(P[-1]) + 0.1
        bindings = {
            **problem.decision.devectorize(X),
            **problem.parameters.devectorize(P),
        }
        assert abs(problem.objective(X, P) - to.evaluate(user["f"], bindings)[0, 0]) <= 1e-12
        vals = problem.constraints(X, P)
        for part in ("k", "a", "g", "h"):
            got = getattr(vals, part)
            labels = problem.labels[part]
            for name, expr in user[part].items():
                rows = [i for i, lbl in enumerate(labels) if lbl == name]
                expected = to.evaluate(expr, bindings).ravel()
                assert len(rows) == expected.size
                assert np.abs(got[rows] - expected).max(initial=0.0) <= 1e-12

    # linear-routed rows must have numerically vanishing second derivatives
    h = 1e-4
    for _ in range(5):
        X = rng.normal(size=problem.n_x)
        P = rng.normal(size=problem.n_p)
        v = rng.normal(size=problem.n_x)
        v /= np.abs(v).max()

        def lin_rows(Z):
            vals = problem.constraints(Z, P)
            return np.concatenate([vals.k, vals.a])

        second = (lin_rows(X + h * v) - 2.0 * lin_rows(X) + lin_rows(X - h * v)) / h**2
        assert np.abs(second).max(initial=0.0) <= 1e-6
    _report(3, "transcribed f,k,a,g,h reproduce user expressions at 200 points")


def test_criterion_4_classification():
    arm = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")

    def unconstrained_quadratic():
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 3)
        pstar = b.add_parameter("pstar", 3)
        b.add_cost_term("c", to.sumsqr(x - pstar))
        return b

    def linear_constrained_quadratic():
        # weighted joint-space distance with linear bounds
        b = to.TaskBuilder(1, robots=[arm])
        q = b.get_model_state("arm", 0)
        qhat = b.add_parameter("qhat", 2)
        W = to.constant(np.diag([2.0, 0.5]))
        b.add_cost_term("c", ((q - qhat).T @ W @ (q - qhat))[0, 0])
        b.enforce_model_limits("arm")
        return b

    def nonlinear_constrained_quadratic():
        b = to.TaskBuilder(1, robots=[arm])
        q = b.get_model_state("arm", 0)
        qhat = b.add_parameter("qhat", 2)
        b.add_cost_term("c", to.sumsqr(q - qhat))
        b.add_leq_inequality_constraint("reach", 1.0, to.sumsqr(arm.global_link_position("ee", q)))
        return b

    def unconstrained_nonlinear():
        b = to.TaskBuilder(1, robots=[arm])
        q = b.get_model_state("arm", 0)
        goal = b.add_parameter("goal", 3)
        nominal = b.add_parameter("nominal", 2)
        b.add_cost_term("goal", to.sumsqr(arm.global_link_position("ee", q) - goal))
        b.add_cost_term("reg", 0.1 * to.sumsqr(q - nominal))
        return b

    def linear_constrained_nonlinear():
        b = to.TaskBuilder(1, robots=[arm])
        q = b.get_model_state("arm", 0)
        goal = b.add_parameter("goal", 3)
        b.add_cost_term("goal", to.sumsqr(arm.global_link_position("ee", q) - goal))
        b.enforce_model_limits("arm")
        return b

    def nonlinear_cost_and_constraints():
        r2 = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(8, robots=[r2])
        qc = b.add_parameter("qc", 2)
        pg = b.add_parameter("pg", 3)
        o = b.add_parameter("o", 3)
        r_par = b.add_parameter("r")
        qT = b.get_model_state("arm", -1)
        b.add_cost_term("goal", to.sumsqr(r2.global_link_position("ee", qT) - pg))
        b.add_equality_constraint("init", b.get_model_state("arm", 0), qc)
        b.integrate_model_states("arm", 1, 0.1)
        b.enforce_model_limits("arm")
        rows = [
            to.sumsqr(r2.global_link_position("ee", b.get_model_state("arm", t)) - o)
            for t in range(8)
        ]
        b.add_leq_inequality_constraint("obstacle", r_par * r_par, to.vertcat(*rows))
        return b

    cases = {
        "unconstrained-quadratic": unconstrained_quadratic,
        "linear-constrained-quadratic": linear_constrained_quadratic,
        "nonlinear-constrained-quadratic": nonlinear_constrained_quadratic,
        "unconstrained-nonlinear": unconstrained_nonlinear,
        "linear-constrained-nonlinear": linear_constrained_nonlinear,
        "nonlinear-cost-and-constraints": nonlinear_cost_and_constraints,
    }
    for expected, make in cases.items():
        assert make().build().classification.value == expected
    _report(4, "all six canonical problem types classify exactly")


def test_criterion_5_qp_vs_active_set_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    solved = 0
    while solved < 20:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        G = rng.normal(size=(n, n))
        H = G @ G.T + np.eye(n)
        qlin = rng.normal(size=n)
        C = rng.normal(size=(m, n))
        x0 = rng.normal(size=n) * 0.5
        slack = rng.uniform(-0.5, 0.5, size=m)  # mixed: some rows active
        bvec = C @ x0 - slack

        oracle = brute_force_qp(H, qlin, C, bvec)
        if oracle is None:
            continue
        x_star, lam_star, obj_star = oracle

        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", n)
        cost = 0.5 * (x.T @ to.constant(H) @ x)[0, 0] + to.dot(to.constant(qlin), x)
        b.add_cost_term("quad", cost)
        b.add_leq_inequality_constraint("rows", to.constant(bvec), to.constant(C) @ x)
        session = Solver(b.build()).setup("qp")
        sol = session.solve()
        assert sol.success

        xs = sol["x"].ravel()
        lam = np.maximum(-session._adapter.multipliers, 0.0)
        stationarity = H @ xs + qlin - C.T @ lam
        comp = (C @ xs - bvec) * lam
        assert np.abs(stationarity).max() <= 1e-5
        assert np.abs(comp).max() <= 1e-5
        assert abs(sol.objective - obj_star) <= 1e-5 * max(1.0, abs(obj_star))
        assert np.abs(xs - x_star).max() <= 1e-4
        solved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"20 random QPs match the active-set oracle ({elapsed:.2f}s < 30s)")


def _ik_seeds(fixture_name, goal):
    """Deterministic multi-start seeds: base yaw from the goal direction plus
    a few posture templates (restarts are standard for multi-branch IK)."""
    if fixture_name == "planar2r":
        return [[0.3, -0.2], [-0.3, 0.2], [1.0, 1.0], [-1.0, -1.0]]
    yaw = float(np.arctan2(goal[1], goal[0]))
    templates = [(0.6, 0.8, 0.5), (1.3, -0.9, 0.5), (1.5, 0.8, -0.5), (0.3, 1.8, -0.8)]
    return [[yaw, t1, t2, 0.0, t3, 0.0] for (t1, t2, t3) in templates]


@pytest.mark.parametrize("fixture_name", ["planar2r", "arm6"])
def test_criterion_6_sqp_end_pose_ik(fixture_name):
    robot = to.RobotModel(to.fixture_path(fixture_name), tip="ee", name="arm")
    session = _ik_session(robot)
    rng = np.random.default_rng(606)
    for trial in range(50):
        q_sample = robot.random_joint_positions(rng, margin=0.1)
        goal = robot.global_link_position("ee", q_sample)
        best = None
        for seed in _ik_seeds(fixture_name, goal):
            session.reset_parameters({"goal": goal, "nominal": seed})
            session.reset_initial_seed({"arm/0": seed})
            sol = session.solve()
            q = sol["arm/0"].ravel()
            err = float(np.linalg.norm(robot.global_link_position("ee", q) - goal))
            limit_violation = sol.report.inequality_violation
            if best is None or err < best[0]:
                best = (err, limit_violation)
            if err <= 1e-6 and limit_violation <= 1e-8:
                break
        err, limit_violation = best
        assert err <= 1e-6, f"goal {trial}: position error {err:.2e}"
        assert limit_violation <= 1e-8
    _report(6, f"{fixture_name}: 50 random reachable goals at 1e-6 position error")


def test_criterion_7_obstacle_plan_feasibility(planar2r):
    rng = np.random.default_rng(707)
    cfg0 = dict(_DEFAULTS["plan"])
    start_q = np.asarray(cfg0["start"])
    p_start = planar2r.global_link_position("ee", start_q)
    p_goal = np.asarray(cfg0["goal"])

    feasible_checked = 0
    while feasible_checked < 10:
        s = rng.uniform(0.35, 0.65)
        center = p_start + s * (p_goal - p_start)
        center[:2] += rng.uniform(-0.15, 0.15, 2)
        radius = float(rng.uniform(0.2, 0.3))
        if (
            np.linalg.norm(p_start - center) < radius + 0.05
            or np.linalg.norm(p_goal - center) < radius + 0.05
        ):
            continue
        cfg = dict(cfg0)
        cfg["obstacles"] = [{"center": center.tolist(), "radius": radius}]
        res = run_plan(cfg)
        assert res.success, f"placement {feasible_checked} failed: {res.termination}"
        for t in range(res.q.shape[1]):
            q_t = res.q[:, t]
            assert np.linalg.norm(planar2r.global_link_position("ee", q_t) - center) >= radius - 1e-6
            assert np.all(q_t <= np.pi + 1e-6) and np.all(q_t >= -np.pi - 1e-6)
        assert np.abs(res.q[:, 0] - start_q).max() <= 1e-6
        euler = res.q[:, 1:] - res.q[:, :-1] - cfg["dt"] * res.dq
        assert np.abs(euler).max() <= 1e-8
        feasible_checked += 1

    # goal covered by the obstacle: must report failure, not violate constraints
    cfg = dict(cfg0)
    cfg["obstacles"] = [{"center": p_goal.tolist(), "radius": 0.4}]
    res = run_plan(cfg)
    assert not res.success
    assert res.report.ok(1e-6)  # returned trajectory still respects constraints
    _report(7, "10 random obstacle plans audit clean; covered goal reports failure")


def test_criterion_8_figure_eight_tracking():
    warm = run_track(dict(_DEFAULTS["track"]))
    assert warm.success
    assert warm.errors.mean() <= 1e-3

    cold = run_track(dict(_DEFAULTS["track"], cold=True))
    assert cold.success
    frac = float(np.mean(warm.iterations <= cold.iterations))
    assert frac >= 0.95

    manip = run_track(dict(_DEFAULTS["track"], manip_weight=1e-2))
    assert manip.success
    assert manip.manipulability.mean() > warm.manipulability.mean()
    _report(
        8,
        f"tracking: mean error {warm.errors.mean():.2e}, warm<=cold at {frac:.0%}, "
        f"manipulability {warm.manipulability.mean():.4f} -> {manip.manipulability.mean():.4f}",
    )


def test_criterion_9_reach_sweep():
    res = run_dims(dict(_DEFAULTS["dims"]))
    extra = [r for r in res.rows if r.posonly_success and not r.fullpose_success]
    regress = [r for r in res.rows if r.fullpose_success and not r.posonly_success]
    assert extra, "position-only mode should reach at least one goal full-pose cannot"
    assert not regress, "position-only mode must not fail where full-pose succeeds"
    for row in res.rows:
        if row.fraction > 1.0:  # beyond the workspace: both modes must fail
            assert not row.posonly_success and not row.fullpose_success
    _report(9, f"position-only reaches {len(extra)} goals beyond full-pose; no regressions")


def test_criterion_10_plan_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["plan", "--out", str(out1)]) == 0
    assert main(["plan", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(10, "two cmd_plan runs produce byte-identical CSV")
