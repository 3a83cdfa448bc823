import numpy as np
import pytest

import taskopt as to
from taskopt.problem import ProblemClass

from conftest import central_difference, fd_close


def _plan_problem(T=6):
    """Small version of the horizon task: quadratic goal cost, Euler dynamics,
    limits, and one spherical obstacle row per step."""
    r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
    b = to.TaskBuilder(T, robots=[r])
    qc = b.add_parameter("qc", 2)
    pg = b.add_parameter("pg", 3)
    center = b.add_parameter("center", 3)
    radius = b.add_parameter("radius")
    qT = b.get_model_state("arm", -1)
    b.add_cost_term("goal", to.sumsqr(r.global_link_position("ee", qT) - pg))
    b.add_cost_term("smooth", 1e-3 * to.sumsqr(b.model_block("arm", 1)))
    b.add_equality_constraint("init", b.get_model_state("arm", 0), qc)
    b.integrate_model_states("arm", 1, 0.1)
    b.enforce_model_limits("arm")
    rows = [
        to.sumsqr(r.global_link_position("ee", b.get_model_state("arm", t)) - center)
        for t in range(T)
    ]
    b.add_leq_inequality_constraint("obstacle", radius * radius, to.vertcat(*rows))
    return r, b.build()


def _params(p, rng):
    return p.parameters.vectorize(
        {
            "qc": rng.uniform(-1, 1, 2),
            "pg": np.append(rng.uniform(-1, 1, 2), 0.0),
            "center": np.append(rng.uniform(-1, 1, 2), 0.0),
            "radius": 0.3,
        }
    )


class TestEvaluators:
    def test_quadratic_objective(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        p = b.build()
        X = np.array([1.0, 2.0])
        assert p.objective(X) == pytest.approx(5.0)
        assert np.allclose(p.gradient(X), [2.0, 4.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        robot, p = _plan_problem()
        P = _params(p, rng)
        for _ in range(5):
            X = rng.normal(scale=0.4, size=p.n_x)
            g = p.gradient(X, P)
            g_fd = central_difference(lambda v: p.objective(v, P), X).ravel()
            assert fd_close(g, g_fd, rel=1e-6, abs_=1e-7)

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(1)
        robot, p = _plan_problem()
        P = _params(p, rng)
        X = rng.normal(size=p.n_x)
        H = p.hessian(X, P)
        assert np.abs(H - H.T).max() <= 1e-12

    def test_length_mismatch(self):
        robot, p = _plan_problem()
        with pytest.raises(ValueError):
            p.objective(np.zeros(3), np.zeros(p.n_p))

    def test_linear_blocks_check_parameter_length(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        p2 = b.add_parameter("p2", 2)
        b.add_cost_term("c", to.sumsqr(x - p2))
        b.add_leq_inequality_constraint("cap", x, p2)
        b.add_equality_constraint("pin", x[0], p2[1])
        p = b.build()
        for method in (p.lin_ineq, p.lin_eq):
            for P in ([1.0, 2.0, 99.0], []):
                with pytest.raises(ValueError, match="P has length"):
                    method(P)

    def test_linear_block_is_matrix_product(self):
        rng = np.random.default_rng(2)
        robot, p = _plan_problem()
        P = _params(p, rng)
        M, c = p.lin_ineq(P)
        A, b = p.lin_eq(P)
        for _ in range(5):
            X = rng.normal(size=p.n_x)
            vals = p.constraints(X, P)
            assert np.array_equal(vals.k, M @ X + c)
            assert np.array_equal(vals.a, A @ X + b)

    def test_bound_rows_gathered_beside_general_rows(self):
        # four bound rows (one with coefficient 3) and two general rows
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 3)
        p = b.add_parameter("p", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("lo", p[0, 0], x)
        b.add_leq_inequality_constraint("sum", x[0, 0] + x[1, 0], 1.0)
        b.add_leq_inequality_constraint("hi", 3.0 * x[2, 0], p[1, 0])
        b.add_leq_inequality_constraint("mix", x[2, 0], x[1, 0])
        prob = b.build()
        assert prob._bounds[0].tolist() == [0, 1, 2, 4] and prob._general_k.tolist() == [3, 5]
        P = np.array([-0.5, 2.0])
        M, c = prob.lin_ineq(P)
        rng = np.random.default_rng(4)
        for _ in range(5):
            X = rng.normal(size=3)
            assert np.array_equal(prob.constraints(X, P).k, M @ X + c)
        # an infinite x1 reaches only the rows on x1: lo[1], sum and mix
        k = prob.constraints([0.3, np.inf, 0.2], P).k
        assert np.isfinite(k).tolist() == [True, False, True, False, True, False]

    def test_empty_partitions_zero_length(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        p = b.build()
        vals = p.constraints(np.zeros(2))
        assert vals.k.size == vals.a.size == vals.g.size == vals.h.size == 0

    def test_constraint_jacobians_match_fd(self):
        rng = np.random.default_rng(3)
        robot, p = _plan_problem()
        P = _params(p, rng)
        for _ in range(3):
            X = rng.normal(scale=0.4, size=p.n_x)
            Jg = p.nonlin_ineq_jacobian(X, P)
            Jg_fd = central_difference(lambda v: p.nonlin_ineq(v, P), X)
            assert fd_close(Jg, Jg_fd, rel=1e-6, abs_=1e-7)
            Jh = p.nonlin_eq_jacobian(X, P)
            assert Jh.shape == (p.n_h, p.n_x)

    def test_parameter_registration_order_irrelevant(self):
        def build(order_flipped):
            b = to.TaskBuilder(1)
            x = b.add_decision_variables("x", 2)
            if order_flipped:
                w = b.add_parameter("w")
                t = b.add_parameter("t", 2)
            else:
                t = b.add_parameter("t", 2)
                w = b.add_parameter("w")
            b.add_cost_term("c", w * to.sumsqr(x - t))
            return b.build()

        p1, p2 = build(False), build(True)
        values = {"t": [1.0, -2.0], "w": 3.0}
        X = np.array([0.5, 0.5])
        obj1 = p1.objective(X, p1.parameters.vectorize(values))
        obj2 = p2.objective(X, p2.parameters.vectorize(values))
        assert obj1 == obj2

    def test_parameter_order_irrelevant_to_values(self):
        rng = np.random.default_rng(4)
        robot, p = _plan_problem()
        values = {
            "qc": rng.uniform(-1, 1, 2),
            "pg": np.append(rng.uniform(-1, 1, 2), 0.0),
            "center": np.array([0.5, 0.5, 0.0]),
            "radius": 0.2,
        }
        P1 = p.parameters.vectorize(values)
        P2 = p.parameters.vectorize(dict(reversed(list(values.items()))))
        X = rng.normal(size=p.n_x)
        assert p.objective(X, P1) == p.objective(X, P2)
        assert np.array_equal(p.constraints(X, P1).g, p.constraints(X, P2).g)


class TestLeastSquaresSplit:
    @staticmethod
    def _task():
        """x (3) and p (2): weighted sums of squares nested in sums, and four terms that are not."""
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 3)
        p = b.add_parameter("p", 2)
        r = to.vertcat(to.sin(x[0, 0]) - p[0, 0], x[1, 0] * x[2, 0] - 1.0)
        terms = {
            "plain": to.sumsqr(r),
            "nested": 2.0 * (to.sumsqr(x[2, 0] + p[1, 0]) + 0.5 * to.sumsqr(x[0, 0])),
            "power": x[1, 0] ** 2,  # not an _MUL of one node with itself
            "parameter_weight": p[1, 0] * to.sumsqr(x[1, 0]),
            "negative_weight": -0.25 * to.sumsqr(x[0, 0] - x[1, 0]),
            "constant": to.constant(3.0),
        }
        for name, term in terms.items():
            b.add_cost_term(name, term)
        cost = sum(terms.values(), to.constant(0.0))
        return b, x, p, cost

    def test_weighted_squares_become_residuals(self):
        b, x, p, _ = self._task()
        prob = b.build()
        # plain (2), then nested's two residuals with weights 2 and 2 * 0.5
        assert prob._weights.tolist() == [1.0, 1.0, 2.0, 1.0]
        rows, cols = prob._jac_pattern
        assert rows.tolist() == [0, 1, 1, 2, 3] and cols.tolist() == [0, 1, 2, 2, 0]
        assert prob._f_rest is not None and prob._rest_curved

    def test_objective_and_gradient_match_the_whole_cost(self):
        b, x, p, cost = self._task()
        prob = b.build()
        rng = np.random.default_rng(5)
        for _ in range(5):
            X, P = rng.normal(size=3), rng.normal(size=2)
            bindings = {"x": X, "p": P}
            want = to.evaluate(cost, bindings)[0, 0]
            assert prob.objective(X, P) == pytest.approx(want, rel=1e-12, abs=1e-12)
            grad = to.evaluate(to.gradient(cost, x), bindings).ravel()
            assert np.abs(prob.gradient(X, P) - grad).max() <= 1e-12 * max(1.0, np.abs(grad).max())

    def test_gauss_newton_blocks_are_twice_jtcj(self):
        b, x, p, _ = self._task()
        prob = b.build()
        X, P = np.array([0.3, -0.7, 1.1]), np.array([0.2, -0.4])
        r = to.vertcat(to.sin(x[0, 0]) - p[0, 0], x[1, 0] * x[2, 0] - 1.0, x[2, 0] + p[1, 0], x[0, 0])
        J = to.evaluate(to.jacobian(r, x), {"x": X, "p": P})
        want = 2.0 * J.T @ np.diag(prob._weights) @ J
        prob.gradient(X, P)
        B = np.zeros((3, 3))
        for group, values in zip(prob.hessian_blocks, prob._gauss_newton(X, P)):
            for cols, block in zip(group, values):
                B[np.ix_(cols, cols)] = block
        assert np.abs(B - want).max() <= 1e-12 * np.abs(want).max()
        assert B.tobytes() == B.T.copy().tobytes()

    def test_a_faulting_residual_gives_nan(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(1.0 / x[0, 0] - 1.0) + 1e-3 * to.sumsqr(x[0, 0]))
        prob = b.build()
        assert prob._f_rest is None  # x1 is in no residual: its gradient entry has no J term
        assert np.isnan(prob.objective([0.0, 0.5]))
        assert np.isnan(prob.gradient([0.0, 0.5])).all()
        assert np.isfinite(prob.gradient([2.0, 0.5])).all()

    def test_linear_rest_has_no_curvature(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x[0, 0] - 1.0) + 0.5 * x[1, 0] + 2.0)
        prob = b.build()
        assert prob._f_rest is not None and not prob._rest_curved

    def test_cost_without_squares_is_all_rest(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.cos(x[0, 0]) * x[1, 0])
        prob = b.build()
        assert prob._res is None and prob._rest_curved
        X = np.array([0.4, -1.3])
        assert prob.gradient(X).tobytes() == to.evaluate(
            to.gradient(to.cos(x[0, 0]) * x[1, 0], x), {"x": X}
        ).ravel().tobytes()


class TestFeasibility:
    def test_feasible_point(self):
        rng = np.random.default_rng(5)
        robot, p = _plan_problem()
        qc = np.array([0.8, 0.6])
        P = p.parameters.vectorize(
            {"qc": qc, "pg": [1.0, 1.0, 0.0], "center": [-1.5, -1.5, 0.0], "radius": 0.1}
        )
        X = p.decision.vectorize({"arm/0": np.tile(qc.reshape(-1, 1), (1, 6))})
        rep = p.feasibility(X, P)
        assert rep.max_violation <= 1e-12
        assert rep.ok(1e-6)

    def test_violated_limit_named(self):
        robot, p = _plan_problem()
        qc = np.array([4.0, 0.0])  # beyond the +pi limit, dynamics-consistent
        P = p.parameters.vectorize(
            {"qc": qc, "pg": [1.0, 1.0, 0.0], "center": [-9.0, 0.0, 0.0], "radius": 0.1}
        )
        X = p.decision.vectorize({"arm/0": np.tile(qc.reshape(-1, 1), (1, 6))})
        rep = p.feasibility(X, P)
        assert rep.worst_constraint == "arm/0/upper"
        assert not rep.ok(1e-6)

    def test_obstacle_row_zero_at_touching_configuration(self, planar2r):
        robot, p = _plan_problem()
        q_touch = np.array([0.7, 0.4])
        p_ee = planar2r.global_link_position("ee", q_touch)
        radius = 0.25
        center = p_ee + radius * np.array([0.0, 1.0, 0.0])  # sphere touching the EE
        P = p.parameters.vectorize(
            {"qc": q_touch, "pg": [1.0, 1.0, 0.0], "center": center, "radius": radius}
        )
        X = p.decision.vectorize({"arm/0": np.tile(q_touch.reshape(-1, 1), (1, 6))})
        g = p.nonlin_ineq(X, P)
        assert np.abs(g).max() <= 1e-12

    def test_non_finite_row_is_violated(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_equality_constraint("eq", to.log(x[0]) - 1.0)
        b.add_leq_inequality_constraint("in", to.sqrt(x[1]), 5.0)
        p = b.build()
        rep = p.feasibility([-1.0, -1.0])
        assert not rep.ok(1e-6)
        assert rep.equality_residual == rep.inequality_violation == np.inf
        assert rep.worst_constraint == "eq"  # equalities are read first
        assert rep.residuals == {"eq": np.inf, "in": np.inf}

    def test_given_rows_are_judged_as_evaluated(self):
        rng = np.random.default_rng(7)
        robot, p = _plan_problem()
        P = _params(p, rng)
        X = rng.normal(scale=0.5, size=p.n_x)
        vals = p.constraints(X, P)
        rows = np.concatenate([vals.a, vals.h, vals.k, vals.g])
        assert p.feasibility(X, P, rows=rows) == p.feasibility(X, P)
        with pytest.raises(ValueError, match="rows has length"):
            p.feasibility(X, P, rows=rows[1:])

    def test_report_consistent_with_constraints(self):
        rng = np.random.default_rng(6)
        robot, p = _plan_problem()
        P = _params(p, rng)
        points = [(rng.normal(scale=0.5, size=p.n_x), P) for _ in range(5)]
        qc = np.array([0.8, 0.6])  # test_feasible_point's point
        P_ok = p.parameters.vectorize(
            {"qc": qc, "pg": [1.0, 1.0, 0.0], "center": [-1.5, -1.5, 0.0], "radius": 0.1}
        )
        points.append((p.decision.vectorize({"arm/0": np.tile(qc.reshape(-1, 1), (1, 6))}), P_ok))
        for X, P in points:
            rep = p.feasibility(X, P)
            vals = p.constraints(X, P)
            eq = max(
                np.abs(vals.a).max(initial=0.0), np.abs(vals.h).max(initial=0.0)
            )
            ineq = max(
                np.maximum(-vals.k, 0.0).max(initial=0.0),
                np.maximum(-vals.g, 0.0).max(initial=0.0),
            )
            assert rep.equality_residual == pytest.approx(eq, abs=0)
            assert rep.inequality_violation == pytest.approx(ineq, abs=0)

            # the per-row rule: each name's largest residual, and the first
            # row with the strictly largest residual, rows read a, h, k, g
            residuals, worst, worst_r = {}, None, -1.0
            for part in "ahkg":
                for name, v in zip(p.labels[part], getattr(vals, part)):
                    r = abs(float(v)) if part in "ah" else max(-float(v), 0.0)
                    residuals[name] = max(residuals.get(name, r), r)
                    if r > worst_r:
                        worst, worst_r = name, r
            assert list(rep.residuals.items()) == list(residuals.items())
            assert rep.worst_constraint == worst
        assert rep.max_violation == 0.0  # every row holds at the feasible point
        assert worst == p.labels["a"][0]


class TestClassification:
    def test_unconstrained_quadratic(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 3)
        pstar = b.add_parameter("pstar", 3)
        b.add_cost_term("c", to.sumsqr(x - pstar))
        assert b.build().classification is ProblemClass.UNCONSTRAINED_QUADRATIC

    def test_linear_constrained_quadratic(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 3)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("cap", x, 1.0)
        assert b.build().classification is ProblemClass.LINEAR_CONSTRAINED_QUADRATIC

    def test_nonlinear_constrained_quadratic(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("ring", 1.0, to.sumsqr(to.sin(x)))
        assert b.build().classification is ProblemClass.NONLINEAR_CONSTRAINED_QUADRATIC

    def test_unconstrained_nonlinear(self, planar2r):
        b = to.TaskBuilder(1, robots=[_fresh_arm()])
        q = b.get_model_state("arm", 0)
        goal = b.add_parameter("goal", 3)
        b.add_cost_term("c", to.sumsqr(_fresh_arm.model.global_link_position("ee", q) - goal))
        assert b.build().classification is ProblemClass.UNCONSTRAINED_NONLINEAR

    def test_linear_constrained_nonlinear(self):
        arm = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        b = to.TaskBuilder(1, robots=[arm])
        q = b.get_model_state("arm", 0)
        goal = b.add_parameter("goal", 3)
        b.add_cost_term("c", to.sumsqr(arm.global_link_position("ee", q) - goal))
        b.enforce_model_limits("arm")
        assert b.build().classification is ProblemClass.LINEAR_CONSTRAINED_NONLINEAR

    def test_full_plan_classification(self):
        robot, p = _plan_problem()
        assert p.classification is ProblemClass.NONLINEAR_COST_AND_CONSTRAINTS


def _fresh_arm():
    return _fresh_arm.model


_fresh_arm.model = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
