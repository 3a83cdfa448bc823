import collections

import numpy as np
import pytest

import taskopt as to
from taskopt.problem import ProblemClass
from taskopt.solvers import (
    Solution,
    Solver,
    SolverAdapter,
    SolverOptions,
    Stats,
    available_solvers,
    interpolate,
    register_solver,
    solve_qp,
)
from taskopt.solvers import qp as qp_module
from taskopt.solvers import sqp as sqp_module
from taskopt.solvers.sqp import SQPSolver, _BoundRows


def _ik_problem(regularizer=1e-8):
    arm = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
    b = to.TaskBuilder(1, robots=[arm])
    q = b.get_model_state("arm", 0)
    goal = b.add_parameter("goal", 3)
    nominal = b.add_parameter("nominal", 2)
    b.add_cost_term("goal", to.sumsqr(arm.global_link_position("ee", q) - goal))
    b.add_cost_term("reg", regularizer * to.sumsqr(q - nominal))
    b.enforce_model_limits("arm")
    return arm, b.build()


def _qp_problem():
    b = to.TaskBuilder(1)
    x = b.add_decision_variables("x", 2)
    b.add_cost_term("c", to.sumsqr(x - to.constant([1.0, 2.0])))
    b.add_leq_inequality_constraint("cap", x[0, 0] + x[1, 0], 2.0)
    return b.build()


def _obstacle_reach_problem():
    """planar2r, T=3: pinned start, a tip equality and an obstacle row per step."""
    arm = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
    b = to.TaskBuilder(3, robots=[arm])
    qs = [b.get_model_state("arm", t) for t in range(3)]
    b.add_cost_term("smooth", to.sumsqr(qs[1] - qs[0]) + to.sumsqr(qs[2] - qs[1]))
    b.add_equality_constraint("init", qs[0], b.add_parameter("start", 2))
    b.add_equality_constraint("reach", arm.global_link_position("ee", qs[2])[0, 0], 1.2)
    center = to.constant([1.2, 1.0, 0.0])
    for t, q in enumerate(qs):
        p = arm.global_link_position("ee", q)
        b.add_leq_inequality_constraint(f"obstacle{t}", 0.3**2, to.sumsqr(p - center))
    b.enforce_model_limits("arm")
    return b.build()


class _CountingProblem:
    """Forwards to a Problem, counting calls by (method, bytes of the first argument)."""

    def __init__(self, problem):
        self._problem = problem
        self.calls = collections.Counter()

    def __getattr__(self, name):
        attr = getattr(self._problem, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[(name, np.asarray(args[0]).tobytes())] += 1
            return attr(*args, **kwargs)

        return counted


class TestSetup:
    def test_qp_rejects_nonlinear_constraints(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("ring", 1.0, to.sumsqr(to.sin(x)))
        p = b.build()
        assert p.classification is ProblemClass.NONLINEAR_CONSTRAINED_QUADRATIC
        with pytest.raises(ValueError, match="does not accept"):
            Solver(p).setup("qp")

    def test_sqp_accepts_everything(self):
        for make in (_qp_problem, lambda: _ik_problem()[1]):
            Solver(make()).setup("sqp")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            Solver(_qp_problem()).setup("qp", SolverOptions(constraint_tolerance=-1.0))

    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            Solver(_qp_problem()).setup("simplex")

    def test_solve_before_setup(self):
        with pytest.raises(RuntimeError):
            Solver(_qp_problem()).solve()

    def test_native_tags_registered(self):
        assert {"qp", "bfgs", "sqp"} <= set(available_solvers())


class TestReset:
    def test_seed_defaults_to_zero(self):
        arm, p = _ik_problem()
        s = Solver(p).setup("sqp")
        s.reset_parameters({"goal": [2.0, 0.0, 0.0]})
        s.reset_initial_seed({})  # everything zero-filled
        sol = s.solve()
        assert sol.success

    def test_partial_seed_zero_fills(self):
        p = _qp_problem()
        s = Solver(p).setup("qp")
        s.reset_initial_seed({"x": [1.0, 1.0]})
        assert np.allclose(s._seed, [1.0, 1.0])
        s.reset_initial_seed({})
        assert np.allclose(s._seed, 0.0)

    def test_unknown_name(self):
        s = Solver(_qp_problem()).setup("qp")
        with pytest.raises(KeyError):
            s.reset_initial_seed({"bogus": [1.0]})

    def test_shape_mismatch(self):
        s = Solver(_qp_problem()).setup("qp")
        s.reset_parameters({})  # empty reset is fine: zero-filled
        with pytest.raises(ValueError):
            s.reset_initial_seed({"x": [1.0, 2.0, 3.0]})

    def test_solution_as_seed(self):
        arm, p = _ik_problem()
        s = Solver(p).setup("sqp")
        s.reset_parameters({"goal": [1.2, 0.8, 0.0], "nominal": [0.5, 0.5]})
        s.reset_initial_seed({"arm/0": [0.5, 0.5]})
        first = s.solve()
        s.reset_initial_seed(first)  # warm start from the Solution object
        second = s.solve()
        assert second.success
        assert second.iterations <= first.iterations


class TestQPSolver:
    def test_halfspace_projection(self):
        s = Solver(_qp_problem()).setup("qp")
        sol = s.solve()
        assert sol.success
        assert np.abs(sol["x"].ravel() - [0.5, 1.5]).max() <= 1e-6

    def test_unconstrained_direct(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 3)
        target = b.add_parameter("t", 3)
        b.add_cost_term("c", to.sumsqr(x - target))
        s = Solver(b.build()).setup("qp")
        s.reset_parameters({"t": [1.0, -2.0, 0.5]})
        sol = s.solve()
        assert sol.success
        assert np.allclose(sol["x"].ravel(), [1.0, -2.0, 0.5], atol=1e-9)

    def test_kkt_and_complementarity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n, m = 4, 5
            G = rng.normal(size=(n, n))
            H = G @ G.T + 0.5 * np.eye(n)
            q = rng.normal(size=n)
            C = rng.normal(size=(m, n))
            x_feas = rng.normal(size=n) * 0.2
            lo = C @ x_feas - rng.uniform(0.1, 1.0, m)
            hi = C @ x_feas + rng.uniform(0.1, 1.0, m)
            res = solve_qp(H, q, C, lo, hi, options=SolverOptions())
            assert res.converged
            grad = H @ res.x + q + C.T @ res.y
            assert np.abs(grad).max() <= 1e-5
            slack = np.minimum(C @ res.x - lo, hi - C @ res.x)
            assert np.abs(res.y * slack).max() <= 1e-5

    def test_equality_rows(self):
        # min ||x||^2 s.t. x0 + x1 = 1 -> (0.5, 0.5)
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_equality_constraint("sum", x[0, 0] + x[1, 0], 1.0)
        sol = Solver(b.build()).setup("qp").solve()
        assert sol.success
        assert np.abs(sol["x"].ravel() - 0.5).max() <= 1e-6

    def test_contradictory_rows_fail(self):
        # x0 + x1 <= -1 and x0 + x1 >= 1 cannot both hold
        C = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = solve_qp(np.eye(2), np.zeros(2), C, [-np.inf, 1.0], [-1.0, np.inf])
        assert not res.converged
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("up", x[0, 0] + x[1, 0], -1.0)
        b.add_leq_inequality_constraint("down", 1.0, x[0, 0] + x[1, 0])
        sol = Solver(b.build()).setup("qp").solve()
        assert not sol.success

    def test_flat_direction_cost(self):
        # x0^2 + x1 is flat in x1 and unbounded below without the row
        # x0 + x1 >= 1, so the Hessian is only semidefinite; optimum (0.5, 0.5)
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x[0, 0]) + x[1, 0])
        b.add_leq_inequality_constraint("floor", 1.0, x[0, 0] + x[1, 0])
        p = b.build()
        assert p.classification is ProblemClass.LINEAR_CONSTRAINED_QUADRATIC
        sol = Solver(p).setup("qp").solve()
        assert sol.success
        assert np.abs(sol["x"].ravel() - 0.5).max() <= 1e-6

    def test_resolve_warm_starts_duals(self):
        # an identical re-solve seeded with the last solution converges at
        # once only when the session also reuses its last multipliers
        rng = np.random.default_rng(1)
        n, m = 20, 30
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", n)
        G = rng.normal(size=(n, n))
        b.add_cost_term("c", to.sumsqr(to.constant(G) @ x - to.constant(rng.normal(size=n))))
        b.add_leq_inequality_constraint(
            "rows", to.constant(rng.normal(size=(m, n))) @ x, to.constant(np.full(m, 0.5))
        )
        s = Solver(b.build()).setup("qp")
        first = s.solve()
        assert first.success and s.stats().iterations > 2
        s.reset_initial_seed(first)
        second = s.solve()
        assert second.success
        assert s.stats().iterations <= 2
        assert np.abs(second.x - first.x).max() <= 1e-9

    def test_nan_parameters_do_not_poison_later_solves(self):
        # a solve ending in NaN must not seed the next one with NaN duals
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        t = b.add_parameter("t", 2)
        b.add_cost_term("c", to.sumsqr(x - t))
        b.add_leq_inequality_constraint("cap", x[0, 0] + x[1, 0], t[0, 0])
        s = Solver(b.build()).setup("qp")
        s.reset_parameters({"t": [1.0, 2.0]})
        assert s.solve().success
        s.reset_parameters({"t": [np.nan, 2.0]})
        assert not s.solve().success
        s.reset_parameters({"t": [1.0, 2.0]})
        sol = s.solve()
        assert sol.success
        assert np.abs(sol.x - [0.0, 1.0]).max() <= 1e-6

    def test_stats_history_lengths(self):
        s = Solver(_qp_problem()).setup("qp")
        s.solve()
        st = s.stats()
        assert st.iterations >= 1
        assert len(st.objective_history) == st.iterations + 1
        assert len(st.step_norm_history) == st.iterations + 1
        assert st.duration > 0.0


class TestBFGSSolver:
    def test_rejects_constrained(self):
        with pytest.raises(ValueError):
            Solver(_qp_problem()).setup("bfgs")

    def test_unconstrained_ik(self):
        arm = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        b = to.TaskBuilder(1, robots=[arm])
        q = b.get_model_state("arm", 0)
        goal = b.add_parameter("goal", 3)
        b.add_cost_term("goal", to.sumsqr(arm.global_link_position("ee", q) - goal))
        p = b.build()
        assert p.classification is ProblemClass.UNCONSTRAINED_NONLINEAR
        sols = {}
        for tag in ("bfgs", "sqp"):
            s = Solver(p).setup(tag, SolverOptions(max_iterations=200))
            s.reset_parameters({"goal": [1.2, 0.8, 0.0]})
            s.reset_initial_seed({"arm/0": [0.5, 0.5]})
            sols[tag] = s.solve()
        sol = sols["bfgs"]
        assert sol.success
        qstar = sol["arm/0"].ravel()
        assert np.linalg.norm(arm.global_link_position("ee", qstar) - [1.2, 0.8, 0.0]) <= 1e-6
        # the bfgs tag runs the SQP loop: the same answer to the bit
        assert sol.x.tobytes() == sols["sqp"].x.tobytes()
        assert sol.iterations == sols["sqp"].iterations
        assert sol.termination == sols["sqp"].termination == "kkt-tolerance"

    def test_objective_history_non_increasing(self):
        arm, _ = _ik_problem()
        b = to.TaskBuilder(1, robots=[to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")])
        q = b.get_model_state("arm", 0)
        b.add_cost_term("c", to.sumsqr(to.sin(q) - to.constant([0.3, 0.7])) + 0.1 * to.sumsqr(q))
        s = Solver(b.build()).setup("bfgs")
        s.reset_initial_seed({"arm/0": [1.0, -1.0]})
        s.solve()
        hist = s.stats().objective_history
        assert np.all(np.diff(hist) <= 1e-14)

    def test_max_iterations_unsuccessful(self):
        arm = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        b = to.TaskBuilder(1, robots=[arm])
        q = b.get_model_state("arm", 0)
        goal = b.add_parameter("goal", 3)
        b.add_cost_term("goal", to.sumsqr(arm.global_link_position("ee", q) - goal))
        s = Solver(b.build()).setup("bfgs", SolverOptions(max_iterations=2))
        s.reset_parameters({"goal": [1.2, 0.8, 0.0]})
        s.reset_initial_seed({"arm/0": [2.0, -2.5]})
        sol = s.solve()
        assert not sol.success
        assert sol.termination == "max-iterations"


class TestSQPSolver:
    def test_end_pose_ik_boundary(self):
        arm, p = _ik_problem()
        s = Solver(p).setup(
            "sqp",
            SolverOptions(
                max_iterations=200,
                constraint_tolerance=1e-9,
                step_tolerance=1e-14,
                qp_absolute_tolerance=1e-12,
                qp_relative_tolerance=1e-12,
            ),
        )
        s.reset_parameters({"goal": [2.0, 0.0, 0.0]})
        s.reset_initial_seed({"arm/0": [0.3, -0.2]})
        sol = s.solve()
        assert sol.success
        qstar = sol["arm/0"].ravel()
        assert np.linalg.norm(arm.global_link_position("ee", qstar) - [2.0, 0.0, 0.0]) <= 1e-6
        assert np.abs(qstar).max() <= 0.05  # near (0, 0)

    def test_matches_qp_on_linear_problem(self):
        p = _qp_problem()
        qp_sol = Solver(p).setup("qp").solve()
        sqp_sol = Solver(p).setup("sqp").solve()
        assert qp_sol.success and sqp_sol.success
        assert abs(qp_sol.objective - sqp_sol.objective) <= 1e-5

    def test_respects_joint_limits(self):
        arm, p = _ik_problem(regularizer=1e-6)
        s = Solver(p).setup("sqp")
        s.reset_parameters({"goal": [-2.0, 0.0, 0.0], "nominal": [3.0, 0.0]})
        s.reset_initial_seed({"arm/0": [3.0, 0.1]})
        sol = s.solve()
        qstar = sol["arm/0"].ravel()
        assert np.all(qstar <= np.pi + 1e-8)
        assert np.all(qstar >= -np.pi - 1e-8)

    def test_infeasible_problem_reports_failure(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 1)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("up", x[0, 0], -1.0)
        b.add_leq_inequality_constraint("down", 1.0, x[0, 0])
        sol = Solver(b.build()).setup("sqp").solve()
        assert not sol.success
        assert sol.report.max_violation > 1e-6

    def test_successful_solution_is_feasible(self):
        arm, p = _ik_problem()
        s = Solver(p).setup("sqp")
        s.reset_parameters({"goal": [1.0, 1.0, 0.0]})
        s.reset_initial_seed({"arm/0": [0.5, 0.5]})
        sol = s.solve()
        assert sol.success
        assert p.feasibility(sol.x, s._params).ok(1e-6)

    def test_minimum_time_with_optimized_steps(self):
        # unit distance at unit rate bound: total time must come out 1.0
        task = to.TaskModel("s", 1, (0, 1))
        T = 6
        b = to.TaskBuilder(T, tasks=[task], optimize_time=True)
        b.add_equality_constraint("init", b.get_model_state("s", 0), 0.0)
        b.add_equality_constraint("final", b.get_model_state("s", -1), 1.0)
        b.integrate_model_states("s", 1)
        ds = b.model_block("s", 1)
        b.add_leq_inequality_constraint("rate_up", ds, 1.0)
        b.add_leq_inequality_constraint("rate_down", -1.0, ds)
        b.add_cost_term("time", to.dot(b.dt.T, to.constant(np.ones(T - 1))))
        p = b.build()
        assert p.classification is ProblemClass.NONLINEAR_CONSTRAINED_QUADRATIC
        s = Solver(p).setup("sqp", SolverOptions(max_iterations=200))
        s.reset_initial_seed(
            {"dt": np.full((1, T - 1), 0.5), "s/1": np.full((1, T - 1), 0.5)}
        )
        sol = s.solve()
        assert sol.success
        assert sol["dt"].sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(sol["dt"] >= 1e-4 - 1e-9)

    def test_no_point_evaluated_twice(self):
        p = _obstacle_reach_problem()
        assert p.n_g == 3 and p.n_h == 1
        counting = _CountingProblem(p)
        adapter = SQPSolver()
        adapter.initialize(counting, SolverOptions())
        start = [0.5 * np.pi, 0.0]
        adapter.solve(np.tile(start, 3), p.parameters.vectorize({"start": start}))
        assert adapter.converged
        assert adapter.statistics().iterations >= 2
        repeated = sorted(name for (name, _), k in counting.calls.items() if k > 1)
        assert repeated == []

    def test_elastic_step_on_infeasible_linearisation(self):
        # d >= 1, d <= -1 and 0 d = -1 cannot all hold.  The elastic QP
        # prices each slack at w = 1e3 with curvature eps: both inequality
        # slacks s = 1 -/+ d and the equality's split slack p = 1 are
        # positive, so d minimizes 0.5 d^2 + 0.3 d + 0.5 eps |s|^2
        # Both inequality rows bound d, so the plain QP gets lb = 1 > ub = -1
        # and no general inequality row; the elastic QP rebuilds both rows.
        adapter = SQPSolver()
        adapter.initialize(None, SolverOptions())
        bounds = (np.array([0, 1]), np.array([0, 0]), np.array([1.0, -1.0]))
        adapter._bound_rows = _BoundRows(bounds, n_k=2, n_g=0, m_eq=1)
        C_in, r_in = np.zeros((0, 1)), np.array([-1.0, -1.0])
        C_eq, r_eq = np.zeros((1, 1)), np.array([1.0])
        d, y, elastic = adapter._subproblem(
            np.eye(1), np.array([0.3]), C_in, r_in, C_eq, r_eq, np.zeros(3), 1.0
        )
        assert elastic
        w, eps = 1e3, 1e-6
        d_star = -0.3 / (1.0 + 2.0 * eps)
        assert d == pytest.approx([d_star], rel=1e-12)
        # [y_in; y_eq] from stationarity in each slack
        y_star = [-(w + eps * (1.0 - d_star)), -(w + eps * (1.0 + d_star)), w + eps]
        assert y == pytest.approx(y_star, rel=1e-12)

    def test_seed_hessian_decomposed_per_block(self, monkeypatch, horizon_task):
        # a per-stage term that is no sum of squares, so the rest of the
        # cost has a Hessian for SQP to project
        T = 6
        robot, b = horizon_task(T)
        for t in range(T):
            b.add_cost_term(f"wobble{t}", 1e-3 * to.cos(b.get_model_state("arm", t)[0, 0]))
        p = b.build()
        largest = max(group.shape[1] for group in p.hessian_blocks)
        assert largest < p.n_x
        sizes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        path = np.stack([np.linspace(0.3, 0.6, T), np.full(T, 0.5)])
        ref = np.stack([robot.global_link_position("ee", q) for q in path.T], axis=1)
        s = Solver(p).setup("sqp")
        s.reset_parameters({"ref": ref, "qc": path[:, 0]})
        assert s.solve().success
        assert sizes and max(sizes) <= largest, sizes

    def test_least_squares_horizon_needs_no_hessian(self, monkeypatch, horizon_task):
        T = 6
        robot, b = horizon_task(T)
        p = b.build()

        def forbidden(*args, **kwargs):
            raise AssertionError("a least-squares cost needs neither ∇²f nor a projection")

        monkeypatch.setattr(to.Problem, "hessian", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        path = np.stack([np.linspace(0.3, 0.6, T), np.full(T, 0.5)])
        ref = np.stack([robot.global_link_position("ee", q) for q in path.T], axis=1)
        s = Solver(p).setup("sqp")
        s.reset_parameters({"ref": ref, "qc": path[:, 0]})
        sol = s.solve()
        assert sol.success and sol.termination == "kkt-tolerance"

    @pytest.mark.parametrize("tag", ["sqp", "bfgs"])
    def test_large_residual_takes_the_exact_hessian(self, tag):
        # Dennis & Schnabel's r = (x + 1, lam x^2 + x - 1) with lam = -2: at
        # the minimiser x = 0 the residual is (1, -1), and Gauss-Newton's
        # 2 J'J = 4 keeps a third of f'' = 12, so alone it does not contract
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 1)
        x0 = x[0, 0]
        b.add_cost_term("r", to.sumsqr(x0 + 1.0) + to.sumsqr(-2.0 * x0 * x0 + x0 - 1.0))
        s = Solver(b.build()).setup(tag)
        s.reset_initial_seed({"x": [[1.0]]})
        sol = s.solve()
        assert sol.termination == "kkt-tolerance"
        assert sol.iterations <= 10 and abs(sol.x[0]) <= 1e-8

    def test_arm6_cold_ik_converges_in_few_iterations(self, arm6):
        # each goal is the tip of a configuration ARM6_POSE + U(-0.5, 0.5) per
        # joint, and each solve starts within 0.1 rad per joint of that
        # configuration; the 1e-6 pull toward ARM6_POSE moves the answer
        # along the three-dimensional self-motion manifold
        pose = np.array([0.0, 0.6, 0.8, 0.0, 0.5, 0.0])
        b = to.TaskBuilder(1, robots=[arm6])
        q = b.get_model_state("arm6", 0)
        goal = b.add_parameter("goal", 3)
        nominal = b.add_parameter("nominal", 6)
        b.add_cost_term("goal", to.sumsqr(arm6.global_link_position("ee", q) - goal))
        b.add_cost_term("regularizer", 1e-6 * to.sumsqr(q - nominal))
        b.enforce_model_limits("arm6")
        s = Solver(b.build()).setup("sqp")
        rng = np.random.default_rng(0)
        iterations = []
        for _ in range(40):
            q_goal = pose + rng.uniform(-0.5, 0.5, 6)
            s.reset_parameters({"goal": arm6.global_link_position("ee", q_goal), "nominal": pose})
            s.reset_initial_seed({"arm6/0": q_goal + rng.uniform(-0.1, 0.1, 6)})
            sol = s.solve()
            assert sol.termination != "max-iterations"
            iterations.append(sol.iterations)
        assert np.median(iterations) <= 10, iterations

    def test_bound_rows_with_coefficients_and_duplicates(self):
        # 2 x0 >= p0 (coefficient 2, constant from a parameter), two lower
        # bounds on x1 (x1 >= -0.5 and x1 >= p1), x2 <= 1 written as
        # -3 x2 + 3 >= 0, and one general row x1 + x2 <= 0.2.  With p =
        # (3, -0.2) the optimum is (1.5, -0.2, 0.4): the coefficient-2 row,
        # the tighter x1 row and the general row are active.
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 3)
        p = b.add_parameter("p", 2)
        b.add_cost_term("c", to.sumsqr(x - to.constant([1.0, -1.0, 0.5])))
        b.add_leq_inequality_constraint("x0", p[0, 0], 2.0 * x[0, 0])
        b.add_leq_inequality_constraint("x1_fixed", -0.5, x[1, 0])
        b.add_leq_inequality_constraint("x1_param", p[1, 0], x[1, 0])
        b.add_leq_inequality_constraint("x2", 0.0, -3.0 * x[2, 0] + 3.0)
        b.add_leq_inequality_constraint("sum", x[1, 0] + x[2, 0], 0.2)
        prob = b.build()
        rows, cols, coefs = prob._bounds
        assert rows.tolist() == [0, 1, 2, 3] and cols.tolist() == [0, 1, 1, 2]
        assert coefs.tolist() == [2.0, 1.0, 1.0, -3.0]
        s = Solver(prob).setup("sqp")
        s.reset_parameters({"p": [3.0, -0.2]})
        sol = s.solve()
        assert sol.success and sol.termination == "kkt-tolerance"
        assert sol.x == pytest.approx([1.5, -0.2, 0.4], abs=1e-9)
        P = prob.parameters.vectorize({"p": [3.0, -0.2]})
        assert sol.objective == prob.objective(sol.x, P)
        assert sol.report == prob.feasibility(sol.x, P)

    def test_horizon_bounds_stay_out_of_qp_rows(self, monkeypatch, horizon_task):
        T = 4
        robot, b = horizon_task(T)
        p = b.build()
        assert p._bounds[0].size == p.n_k  # every limit row bounds one variable
        calls = []

        def recording(H, q, C, l, u, *args, **kwargs):
            calls.append((np.asarray(C), kwargs.get("lb"), kwargs.get("ub")))
            return solve_qp(H, q, C, l, u, *args, **kwargs)

        monkeypatch.setattr(sqp_module, "solve_qp", recording)
        path = np.stack([np.linspace(0.3, 0.6, T), np.full(T, 0.5)])
        ref = np.stack([robot.global_link_position("ee", q) for q in path.T], axis=1)
        s = Solver(p).setup("sqp")
        s.reset_parameters({"ref": ref, "qc": path[:, 0]})
        assert s.solve().success
        assert calls
        for C, lb, ub in calls:
            assert C.shape[0] == p.n_a + p.n_h + p.n_g  # no k row is a row of C
            assert lb is not None and ub is not None

    def test_equality_rows_factored_once_per_session(self, monkeypatch, horizon_task):
        T = 4
        robot, b = horizon_task(T)
        p = b.build()
        shapes = []
        qr = qp_module.scipy.linalg.qr

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(qp_module.scipy.linalg, "qr", recording)
        path = np.stack([np.linspace(0.3, 0.6, T + 3), np.full(T + 3, 0.5)])
        ref = np.stack([robot.global_link_position("ee", q) for q in path.T], axis=1)
        s = Solver(p).setup("sqp")
        for t in range(4):  # warm solves along the reference, one stage apart
            s.reset_parameters({"ref": ref[:, t : t + T], "qc": path[:, t]})
            sol = s.solve()
            assert sol.success
            s.reset_initial_seed(sol)
        assert shapes == [(p.n_x, p.n_a)]  # A' once, for the null-space basis

    def test_null_space_follows_a_parameter_of_the_rows(self):
        # the Euler rows' step is a parameter, so A changes with it
        T = 4
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
        b.integrate_model_states("arm", 1, b.add_parameter("step"))
        b.enforce_model_limits("arm")
        p = b.build()
        path = np.stack([np.linspace(0.3, 0.6, T), np.full(T, 0.5)])
        tips = np.stack([r.global_link_position("ee", q) for q in path.T], axis=1)

        def params(step):
            return {"ref": tips, "qc": path[:, 0], "step": step}

        A1 = p.lin_eq(p.parameters.vectorize(params(0.1)))[0]
        A2 = p.lin_eq(p.parameters.vectorize(params(0.05)))[0]
        assert not np.array_equal(A1, A2)
        session = Solver(p).setup("sqp")
        session.reset_parameters(params(0.1))
        assert session.solve().success
        answers = []
        for s in (session, Solver(p).setup("sqp")):
            s.reset_parameters(params(0.05))
            s.reset_initial_seed({"arm/0": path})
            sol = s.solve()
            assert sol.success
            answers.append((sol.x.tobytes(), sol.iterations))
        assert answers[0] == answers[1]

    def test_horizon_with_a_duplicated_pin(self, horizon_task):
        # the second pin repeats the first, so A is rank-deficient
        T = 4
        robot, b = horizon_task(T)
        qc = b.add_parameter("qc_again", 2)
        b.add_equality_constraint("init_again", b.get_model_state("arm", 0), qc)
        p = b.build()
        path = np.stack([np.linspace(0.3, 0.6, T), np.full(T, 0.5)])
        ref = np.stack([robot.global_link_position("ee", q) for q in path.T], axis=1)
        s = Solver(p).setup("sqp")
        s.reset_parameters({"ref": ref, "qc": path[:, 0], "qc_again": path[:, 0]})
        sol = s.solve()
        assert sol.success and sol.report.ok(1e-9)
        assert np.abs(sol["arm/0"][:, 0] - path[:, 0]).max() <= 1e-9

    def test_contradictory_equality_rows_take_the_elastic_retry(self, monkeypatch):
        # x0 + x1 = 1 and x0 + x1 = 2: the null-space QP finds the rows
        # inconsistent, and the elastic QP, which keeps them as rows, makes
        # the step.  Every sum in [1, 2] violates the rows by 1 in all, and
        # the cost picks 1.
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", 1e-3 * to.sumsqr(x))
        b.add_equality_constraint("one", x[0, 0] + x[1, 0], 1.0)
        b.add_equality_constraint("two", x[0, 0] + x[1, 0], 2.0)
        calls = []

        def recording(*args, **kwargs):
            res = solve_qp(*args, **kwargs)
            calls.append((kwargs.get("_null_space") is not None, res.termination))
            return res

        monkeypatch.setattr(sqp_module, "solve_qp", recording)
        sol = Solver(b.build()).setup("sqp").solve()
        assert not sol.success
        assert calls[:2] == [(True, "infeasible"), (False, "kkt-tolerance")]
        assert sol.x == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_rows_leaving_no_free_direction(self):
        # two independent rows on two variables: the null space is empty
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        p = b.add_parameter("p")
        b.add_cost_term("c", to.sumsqr(to.sin(x)) + x[0, 0] * x[1, 0])
        b.add_equality_constraint("sum", x[0, 0] + x[1, 0], 1.0)
        b.add_equality_constraint("diff", x[0, 0] - x[1, 0], p)
        b.add_leq_inequality_constraint("box", x, 2.0)
        prob = b.build()
        assert prob.n_a == prob.n_x == 2
        s = Solver(prob).setup("sqp")
        s.reset_parameters({"p": 0.4})
        sol = s.solve()
        assert sol.success
        assert sol.x == pytest.approx([0.7, 0.3], abs=1e-12)
        assert s._adapter._null_space.Z.shape == (2, 0)

    def test_solve_reports_on_the_last_point(self):
        p = _obstacle_reach_problem()
        counting = _CountingProblem(p)
        start = [0.5 * np.pi, 0.0]
        s = Solver(counting).setup("sqp")
        s.reset_parameters({"start": start})
        s.reset_initial_seed({"arm/0": np.tile(np.reshape(start, (2, 1)), 3)})
        sol = s.solve()
        assert sol.success
        repeated = sorted(name for (name, _), k in counting.calls.items() if k > 1)
        assert repeated == []
        P = p.parameters.vectorize({"start": start})
        assert sol.objective == p.objective(sol.x, P)
        assert sol.report == p.feasibility(sol.x, P)

    def test_nan_at_seed(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 1)
        b.add_cost_term("c", to.log(x))
        s = Solver(b.build()).setup("sqp")
        s.reset_initial_seed({"x": [-1.0]})
        sol = s.solve()
        assert sol.termination == "nan"
        assert sol.success is False
        assert sol.iterations == 0

    def test_determinism(self):
        arm, p = _ik_problem()
        runs = []
        for _ in range(2):
            s = Solver(p).setup("sqp")
            s.reset_parameters({"goal": [1.3, 0.4, 0.0]})
            s.reset_initial_seed({"arm/0": [0.4, 0.6]})
            sol = s.solve()
            runs.append((sol.x.copy(), s.stats().objective_history.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


class TestSolutionAndStats:
    def test_blocks_round_trip(self):
        p = _qp_problem()
        sol = Solver(p).setup("qp").solve()
        assert np.array_equal(p.decision.vectorize(sol.blocks), sol.x)

    def test_stats_before_solve(self):
        s = Solver(_qp_problem()).setup("qp")
        with pytest.raises(RuntimeError):
            s.stats()

    def test_solution_mapping_interface(self):
        sol = Solver(_qp_problem()).setup("qp").solve()
        assert "x" in sol
        assert sol["x"].shape == (2, 1)


class TestInterpolate:
    def _solution_with_trajectory(self):
        blocks = {"arm/0": np.array([[0.0, 1.0, 4.0], [0.0, -1.0, -4.0]])}
        return blocks

    def test_grid_point_exact(self):
        blocks = self._solution_with_trajectory()
        out = interpolate(blocks, "arm/0", [0.0, 1.0, 2.0], [1.0])
        assert np.allclose(out.ravel(), [1.0, -1.0])

    def test_midpoint_mean(self):
        blocks = self._solution_with_trajectory()
        out = interpolate(blocks, "arm/0", [0.0, 1.0, 2.0], [1.5])
        assert np.allclose(out.ravel(), [2.5, -2.5])

    def test_dense_resampling_preserves_endpoints(self):
        blocks = self._solution_with_trajectory()
        dense = interpolate(blocks, "arm/0", [0.0, 1.0, 2.0], np.linspace(0, 2, 101))
        assert np.allclose(dense[:, 0], blocks["arm/0"][:, 0])
        assert np.allclose(dense[:, -1], blocks["arm/0"][:, -1])

    def test_out_of_range(self):
        blocks = self._solution_with_trajectory()
        with pytest.raises(ValueError):
            interpolate(blocks, "arm/0", [0.0, 1.0, 2.0], [2.5])


class TestAdapterContract:
    def test_mock_adapter_returns_seed(self):
        class EchoAdapter(SolverAdapter):
            accepts = None

            def initialize(self, problem, options):
                self.converged = True
                self.termination = "echo"

            def solve(self, x0, params):
                return x0

        register_solver("echo-test", EchoAdapter)
        arm, p = _ik_problem()
        s = Solver(p).setup("echo-test")
        seed = {"arm/0": [0.25, -0.5]}
        s.reset_initial_seed(seed)
        s.reset_parameters({"goal": arm.global_link_position("ee", [0.25, -0.5])})
        sol = s.solve()
        assert np.allclose(sol["arm/0"].ravel(), [0.25, -0.5])
        # lifecycle plumbing: seed went in, named blocks came back out
        assert sol.termination == "echo"

    def test_adapter_without_statistics_reports_empty(self):
        class SilentAdapter(SolverAdapter):
            def initialize(self, problem, options):
                self.converged = True
                self.termination = "done"
                self.n = problem.n_x

            def solve(self, x0, params):
                return np.zeros(self.n)

        register_solver("silent-test", SilentAdapter)
        p = _qp_problem()
        s = Solver(p).setup("silent-test")
        s.solve()
        st = s.stats()
        assert st.iterations == 0
        assert st.objective_history.size == 0

    def test_duplicate_tag_rejected(self):
        class Dup(SolverAdapter):
            pass

        with pytest.raises(ValueError):
            register_solver("sqp", Dup)
