import collections

import numpy as np
import pytest

import taskopt as to
from taskopt import expr, problem, spatial
from taskopt.expr import CompiledFunction
from taskopt.builder import MIN_TIME_STEP, BuildError
from taskopt.problem import ProblemClass


class TestTaskModel:
    def test_position_velocity(self):
        m = to.TaskModel("eff_path", 3, (0, 1))
        assert m.ndof == 3
        assert m.time_derivs == (0, 1)

    def test_scalar_path(self):
        m = to.TaskModel("angle", 1)
        assert m.time_derivs == (0,)

    def test_zero_dimension(self):
        with pytest.raises(ValueError):
            to.TaskModel("bad", 0)

    def test_duplicate_order(self):
        with pytest.raises(ValueError):
            to.TaskModel("bad", 2, (0, 0))

    def test_orders_must_start_at_zero(self):
        with pytest.raises(ValueError):
            to.TaskModel("bad", 2, (1,))


class TestBuilderState:
    def test_block_shapes_trailing(self, planar2r):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(10, robots=[r], derivs_align=False)
        assert b.decision.shape_of("arm/0") == (2, 10)
        assert b.decision.shape_of("arm/1") == (2, 9)

    def test_block_shapes_aligned(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(10, robots=[r], derivs_align=True)
        assert b.decision.shape_of("arm/0") == (2, 10)
        assert b.decision.shape_of("arm/1") == (2, 10)

    def test_optimize_time_block(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(10, robots=[r], optimize_time=True)
        assert b.decision.shape_of("dt") == (1, 9)

    def test_duplicate_model_names(self):
        r1 = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        r2 = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        with pytest.raises(ValueError):
            to.TaskBuilder(5, robots=[r1, r2])

    def test_order_without_columns(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        with pytest.raises(ValueError):
            to.TaskBuilder(1, robots=[r], derivs_align=False)

    def test_task_blocks_match_robot_blocks(self):
        # task-model state blocks ride the same registration path as robots
        task = to.TaskModel("path", 3, (0, 1))
        b = to.TaskBuilder(4, tasks=[task])
        assert b.decision.shape_of("path/0") == (3, 4)
        assert b.decision.shape_of("path/1") == (3, 3)
        col = b.get_model_state("path", -1)
        assert col.shape == (3, 1)

    def test_task_model_solves_like_a_robot(self):
        # full interchangeability: integration and retrieval on a pure task
        # trajectory, solved as a QP
        from taskopt.solvers import Solver

        task = to.TaskModel("path", 2, (0, 1))
        T = 5
        b = to.TaskBuilder(T, tasks=[task])
        start = b.add_parameter("start", 2)
        goal = b.add_parameter("goal", 2)
        b.add_equality_constraint("init", b.get_model_state("path", 0), start)
        b.add_equality_constraint("final", b.get_model_state("path", -1), goal)
        b.integrate_model_states("path", 1, 0.25)
        b.add_cost_term("effort", to.sumsqr(b.model_block("path", 1)))
        s = Solver(b.build()).setup("qp")
        s.reset_parameters({"start": [0.0, 1.0], "goal": [1.0, -1.0]})
        sol = s.solve()
        assert sol.success
        traj = sol["path/0"]
        assert np.allclose(traj[:, 0], [0.0, 1.0], atol=1e-6)
        assert np.allclose(traj[:, -1], [1.0, -1.0], atol=1e-6)
        # minimum-effort solution is the straight line
        assert np.allclose(traj[0], np.linspace(0.0, 1.0, T), atol=1e-5)


class TestGetModelState:
    @pytest.fixture()
    def builder(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        return to.TaskBuilder(5, robots=[r])

    def test_first_column(self, builder):
        col = builder.get_model_state("arm", 0)
        flat = builder.decision.vectorize(
            {"arm/0": np.arange(10.0).reshape(2, 5, order="F")}
        )
        # evaluating the column against the container layout
        vals = to.evaluate(col, {"arm/0": np.arange(10.0).reshape(2, 5, order="F")})
        assert np.allclose(vals.ravel(), [0.0, 1.0])

    def test_negative_index(self, builder):
        col = builder.get_model_state("arm", -1)
        q = np.arange(10.0).reshape(2, 5, order="F")
        assert np.allclose(to.evaluate(col, {"arm/0": q}).ravel(), q[:, -1])

    def test_unregistered_order(self, builder):
        with pytest.raises(KeyError):
            builder.get_model_state("arm", 0, time_deriv=2)

    def test_out_of_range(self, builder):
        with pytest.raises(IndexError):
            builder.get_model_state("arm", 5)


class TestVariablesAndCosts:
    def test_add_decision_variables(self):
        b = to.TaskBuilder(3)
        s = b.add_decision_variables("slack", 1, 3)
        assert s.shape == (1, 3)
        with pytest.raises(ValueError):
            b.add_decision_variables("slack")

    def test_add_parameter(self):
        b = to.TaskBuilder(1)
        pg = b.add_parameter("pg", 3)
        r = b.add_parameter("r")
        assert pg.shape == (3, 1) and r.shape == (1, 1)
        with pytest.raises(ValueError):
            b.add_parameter("pg")

    def test_cost_term_must_be_scalar(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        with pytest.raises(ValueError):
            b.add_cost_term("bad", x)

    def test_cost_additivity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            b1 = to.TaskBuilder(1)
            x1 = b1.add_decision_variables("x", 3)
            b1.add_cost_term("c0", to.sumsqr(x1))
            p1 = b1.build()

            b2 = to.TaskBuilder(1)
            x2 = b2.add_decision_variables("x", 3)
            b2.add_cost_term("c0", to.sumsqr(x2))
            b2.add_cost_term("c1", to.dot(x2, to.constant([1.0, 2.0, 3.0])))
            p2 = b2.build()

            X = rng.normal(size=3)
            extra = X @ np.array([1.0, 2.0, 3.0])
            assert p2.objective(X) - p1.objective(X) == pytest.approx(extra, abs=1e-12)


class TestConstraints:
    def test_equality_routed_linear(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        qc = b.add_parameter("qc", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_equality_constraint("init", x, qc)
        p = b.build()
        assert p.n_a == 2 and p.n_h == 0

    def test_fk_coupling_routed_nonlinear(self, planar2r):
        task = to.TaskModel("path", 3)
        b = to.TaskBuilder(1, robots=[_arm()], tasks=[task])
        q = b.get_model_state("arm", 0)
        s = b.get_model_state("path", 0)
        b.add_cost_term("c", to.sumsqr(s))
        b.add_equality_constraint("couple", _arm.model.global_link_position("ee", q), s)
        p = b.build()
        # x and y rows are trigonometric; the z row (0 == s_z) is affine
        assert p.n_h == 2 and p.n_a == 1

    def test_degenerate_equality_dropped_with_warning(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_equality_constraint("noop", to.constant(0.0), to.constant(0.0))
        with pytest.warns(UserWarning, match="dropped"):
            p = b.build()
        assert p.n_a == 0 and p.n_h == 0

    def test_degenerate_satisfied_inequality_dropped(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("noop", 1.0, 2.0)
        with pytest.warns(UserWarning, match="dropped"):
            p = b.build()
        assert p.n_k == 0

    def test_degenerate_violated_raises(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 2)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("bad", 2.0, 1.0)
        with pytest.raises(BuildError):
            b.build()

    def test_empty_problem(self):
        b = to.TaskBuilder(1)
        b.add_decision_variables("x", 2)
        with pytest.raises(BuildError):
            b.build()

    def test_no_derivative_is_built_twice(self, monkeypatch):
        # limit rows (k), Euler rows (a), an obstacle row (g) and a tip
        # equality (h) beside a nonlinear cost on the same tip
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(3, robots=[r])
        goal = b.add_parameter("goal", 3)
        tip = r.global_link_position("ee", b.get_model_state("arm", -1))
        middle = r.global_link_position("ee", b.get_model_state("arm", 1))
        b.add_cost_term("reach", to.sumsqr(tip - goal))
        b.enforce_model_limits("arm")
        b.integrate_model_states("arm", 1, 0.1)
        b.add_leq_inequality_constraint("obstacle", 0.09, to.sumsqr(middle - [1.0, 1.0, 0.0]))
        b.add_equality_constraint("tip", tip, goal)

        built = collections.Counter()
        diff = expr._diff

        def counting(n, leaf, cache):
            # the (node, leaf) pairs that get past the early returns and miss the cache
            if n is not leaf and leaf in expr._deps(n) and (id(n), id(leaf)) not in cache:
                built[n, leaf] += 1
            return diff(n, leaf, cache)

        monkeypatch.setattr(expr, "_diff", counting)
        p = b.build()
        assert min(p.n_k, p.n_a, p.n_g, p.n_h) > 0
        assert p.classification is ProblemClass.NONLINEAR_COST_AND_CONSTRAINTS
        assert built and max(built.values()) == 1

    def test_shape_broadcast(self):
        b = to.TaskBuilder(1)
        x = b.add_decision_variables("x", 3)
        b.add_cost_term("c", to.sumsqr(x))
        b.add_leq_inequality_constraint("bound", x, 1.0)  # scalar broadcast
        p = b.build()
        assert p.n_k == 3


class TestModelLimits:
    def test_row_count(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        T = 6
        b = to.TaskBuilder(T, robots=[r])
        b.add_cost_term("c", to.sumsqr(b.model_block("arm")))
        b.enforce_model_limits("arm")
        p = b.build()
        assert p.n_k == 2 * 2 * T

    def test_velocity_rows_when_order_registered(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        T = 4
        b = to.TaskBuilder(T, robots=[r])
        b.add_cost_term("c", to.sumsqr(b.model_block("arm")))
        b.enforce_model_limits("arm")
        p = b.build()
        assert p.n_k == 2 * 2 * T + 2 * 2 * (T - 1)

    def test_continuous_joint_produces_no_position_rows(self):
        doc = """
        <robot name="spinner">
          <link name="base"/><link name="disc"/>
          <joint name="spin" type="continuous">
            <parent link="base"/><child link="disc"/>
            <axis xyz="0 0 1"/>
          </joint>
        </robot>
        """
        r = to.RobotModel(doc, tip="disc", name="spinner")
        b = to.TaskBuilder(3, robots=[r])
        b.add_cost_term("c", to.sumsqr(b.model_block("spinner")))
        b.enforce_model_limits("spinner")
        p = b.build()
        assert p.n_k == 0

    def test_task_model_rejected(self):
        b = to.TaskBuilder(2, tasks=[to.TaskModel("path", 2)])
        with pytest.raises(TypeError):
            b.enforce_model_limits("path")

    def test_limit_rows_decompose_with_unit_coefficients(self):
        rng = np.random.default_rng(13)
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        T = 3
        b = to.TaskBuilder(T, robots=[r])
        b.add_cost_term("c", to.sumsqr(b.model_block("arm")))
        b.enforce_model_limits("arm")
        p = b.build()
        M, c = p.lin_ineq(np.zeros(0))
        # every limit row reads off exactly one state entry
        assert np.all(np.isin(M, (-1.0, 0.0, 1.0)))
        assert np.all(np.abs(M).sum(axis=1) == 1.0)
        for _ in range(10):
            X = rng.normal(size=p.n_x)
            assert np.abs(p.constraints(X).k - (M @ X + c)).max() <= 1e-12

    def test_violated_seed_projected_feasible_by_qp(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        b = to.TaskBuilder(1, robots=[r])
        q = b.get_model_state("arm", 0)
        seed = b.add_parameter("seed", 2)
        b.add_cost_term("c", to.sumsqr(q - seed))
        b.enforce_model_limits("arm")
        from taskopt.solvers import Solver

        s = Solver(b.build()).setup("qp")
        violated = np.array([4.5, -5.0])  # outside the +-pi limits
        s.reset_parameters({"seed": violated})
        s.reset_initial_seed({"arm/0": violated})
        sol = s.solve()
        assert sol.success
        assert np.allclose(sol["arm/0"].ravel(), np.clip(violated, -np.pi, np.pi), atol=1e-6)


class TestIntegration:
    def test_fixed_dt_linear(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(5, robots=[r])
        b.add_cost_term("c", to.sumsqr(b.model_block("arm", 1)))
        b.integrate_model_states("arm", 1, 0.1)
        p = b.build()
        assert p.n_a == 2 * 4 and p.n_h == 0

    def test_optimized_dt_nonlinear(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(5, robots=[r], optimize_time=True)
        b.add_cost_term("c", to.sumsqr(b.model_block("arm", 1)))
        b.integrate_model_states("arm", 1)
        p = b.build()
        assert p.n_h == 2 * 4 and p.n_a == 0
        assert p.n_k == 4  # dt lower bounds

    def test_dt_bound_value(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(3, robots=[r], optimize_time=True)
        b.add_cost_term("c", to.sumsqr(b.model_block("arm", 1)))
        b.integrate_model_states("arm", 1)
        p = b.build()
        M, c = p.lin_ineq(np.zeros(0))
        X = p.decision.vectorize({"dt": np.full((1, 2), MIN_TIME_STEP)})
        assert np.allclose(M @ X + c, 0.0, atol=1e-15)

    def test_missing_order(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
        b = to.TaskBuilder(5, robots=[r])
        with pytest.raises(KeyError):
            b.integrate_model_states("arm", 1, 0.1)

    def test_residual_matches_euler(self):
        rng = np.random.default_rng(1)
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm", time_derivs=(0, 1))
        b = to.TaskBuilder(4, robots=[r])
        b.add_cost_term("c", to.sumsqr(b.model_block("arm", 1)))
        b.integrate_model_states("arm", 1, 0.5)
        p = b.build()
        q = rng.normal(size=(2, 4))
        dq = rng.normal(size=(2, 3))
        X = p.decision.vectorize({"arm/0": q, "arm/1": dq})
        _, a, _, _ = p.constraints(X)
        expected = (q[:, 1:] - q[:, :-1] - 0.5 * dq).ravel(order="F")
        assert np.abs(a - expected).max() <= 1e-14


class TestHorizonGrowth:
    def test_compiled_entries_grow_linearly(self, monkeypatch, horizon_task):
        # entries handed to CompiledFunction: nonzeros for a sparse piece,
        # every entry for a dense expression
        handed = {}

        class Recording(CompiledFunction):
            def __init__(self, e, layouts):
                super().__init__(e, layouts)
                handed[id(self)] = len(e[2]) if isinstance(e, tuple) else e.rows * e.cols

        monkeypatch.setattr(problem, "CompiledFunction", Recording)
        counts = []
        for T in (4, 8):
            p = horizon_task(T)[1].build()
            counts.append(np.array([handed[id(fn)] for fn in (p._hess, p._M, p._A)]))
        # a stage adds a fixed number of nonzeros; dense n x n or rows x n pieces grow about 4x
        assert (counts[1] <= 2.25 * counts[0]).all(), counts

    def test_hessian_blocks_follow_the_stages(self, monkeypatch, horizon_task):
        hess_positions = {}

        class Recording(CompiledFunction):
            def __init__(self, e, layouts):
                super().__init__(e, layouts)
                hess_positions[id(self)] = e[1] if isinstance(e, tuple) else None

        monkeypatch.setattr(problem, "CompiledFunction", Recording)
        counts, widths = [], []
        for T in (4, 8):
            p = horizon_task(T)[1].build()
            rows = [row for group in p.hessian_blocks for row in group]
            for group in p.hessian_blocks:
                assert not group.flags.writeable
                assert (np.diff(group, axis=1) > 0).all()
            # a partition of the columns...
            block_of = np.full(p.n_x, -1)
            for k, row in enumerate(rows):
                assert (block_of[row] == -1).all()
                block_of[row] = k
            assert (block_of >= 0).all()
            # ...that no structural nonzero of the Hessian crosses
            i, j = np.divmod(np.array(hess_positions[id(p._hess)]), p.n_x)
            assert i.size and (block_of[i] == block_of[j]).all()
            counts.append(len(rows))
            widths.append(max(row.size for row in rows))
        # a stage adds blocks; it does not widen them
        assert counts[1] > counts[0] and widths[1] == widths[0] > 1, (counts, widths)

    def test_cost_coupling_the_stages_is_one_block(self, horizon_task):
        r, b = horizon_task(4)
        q, qd = b.model_block("arm", 0), b.model_block("arm", 1)
        b.add_cost_term("euler", to.sumsqr(q[:, 1:] - q[:, :-1] - 0.1 * qd))
        p = b.build()
        assert [group.shape for group in p.hessian_blocks] == [(1, p.n_x)]

    def test_joint_origins_built_once_per_model(self, monkeypatch, horizon_task):
        calls = []
        rpy_to_matrix = spatial.rpy_to_matrix

        def counting(rpy):
            calls.append(rpy)
            return rpy_to_matrix(rpy)

        monkeypatch.setattr(spatial, "rpy_to_matrix", counting)
        r, b = horizon_task(8)
        b.build()
        assert 0 < len(calls) <= len(to.extract_chain(r.urdf, r.base_link, "ee"))


def _arm():
    return _arm.model


_arm.model = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
