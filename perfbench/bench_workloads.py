"""The benchmark's workloads: inputs from a seed, set-up, one op, and its answer check.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Inputs come only from the seed: goals and
reference windows are the forward kinematics of smooth, seeded joint-space
paths inside the arm's limits, so every goal is reachable and a position
check is valid.

A workload object exposes

* ``setup(tr)``: URDF load, symbolic spec, ``TaskBuilder.build()`` and
  ``Solver.setup()``; returns the loop state (``None`` for ``transcribe``,
  whose ops each set up their own problem);
* ``op(tr, state, k)``: op ``k`` of the loop, returning an :class:`Answer`;
* ``check(k, answer)``: ``None`` when the answer is right, else the reason.

``tr`` is a tracer from :mod:`bench_tracing`; every call into taskopt goes
through it so the traced run can attribute time to layers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from taskopt import RobotModel, Solver, TaskBuilder, extract_chain, fixture_path, load_urdf
from taskopt import expr as ex

ARM = "arm"
BLOCK = f"{ARM}/0"
# Seed pose of the CLI ``dims`` command: elbow bent, wrist off its singularity.
ARM6_POSE = np.array([0.0, 0.6, 0.8, 0.0, 0.5, 0.0])


@dataclass
class Answer:
    """What one op returned, as the check and the fingerprint need it."""

    arrays: tuple  # compared bit for bit between traced and untraced runs
    objective: float = 0.0
    iterations: int = 0
    success: bool = True
    setup_s: float = 0.0  # set-up time inside the op (``transcribe`` only)
    values: dict = field(default_factory=dict)


# Frequencies (rad per unit path length) of the eight sinusoids per joint,
# spread over [0.5, 1.5) by the golden ratio so no two are commensurate.
PATH_FREQUENCIES = 0.5 + np.mod(np.arange(1, 49) * 0.6180339887498949, 1.0).reshape(8, 1, 6)


def joint_path(rng: np.random.Generator, samples: int, step: float = 0.05) -> np.ndarray:
    """``samples x 6`` smooth joint path around a jittered arm6 pose.

    Eight sinusoids per joint, amplitude 0.06 rad, at fixed incommensurate
    frequencies; the seed draws the phases and a small shift of the centre.
    Paths from different seeds are therefore alike in speed and reach but
    visit different configurations, and a long path keeps visiting new ones.
    Every joint stays within 0.58 rad of ``ARM6_POSE``, inside arm6's limits,
    and consecutive samples differ by under 0.036 rad per joint.
    """
    center = ARM6_POSE + rng.uniform(-0.1, 0.1, 6)
    phase = rng.uniform(0.0, 2.0 * math.pi, (8, 1, 6))
    s = step * np.arange(samples)[:, None]
    return center + 0.06 * np.sum(np.sin(PATH_FREQUENCIES * s + phase), axis=0)


def _rpy_matrix(rpy) -> np.ndarray:
    r, p, y = rpy
    cr, sr, cp, sp, cy, sy = np.cos(r), np.sin(r), np.cos(p), np.sin(p), np.cos(y), np.sin(y)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def tip_positions(path: np.ndarray) -> np.ndarray:
    """arm6 ``ee`` positions for each row of ``path``, by a numpy forward kinematics.

    Input generation only: vectorised over the path, so a run's goals cost
    milliseconds, and independent of taskopt's symbolic kinematics apart from
    the parsed URDF.  The benchmark's tests check it against ``RobotModel``.
    """
    model = load_urdf(fixture_path("arm6"))
    chain = extract_chain(model, model.root, "ee")
    n = path.shape[0]
    R = np.tile(np.eye(3), (n, 1, 1))
    p = np.zeros((n, 3))
    i = 0
    for joint in chain:
        p = p + R @ np.asarray(joint.origin_xyz)
        R = R @ _rpy_matrix(joint.origin_rpy)
        if joint.actuated:
            if joint.type not in ("revolute", "continuous"):
                raise ValueError(f"joint type {joint.type!r} not supported here")
            u = np.asarray(joint.axis)
            K = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
            th = path[:, i, None, None]
            R = R @ (np.eye(3) + np.sin(th) * K + (1.0 - np.cos(th)) * (K @ K))
            i += 1
    return p


def episode_goals(rng: np.random.Generator, episodes: int, length: int, step: float = 0.05):
    """Joint paths and tip positions of ``episodes`` independent paths: ``(E, L, 6)``, ``(E, L, 3)``.

    A run that spans several episodes averages over several regions of the
    workspace, so its figures differ less from seed to seed.
    """
    paths = np.array([joint_path(rng, length, step) for _ in range(episodes)])
    return paths, np.array([tip_positions(p) for p in paths])


class Track:
    """arm6 end-pose IK with joint limits, warm-started waypoint to waypoint.

    Each episode of ``episode`` waypoints is seeded at its start with the
    configuration that generated its first goal, as a controller handed
    over mid-motion would be.  At this path speed nearly every warm waypoint
    takes 1 or 2 SQP iterations; at twice the speed some seeds' paths cross
    stretches where warm waypoints stall for 25 to 40 iterations, in numbers
    near the ten ops the tail percentile leaves beyond it.
    """

    name = "track"
    setup_reps = 15
    trace_ops = 200
    builds_per_setup = 1
    episode = 100
    episodes = 40
    step = 0.025
    regularizer = 1e-6  # CLI ``track`` default
    position_tolerance = 1e-4  # 0.1 mm; the regularizer alone leaves a few um

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.paths, self.goals = episode_goals(rng, self.episodes, self.episode, self.step)
        self.nominal = ARM6_POSE

    def setup(self, tr):
        model = tr.call("urdf.load", load_urdf, fixture_path("arm6"))
        with tr.span("builder.spec"):
            robot = RobotModel(model, tip="ee", name=ARM)
            b = TaskBuilder(1, robots=[robot])
            q = b.get_model_state(ARM, 0)
            goal = b.add_parameter("goal", 3)
            nominal = b.add_parameter("nominal", robot.ndof)
            b.add_cost_term("goal", ex.sumsqr(robot.global_link_position("ee", q) - goal))
            b.add_cost_term("regularizer", self.regularizer * ex.sumsqr(q - nominal))
            b.enforce_model_limits(ARM)
        problem = tr.call("builder.build.T1", b.build)
        tr.count_problem(problem)
        session = tr.call("solvers.setup", Solver(tr.wrap(problem)).setup, "sqp")
        return {"robot": robot, "session": session}

    def op(self, tr, state, k):
        session, robot = state["session"], state["robot"]
        e, j = divmod(k, self.episode)
        e %= self.episodes
        goal = self.goals[e, j]
        seed = self.paths[e, 0] if j == 0 else state["q"]
        tr.call("solvers.reset", session.reset_parameters, {"goal": goal, "nominal": self.nominal})
        tr.call("solvers.reset", session.reset_initial_seed, {BLOCK: seed})
        sol = tr.solve(session)
        q = sol[BLOCK][:, 0]
        tip = tr.call("kinematics.fk", robot.global_link_position, "ee", q)
        manip = tr.call("kinematics.fk", robot.manipulability, "ee", q, rows=(0, 1))
        state["q"] = q
        return Answer(
            arrays=(sol.x,),
            objective=sol.objective,
            iterations=sol.iterations,
            success=sol.success,
            values={"error": float(np.linalg.norm(tip - goal)), "manipulability": manip},
        )

    def check(self, k, ans):
        if not ans.success:
            return "solve unsuccessful"
        if not ans.values["error"] <= self.position_tolerance:
            return f"tip error {ans.values['error']:.3e} m"
        if not math.isfinite(ans.values["manipulability"]):
            return "manipulability not finite"
        return None


def horizon_spec(tr, T: int, dt: float, velocity_weight: float):
    """The receding-horizon arm6 task: stage-wise tip tracking, Euler steps, limits, pinned start."""
    model = tr.call("urdf.load", load_urdf, fixture_path("arm6"))
    with tr.span("builder.spec"):
        robot = RobotModel(model, tip="ee", name=ARM, time_derivs=(0, 1))
        b = TaskBuilder(T, robots=[robot])
        ref = b.add_parameter("ref", 3, T)
        qc = b.add_parameter("qc", robot.ndof)
        tracking = ex.constant(0.0)
        for t in range(T):
            tip = robot.global_link_position("ee", b.get_model_state(ARM, t))
            tracking = tracking + ex.sumsqr(tip - ref[:, t])
        b.add_cost_term("tracking", tracking)
        b.add_cost_term("velocity", velocity_weight * ex.sumsqr(b.model_block(ARM, 1)))
        b.add_equality_constraint("init", b.get_model_state(ARM, 0), qc)
        b.integrate_model_states(ARM, 1, dt)
        b.enforce_model_limits(ARM)
    problem = tr.call(f"builder.build.T{T}", b.build)
    tr.count_problem(problem)
    return robot, problem


class Mpc:
    """arm6 receding horizon: shift the reference window, pin the next state, warm start.

    Each episode of ``episode`` steps starts on a fresh path, seeded with
    the path's own states and rates over the first horizon.  That first
    solve takes 3 or 4 SQP iterations against mostly 1 for a warm step along
    the slow reference.  A run spans some fifty episodes, so its mix of warm
    steps averages over many stretches of path, and its episode starts, well
    over the ten ops the tail percentile leaves beyond it, set the tail.
    """

    name = "mpc"
    setup_reps = 5
    trace_ops = 40
    builds_per_setup = 1
    episode = 10
    episodes = 80
    step = 0.00625
    T = 10
    dt = 0.1
    velocity_weight = 1e-3
    pin_tolerance = 1e-6

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.paths, self.goals = episode_goals(rng, self.episodes, self.episode + self.T, self.step)

    def setup(self, tr):
        robot, problem = horizon_spec(tr, self.T, self.dt, self.velocity_weight)
        session = tr.call("solvers.setup", Solver(tr.wrap(problem)).setup, "sqp")
        return {"robot": robot, "session": session}

    def op(self, tr, state, k):
        e, j = divmod(k, self.episode)
        e %= self.episodes
        if j == 0:
            q = self.paths[e, : self.T].T
            state["q0"] = q[:, 0]
            state["seed"] = {BLOCK: q, f"{ARM}/1": np.diff(q, axis=1) / self.dt}
        session, robot, q0 = state["session"], state["robot"], state["q0"]
        refs = self.goals[e, j : j + self.T].T
        tr.call("solvers.reset", session.reset_parameters, {"ref": refs, "qc": q0})
        tr.call("solvers.reset", session.reset_initial_seed, state["seed"])
        sol = tr.solve(session)
        q = sol[BLOCK]
        tip = tr.call("kinematics.fk", robot.global_link_position, "ee", q[:, 1])
        state["q0"], state["seed"] = q[:, 1], sol
        return Answer(
            arrays=(sol.x,),
            objective=sol.objective,
            iterations=sol.iterations,
            success=sol.success,
            values={
                "pin": float(np.abs(q[:, 0] - q0).max()),
                "violation": sol.report.max_violation,
                "tip": tip,
            },
        )

    def check(self, k, ans):
        if not ans.success:
            return "solve unsuccessful"
        if not ans.values["violation"] <= 1e-6:
            return f"constraint violation {ans.values['violation']:.3e}"
        if not ans.values["pin"] <= self.pin_tolerance:
            return f"initial state off its pin by {ans.values['pin']:.3e}"
        if not np.all(np.isfinite(ans.values["tip"])):
            return "tip position not finite"
        return None


class Transcribe:
    """The ``mpc`` task built at each horizon of a fixed set, with one call of each Problem function.

    One op is the whole set: set-up at every horizon, then evaluation at a
    seed point, so each op weighs the horizons equally.
    """

    name = "transcribe"
    horizons = (10, 20, 40)
    setup_reps = 0  # set-up is part of every op; set-up time is summed over the horizons
    trace_ops = 2
    builds_per_setup = len(horizons)
    dt = Mpc.dt
    velocity_weight = Mpc.velocity_weight

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.path = joint_path(rng, max(self.horizons) + 1)
        self.goals = tip_positions(self.path)

    def setup(self, tr):
        return None

    def point(self, T: int):
        """Seed (states on the path, Euler-consistent rates), parameters, and the objective there.

        The references are the next stage's tip positions, so the expected
        tracking cost follows from the generated tip positions alone.
        """
        q = self.path[:T].T
        dq = np.diff(q, axis=1) / self.dt
        ref = self.goals[1 : T + 1].T
        objective = float(
            np.sum((self.goals[:T] - self.goals[1 : T + 1]) ** 2)
            + self.velocity_weight * np.sum(dq**2)
        )
        return {BLOCK: q, f"{ARM}/1": dq}, {"ref": ref, "qc": q[:, 0]}, objective

    def op(self, tr, state, k):
        arrays, per_horizon, setup_s = [], [], 0.0
        for T in self.horizons:
            t0 = time.perf_counter()
            _, problem = horizon_spec(tr, T, self.dt, self.velocity_weight)
            tr.call("solvers.setup", Solver(tr.wrap(problem)).setup, "sqp")
            setup_s += time.perf_counter() - t0

            seed, params, expected = self.point(T)
            X = problem.decision.vectorize(seed)
            P = problem.parameters.vectorize(params)
            prob = tr.wrap(problem)
            f = prob.objective(X, P)
            M, c = prob.lin_ineq(P)
            A, b = prob.lin_eq(P)
            evals = (
                np.array([f]),
                prob.gradient(X, P),
                prob.hessian(X, P),
                M, c, A, b,
                prob.nonlin_ineq(X, P),
                prob.nonlin_ineq_jacobian(X, P),
                prob.nonlin_eq(X, P),
                prob.nonlin_eq_jacobian(X, P),
            )
            report = prob.feasibility(X, P)
            arrays += evals
            dims = (problem.n_x, problem.n_k, problem.n_a, problem.n_g, problem.n_h)
            per_horizon.append((T, evals, f, expected, report.max_violation, dims))
        objective = sum(h[2] for h in per_horizon)
        return Answer(
            arrays=tuple(arrays),
            objective=objective,
            setup_s=setup_s,
            values={"horizons": per_horizon},
        )

    def check(self, k, ans):
        for T, evals, f, expected, violation, dims in ans.values["horizons"]:
            n = 12 * T - 6  # 6 joints x T states + 6 x (T - 1) rates
            expected_dims = (n, 2 * n, 6 * T, 0, 0)  # position and rate bounds; Euler + pin
            if dims != expected_dims:
                return f"T={T}: sizes {dims} != {expected_dims}"
            if not all(np.all(np.isfinite(a)) for a in evals):
                return f"T={T}: non-finite evaluation"
            shapes = [a.shape for a in evals[1:4]]
            if shapes != [(n,), (n, n), (2 * n, n)]:
                return f"T={T}: derivative shapes {shapes}"
            if not math.isclose(f, expected, rel_tol=1e-9, abs_tol=1e-12):
                return f"T={T}: objective {f!r} != {expected!r}"
            if not violation <= 1e-9:
                return f"T={T}: seed violates constraints by {violation:.3e}"
        return None


WORKLOADS = {cls.name: cls for cls in (Track, Mpc, Transcribe)}
