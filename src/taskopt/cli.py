"""Command-line harness: info, ik, plan, track, and dims subcommands.

Each command reads an optional JSON config (``--config``) merged with flag
overrides, runs one of the library's reference formulations, and writes a
CSV.  Exit codes are stable: 0 success, 2 input error, 3 solver failure.
Floats in CSV output are formatted with 9 significant digits, so output is
byte-deterministic for a fixed config and seed (timing columns excepted).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .builder import TaskBuilder
from .fixtures import FIXTURE_NAMES, fixture_path
from .kinematics import RobotModel
from .solvers import Solver, SolverOptions
from .spatial import rpy_to_matrix
from .urdf import UrdfError, load_urdf

__all__ = [
    "main",
    "run_info",
    "run_ik",
    "run_plan",
    "run_track",
    "run_dims",
    "figure_eight",
]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


class InputError(ValueError):
    """Bad config, flags, or input files."""


# -- config handling ----------------------------------------------------------

_COMMON_DEFAULTS = {
    "urdf": "planar2r",
    "base": None,
    "tip": "ee",
    "solver": "sqp",
    "solver_options": {},
    "out": None,
}

_DEFAULTS = {
    "ik": {
        **_COMMON_DEFAULTS,
        "T": 1,
        "goal": [2.0, 0.0, 0.0],
        "nominal": None,
        "regularizer": 1e-3,
        "initial_seed": None,
        "goal_tolerance": 1e-6,
    },
    "plan": {
        **_COMMON_DEFAULTS,
        "T": 20,
        "dt": 0.1,
        "start": [1.5707963267948966, 0.0],
        "goal": [1.6, 0.8, 0.0],
        "obstacles": [{"center": [0.8, 1.4, 0.0], "radius": 0.3}],
        "smoothness": 1e-5,
        "goal_tolerance": 1e-3,
    },
    "track": {
        **_COMMON_DEFAULTS,
        "center": [1.2, 0.4, 0.0],
        "amplitude_a": 0.3,
        "amplitude_b": 0.15,
        "waypoints": 100,
        "regularizer": 1e-6,
        "manip_weight": 0.0,
        "manip_rows": [0, 1],
        "initial_seed": [0.5, 0.5],
        "cold": False,
    },
    "dims": {
        **_COMMON_DEFAULTS,
        "urdf": "arm6",
        "sweep_origin": [0.0, 0.0, 0.30],
        "sweep_direction": [1.0, 0.0, 0.0],
        "max_reach": 1.1,
        "fractions": [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.02],
        "orientation_rpy": [0.0, math.pi, 0.0],
        "orientation_weight": 1.0,
        "position_tolerance": 1e-3,
        "orientation_tolerance": 1e-2,
        "initial_seed": [0.0, 0.6, 0.8, 0.0, 0.5, 0.0],
    },
}


def _load_config(command: str, args) -> dict:
    cfg = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as err:
            raise InputError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise InputError(f"bad JSON in config: {err}") from err
        if not isinstance(data, dict):
            raise InputError("config must be a JSON object")
        for key, value in data.items():
            if key not in cfg:
                raise InputError(f"unknown config key {key!r} for {command}")
            cfg[key] = value
    for key in ("urdf", "base", "tip", "T", "dt", "solver", "out", "manip_weight", "cold"):
        value = getattr(args, key, None)
        if value is not None and key in cfg:
            cfg[key] = value
    return cfg


def _resolve_urdf(name_or_path: str) -> str:
    if name_or_path in FIXTURE_NAMES:
        return fixture_path(name_or_path)
    return name_or_path


def _robot(cfg: dict, time_derivs=(0,)) -> RobotModel:
    try:
        model = load_urdf(_resolve_urdf(cfg["urdf"]))
    except OSError as err:
        raise InputError(f"cannot read URDF: {err}") from err
    return RobotModel(model, base=cfg.get("base"), tip=cfg.get("tip"),
                      time_derivs=time_derivs, name="robot")


def _options(cfg: dict) -> SolverOptions:
    opts = SolverOptions(**cfg.get("solver_options", {}))
    opts.validate()
    return opts


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".9g")


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# -- info -----------------------------------------------------------------------


def run_info(urdf: str) -> str:
    model = load_urdf(_resolve_urdf(urdf))
    robot = RobotModel(model)
    lines = [
        f"name: {model.name}",
        f"ndof: {robot.ndof}",
        f"joints: {', '.join(robot.joint_names)}",
        f"lower: {np.array2string(robot.lower_limits, precision=6)}",
        f"upper: {np.array2string(robot.upper_limits, precision=6)}",
        f"velocity: {np.array2string(robot.velocity_limits, precision=6)}",
    ]
    return "\n".join(lines)


# -- end-pose IK -------------------------------------------------------------------


@dataclass
class IkResult:
    success: bool
    q: np.ndarray
    position_error: float
    iterations: int
    duration_ms: float
    termination: str


def _ik_session(robot: RobotModel, cfg: dict, manip_weight: float = 0.0,
                manip_rows=(0, 1)) -> Solver:
    """End-pose problem: goal position cost plus configuration regularizer."""
    b = TaskBuilder(1, robots=[robot])
    q = b.get_model_state(robot.name, 0)
    goal = b.add_parameter("goal", 3)
    nominal = b.add_parameter("nominal", robot.ndof)
    p = robot.global_link_position(cfg["tip"], q)
    b.add_cost_term("goal", ex.sumsqr(p - goal))
    b.add_cost_term("regularizer", cfg["regularizer"] * ex.sumsqr(q - nominal))
    if manip_weight > 0.0:
        b.add_cost_term(
            "manipulability",
            -manip_weight * robot.manipulability(cfg["tip"], q, rows=manip_rows),
        )
    b.enforce_model_limits(robot.name)
    return Solver(b.build()).setup(cfg["solver"], _options(cfg))


def run_ik(cfg: dict) -> IkResult:
    robot = _robot(cfg)
    goal = np.asarray(cfg["goal"], dtype=float)
    if goal.shape != (3,):
        raise InputError("goal must be a 3-vector")
    nominal = (
        np.zeros(robot.ndof)
        if cfg.get("nominal") is None
        else np.asarray(cfg["nominal"], dtype=float)
    )
    seed = nominal if cfg.get("initial_seed") is None else np.asarray(cfg["initial_seed"], dtype=float)

    session = _ik_session(robot, cfg)
    session.reset_parameters({"goal": goal, "nominal": nominal})
    session.reset_initial_seed({f"{robot.name}/0": seed})
    sol = session.solve()

    q = sol.blocks[f"{robot.name}/0"][:, 0]
    p = robot.global_link_position(cfg["tip"], q)
    err = float(np.linalg.norm(p - goal))
    return IkResult(
        success=sol.success and err <= cfg["goal_tolerance"],
        q=q,
        position_error=err,
        iterations=sol.iterations,
        duration_ms=sol.duration * 1e3,
        termination=sol.termination,
    )


def cmd_ik(cfg: dict) -> int:
    result = run_ik(cfg)
    header = ["success", "position_error", "iterations", "solve_ms"] + [
        f"q{i}" for i in range(result.q.size)
    ]
    row = [result.success, result.position_error, result.iterations, result.duration_ms]
    row += list(result.q)
    _write_csv(cfg["out"], header, [row])
    return EXIT_OK if result.success else EXIT_SOLVER


# -- collision-free plan -------------------------------------------------------------


@dataclass
class PlanResult:
    success: bool
    times: np.ndarray
    q: np.ndarray  # ndof x T
    dq: np.ndarray  # ndof x (T - 1)
    position_error: float
    report: object
    iterations: int
    termination: str


def run_plan(cfg: dict) -> PlanResult:
    T = int(cfg["T"])
    if T < 2:
        raise InputError("plan requires T >= 2")
    dt = float(cfg["dt"])
    if dt <= 0:
        raise InputError("dt must be positive")
    robot = _robot(cfg, time_derivs=(0, 1))
    n = robot.ndof
    start = np.asarray(cfg["start"], dtype=float)
    if start.shape != (n,):
        raise InputError(f"start must have {n} entries")
    goal = np.asarray(cfg["goal"], dtype=float)
    obstacles = cfg.get("obstacles") or []

    b = TaskBuilder(T, robots=[robot])
    name = robot.name
    qc = b.add_parameter("qc", n)
    pg = b.add_parameter("pg", 3)
    q0 = b.get_model_state(name, 0)
    qT = b.get_model_state(name, -1)
    dq = b.model_block(name, 1)

    p_final = robot.global_link_position(cfg["tip"], qT)
    b.add_cost_term("goal", ex.sumsqr(p_final - pg))
    b.add_cost_term("smoothness", cfg["smoothness"] * ex.sumsqr(dq))
    b.add_equality_constraint("init", q0, qc)
    b.integrate_model_states(name, 1, dt)
    b.enforce_model_limits(name)

    obstacle_params = []
    for i, obs in enumerate(obstacles):
        center = b.add_parameter(f"obstacle{i}/center", 3)
        radius = b.add_parameter(f"obstacle{i}/radius")
        rows = []
        for t in range(T):
            p_t = robot.global_link_position(cfg["tip"], b.get_model_state(name, t))
            rows.append(ex.sumsqr(p_t - center))
        b.add_leq_inequality_constraint(f"obstacle{i}", radius * radius, ex.vertcat(*rows))
        obstacle_params.append((f"obstacle{i}/center", f"obstacle{i}/radius", obs))

    session = Solver(b.build()).setup(cfg["solver"], _options(cfg))
    params = {"qc": start, "pg": goal}
    for center_key, radius_key, obs in obstacle_params:
        params[center_key] = np.asarray(obs["center"], dtype=float)
        params[radius_key] = float(obs["radius"])
    session.reset_parameters(params)
    session.reset_initial_seed({f"{name}/0": np.tile(start.reshape(-1, 1), (1, T))})
    sol = session.solve()

    q = sol.blocks[f"{name}/0"]
    p = robot.global_link_position(cfg["tip"], q[:, -1])
    err = float(np.linalg.norm(p - goal))
    return PlanResult(
        success=sol.success and err <= cfg["goal_tolerance"],
        times=np.arange(T) * dt,
        q=q,
        dq=sol.blocks[f"{name}/1"],
        position_error=err,
        report=sol.report,
        iterations=sol.iterations,
        termination=sol.termination,
    )


def cmd_plan(cfg: dict) -> int:
    result = run_plan(cfg)
    n = result.q.shape[0]
    header = ["t"] + [f"q{i}" for i in range(n)]
    rows = [
        [result.times[t]] + list(result.q[:, t]) for t in range(result.q.shape[1])
    ]
    _write_csv(cfg["out"], header, rows)
    return EXIT_OK if result.success else EXIT_SOLVER


# -- figure-of-eight tracking ----------------------------------------------------------


def figure_eight(center, amplitude_a: float, amplitude_b: float, waypoints: int) -> np.ndarray:
    """Sampled path center + (A sin 2*pi*s, B sin 4*pi*s, 0), s in [0, 1]."""
    center = np.asarray(center, dtype=float)
    s = np.linspace(0.0, 1.0, waypoints)
    path = np.tile(center.reshape(3, 1), (1, waypoints))
    path[0] += amplitude_a * np.sin(2.0 * math.pi * s)
    path[1] += amplitude_b * np.sin(4.0 * math.pi * s)
    return path


@dataclass
class TrackResult:
    success: bool
    errors: np.ndarray
    iterations: np.ndarray
    durations_ms: np.ndarray
    manipulability: np.ndarray
    q: np.ndarray  # ndof x completed waypoints
    failed_waypoint: int | None = None


def run_track(cfg: dict) -> TrackResult:
    robot = _robot(cfg)
    W = int(cfg["waypoints"])
    if W < 2:
        raise InputError("track requires at least 2 waypoints")
    path = figure_eight(cfg["center"], cfg["amplitude_a"], cfg["amplitude_b"], W)
    seed = np.asarray(cfg["initial_seed"], dtype=float)
    if seed.shape != (robot.ndof,):
        raise InputError(f"initial_seed must have {robot.ndof} entries")
    manip_rows = tuple(cfg["manip_rows"])
    manip_weight = float(cfg["manip_weight"])
    cold = bool(cfg["cold"])

    session = _ik_session(robot, cfg, manip_weight=manip_weight, manip_rows=manip_rows)
    block = f"{robot.name}/0"

    errors, iters, durations, manip, qs = [], [], [], [], []
    q_prev = seed
    failed_waypoint = None
    for k in range(W):
        session.reset_parameters({"goal": path[:, k], "nominal": seed})
        session.reset_initial_seed({block: seed if cold else q_prev})
        sol = session.solve()
        q = sol.blocks[block][:, 0]
        p = robot.global_link_position(cfg["tip"], q)
        errors.append(float(np.linalg.norm(p - path[:, k])))
        iters.append(sol.iterations)
        durations.append(sol.duration * 1e3)
        manip.append(robot.manipulability(cfg["tip"], q, rows=manip_rows))
        qs.append(q)
        if not sol.success:
            failed_waypoint = k
            break
        q_prev = q
    return TrackResult(
        success=failed_waypoint is None,
        errors=np.asarray(errors),
        iterations=np.asarray(iters),
        durations_ms=np.asarray(durations),
        manipulability=np.asarray(manip),
        q=np.asarray(qs).T,
        failed_waypoint=failed_waypoint,
    )


def cmd_track(cfg: dict) -> int:
    result = run_track(cfg)
    header = ["waypoint", "position_error", "solve_ms", "iterations"]
    rows = [
        [k, result.errors[k], result.durations_ms[k], result.iterations[k]]
        for k in range(result.errors.size)
    ]
    _write_csv(cfg["out"], header, rows)
    return EXIT_OK if result.success else EXIT_SOLVER


# -- reach sweep: position-only vs full pose ----------------------------------------------


@dataclass
class DimsRow:
    fraction: float
    goal: np.ndarray
    posonly_success: bool
    posonly_error: float
    fullpose_success: bool
    fullpose_position_error: float
    fullpose_orientation_error: float


@dataclass
class DimsResult:
    rows: list[DimsRow] = field(default_factory=list)


def _dims_session(robot: RobotModel, cfg: dict, full_pose: bool) -> Solver:
    b = TaskBuilder(1, robots=[robot])
    q = b.get_model_state(robot.name, 0)
    goal = b.add_parameter("goal", 3)
    p = robot.global_link_position(cfg["tip"], q)
    b.add_cost_term("goal", ex.sumsqr(p - goal))
    if full_pose:
        R_goal = rpy_to_matrix(np.asarray(cfg["orientation_rpy"], dtype=float))
        R = robot.global_link_rotation(cfg["tip"], q)
        b.add_cost_term(
            "orientation", cfg["orientation_weight"] * ex.sumsqr(R - ex.constant(R_goal))
        )
    b.enforce_model_limits(robot.name)
    return Solver(b.build()).setup(cfg["solver"], _options(cfg))


def _rotation_angle(Ra: np.ndarray, Rb: np.ndarray) -> float:
    cos_angle = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos_angle, -1.0, 1.0)))


def run_dims(cfg: dict) -> DimsResult:
    robot = _robot(cfg)
    origin = np.asarray(cfg["sweep_origin"], dtype=float)
    direction = np.asarray(cfg["sweep_direction"], dtype=float)
    direction = direction / np.linalg.norm(direction)
    R_goal = rpy_to_matrix(np.asarray(cfg["orientation_rpy"], dtype=float))
    seed = np.asarray(cfg["initial_seed"], dtype=float)
    pos_tol = float(cfg["position_tolerance"])
    ori_tol = float(cfg["orientation_tolerance"])
    block = f"{robot.name}/0"

    full_session = _dims_session(robot, cfg, full_pose=True)
    pos_session = _dims_session(robot, cfg, full_pose=False)

    result = DimsResult()
    full_prev, pos_prev = seed, seed
    for frac in cfg["fractions"]:
        goal = origin + float(frac) * cfg["max_reach"] * direction

        full_session.reset_parameters({"goal": goal})
        full_session.reset_initial_seed({block: full_prev})
        full_sol = full_session.solve()
        q_full = full_sol.blocks[block][:, 0]
        p_full = robot.global_link_position(cfg["tip"], q_full)
        full_pos_err = float(np.linalg.norm(p_full - goal))
        full_ori_err = _rotation_angle(robot.global_link_rotation(cfg["tip"], q_full), R_goal)
        full_ok = full_sol.success and full_pos_err <= pos_tol and full_ori_err <= ori_tol
        if full_sol.success:
            full_prev = q_full

        best_err, best_q = math.inf, None
        for candidate in (pos_prev, q_full):
            pos_session.reset_parameters({"goal": goal})
            pos_session.reset_initial_seed({block: candidate})
            pos_sol = pos_session.solve()
            if not pos_sol.success:
                continue
            q_pos = pos_sol.blocks[block][:, 0]
            err = float(np.linalg.norm(robot.global_link_position(cfg["tip"], q_pos) - goal))
            if err < best_err:
                best_err, best_q = err, q_pos
        pos_ok = best_q is not None and best_err <= pos_tol
        if best_q is not None:
            pos_prev = best_q

        result.rows.append(
            DimsRow(
                fraction=float(frac),
                goal=goal,
                posonly_success=pos_ok,
                posonly_error=best_err if best_q is not None else math.inf,
                fullpose_success=full_ok,
                fullpose_position_error=full_pos_err,
                fullpose_orientation_error=full_ori_err,
            )
        )
    return result


def cmd_dims(cfg: dict) -> int:
    result = run_dims(cfg)
    header = [
        "fraction",
        "goal_x",
        "goal_y",
        "goal_z",
        "posonly_success",
        "posonly_error",
        "fullpose_success",
        "fullpose_position_error",
        "fullpose_orientation_error",
    ]
    rows = [
        [
            r.fraction,
            r.goal[0],
            r.goal[1],
            r.goal[2],
            r.posonly_success,
            r.posonly_error,
            r.fullpose_success,
            r.fullpose_position_error,
            r.fullpose_orientation_error,
        ]
        for r in result.rows
    ]
    _write_csv(cfg["out"], header, rows)
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taskopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print robot metadata from a URDF")
    info.add_argument("--urdf", required=True)

    for name, help_text in (
        ("ik", "solve one end-pose IK problem"),
        ("plan", "solve a collision-free plan over a time horizon"),
        ("track", "track a figure-of-eight path with warm-started solves"),
        ("dims", "compare position-only and full-pose reach"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--urdf")
        p.add_argument("--base")
        p.add_argument("--tip")
        p.add_argument("--T", type=int)
        p.add_argument("--dt", type=float)
        p.add_argument("--solver")
        p.add_argument("--out")
        if name == "track":
            p.add_argument("--manip-weight", dest="manip_weight", type=float)
            p.add_argument("--cold", action="store_const", const=True, default=None)
    return parser


_COMMANDS = {"ik": cmd_ik, "plan": cmd_plan, "track": cmd_track, "dims": cmd_dims}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "info":
            print(run_info(args.urdf))
            return EXIT_OK
        cfg = _load_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except (InputError, UrdfError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
