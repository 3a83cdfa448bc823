import json

import numpy as np
import pytest

import taskopt as to
from taskopt.cli import (
    _DEFAULTS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    _build_parser,
    _load_config,
    figure_eight,
    main,
    run_ik,
    run_info,
    run_plan,
)


class TestInfo:
    def test_planar_fixture(self, capsys):
        assert main(["info", "--urdf", "planar2r"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ndof: 2" in out
        assert "joint1" in out

    def test_bad_file_exits_2(self, capsys):
        assert main(["info", "--urdf", "/does/not/exist.urdf"]) == EXIT_INPUT

    def test_malformed_urdf_exits_2(self, tmp_path):
        bad = tmp_path / "bad.urdf"
        bad.write_text("<robot name='x'><link name='a'>")
        assert main(["info", "--urdf", str(bad)]) == EXIT_INPUT

    def test_fixed_joints_excluded(self):
        out = run_info("planar2r")
        assert "ee_joint" not in out


class TestIkCommand:
    def test_boundary_goal(self, tmp_path):
        out = tmp_path / "ik.csv"
        assert main(["ik", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("success,position_error")
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert float(fields[1]) <= 1e-6

    def test_unreachable_goal_exits_3(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"goal": [3.0, 0.0, 0.0]}))
        out = tmp_path / "ik.csv"
        code = main(["ik", "--config", str(cfgf), "--out", str(out)])
        assert code == EXIT_SOLVER
        # best-effort report still written
        assert out.exists()
        assert float(out.read_text().strip().split("\n")[1].split(",")[1]) > 0.5

    def test_regularizer_pulls_toward_nominal(self):
        base = dict(_DEFAULTS["ik"])
        base.update({"goal": [1.2, 0.8, 0.0], "nominal": [0.5, 0.5], "initial_seed": [0.5, 0.5]})
        weak = dict(base, regularizer=1e-3, goal_tolerance=1.0)
        strong = dict(base, regularizer=1e3, goal_tolerance=1.0)
        q_weak = run_ik(weak).q
        q_strong = run_ik(strong).q
        nominal = np.array([0.5, 0.5])
        assert np.linalg.norm(q_strong - nominal) < np.linalg.norm(q_weak - nominal)

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"goal_position": [1, 0, 0]}))
        assert main(["ik", "--config", str(cfgf)]) == EXIT_INPUT

    def test_horizon_key_exits_2(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"T": 1}))
        assert main(["ik", "--config", str(cfgf)]) == EXIT_INPUT


class TestPlanCommand:
    def test_default_plan_succeeds(self, tmp_path):
        out = tmp_path / "plan.csv"
        assert main(["plan", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,q0,q1"
        assert len(lines) == 1 + _DEFAULTS["plan"]["T"]

    def test_horizon_flags_override_config(self):
        cfg = _load_config("plan", _build_parser().parse_args(["plan", "--T", "5", "--dt", "0.2"]))
        assert (cfg["T"], cfg["dt"]) == (5, 0.2)

    def test_byte_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(["plan", "--out", str(out1)]) == EXIT_OK
        assert main(["plan", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_obstacle_covering_goal_exits_3(self, tmp_path):
        cfg = dict(_DEFAULTS["plan"])
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(
            json.dumps(
                {"obstacles": [{"center": list(cfg["goal"]), "radius": 0.4}]}
            )
        )
        out = tmp_path / "plan.csv"
        assert main(["plan", "--config", str(cfgf), "--out", str(out)]) == EXIT_SOLVER

    def test_no_obstacles_smooth_plan(self):
        cfg = dict(_DEFAULTS["plan"])
        cfg["obstacles"] = []
        res = run_plan(cfg)
        assert res.success
        assert res.report.equality_residual <= 1e-8

    def test_feasibility_of_returned_plan(self, planar2r):
        cfg = dict(_DEFAULTS["plan"])
        res = run_plan(cfg)
        assert res.success
        center = np.asarray(cfg["obstacles"][0]["center"])
        radius = cfg["obstacles"][0]["radius"]
        for t in range(res.q.shape[1]):
            p = planar2r.global_link_position("ee", res.q[:, t])
            assert np.linalg.norm(p - center) >= radius - 1e-6
        assert res.report.equality_residual <= 1e-8


class TestTrackCommand:
    def test_short_track_csv(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"waypoints": 8}))
        out = tmp_path / "track.csv"
        assert main(["track", "--config", str(cfgf), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "waypoint,position_error,solve_ms,iterations"
        assert len(lines) == 9

    @pytest.mark.parametrize("flag", ["--T", "--dt"])
    def test_horizon_flags_are_rejected(self, flag):
        # only plan has a horizon
        with pytest.raises(SystemExit) as err:
            main(["track", flag, "5"])
        assert err.value.code == EXIT_INPUT

    def test_figure_eight_shape(self):
        path = figure_eight([1.0, 0.5, 0.0], 0.3, 0.15, 5)
        assert path.shape == (3, 5)
        assert np.allclose(path[:, 0], [1.0, 0.5, 0.0])  # s=0 at the center
        assert np.allclose(path[2], 0.0)
        assert path[0].max() <= 1.3 + 1e-12 and path[0].min() >= 0.7 - 1e-12


class TestDimsCommand:
    def test_csv_written(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"fractions": [0.5, 0.99]}))
        out = tmp_path / "dims.csv"
        assert main(["dims", "--config", str(cfgf), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("fraction,goal_x")
        assert len(lines) == 3
