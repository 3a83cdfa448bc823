"""Tests of the benchmark's own machinery: tail rule, problem proxy, metric names, generators."""

import json
from pathlib import Path

import numpy as np
import pytest

import taskopt as to
from bench_tracing import NullTracer, ProblemProxy, Tracer, percentile_value, tail, tail_percentile
from bench_workloads import Track, Transcribe, joint_path, tip_positions

import run as bench_run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", [21, 22, 29, 99, 100, 101, 412, 999, 5000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    samples = list(range(n))
    pct = tail_percentile(n)

    def beyond(p):
        value = percentile_value(samples, p)
        return sum(s > value for s in samples)

    assert beyond(pct) >= 10
    assert pct == 99 or beyond(pct + 1) < 10


def test_tail_falls_back_to_max_when_no_percentile_above_the_median_qualifies():
    assert tail_percentile(20) is None and tail_percentile(21) == 52
    value, label = tail([3.0, 1.0, 2.0])
    assert value == 3.0 and "max of 3" in label
    value, label = tail(list(range(20)))
    assert (value, label) == (19, "max of 20 ops (too few for a tail percentile)")
    value, label = tail(list(range(100)))
    assert (value, label) == (89, "p90 of 100 ops")


def _ik_problem():
    robot = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="arm")
    b = to.TaskBuilder(1, robots=[robot])
    q = b.get_model_state("arm", 0)
    goal = b.add_parameter("goal", 3)
    b.add_cost_term("goal", to.sumsqr(robot.global_link_position("ee", q) - goal))
    b.enforce_model_limits("arm")
    return b.build()


def test_proxy_delegates_bit_for_bit_and_splits_solve_time():
    problem = _ik_problem()
    tracer = Tracer()
    plain = to.Solver(problem).setup("sqp")
    proxied = to.Solver(ProblemProxy(problem, tracer)).setup("sqp")
    for session in (plain, proxied):
        session.reset_parameters({"goal": [1.2, 0.8, 0.0]})
        session.reset_initial_seed({"arm/0": [0.5, 0.5]})
    a = plain.solve()
    b = tracer.solve(proxied)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective and a.iterations == b.iterations
    assert tracer.calls["problem.objective"] > 0 and tracer.calls["problem.feasibility"] == 1
    assert tracer.sqp_iterations == b.iterations
    assert tracer.seconds["solvers.problem_in_solve"] == pytest.approx(tracer.problem_s)
    assert tracer.problem_s < tracer.seconds["solvers.solve"]
    proxy = ProblemProxy(problem, tracer)
    assert proxy.n_x == problem.n_x and proxy.classification is problem.classification


def test_null_tracer_runs_calls_unchanged():
    null = NullTracer()
    problem = _ik_problem()
    assert null.wrap(problem) is problem
    assert null.call("x", max, 1, 2) == 2


def test_metric_names_match_benchmark_json():
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["track", "mpc", "transcribe"]

    w = Track(0)
    metrics, _, tail_line, attempted, failures, _ = bench_run.untraced(w, seconds=0.0)
    assert tail_line.startswith("op_tail_ms") and "max of 1 ops" in tail_line
    assert list(metrics) == end_to_end and attempted == 1 and not failures
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())

    tracer = Tracer()
    state = w.setup(tracer)
    w.op(tracer, state, 0)
    layers = bench_run._layer_metrics(w, tracer, 1.0, 1.0, 1.0, 1.0)
    assert list(layers) == per_layer
    assert all(units[name] == unit for name, (_, unit) in layers.items())
    assert layers["builder.n_x"][0] == 6 and layers["builder.rows.k"][0] == 12


def test_generated_goals_match_robot_model():
    path = joint_path(np.random.default_rng(3), 25)
    robot = to.RobotModel(to.fixture_path("arm6"), tip="ee")
    expected = np.array([robot.global_link_position("ee", q) for q in path])
    assert np.abs(tip_positions(path) - expected).max() <= 1e-12
    lo, hi = robot.lower_limits, robot.upper_limits
    assert np.all(path > lo) and np.all(path < hi)
    assert np.abs(np.diff(path, axis=0)).max() <= 0.036


def test_same_seed_same_inputs():
    assert np.array_equal(Track(5).goals, Track(5).goals)
    assert not np.array_equal(Track(5).goals, Track(6).goals)


class _SmallTranscribe(Transcribe):
    horizons = (2, 3)


def test_transcribe_check_accepts_answers_and_catches_a_wrong_objective():
    w = _SmallTranscribe(1)
    ans = w.op(NullTracer(), None, 0)
    assert w.check(0, ans) is None
    T, evals, f, expected, violation, dims = ans.values["horizons"][0]
    ans.values["horizons"][0] = (T, evals, f * (1 + 1e-6), expected, violation, dims)
    assert "objective" in w.check(0, ans)
