"""taskopt benchmark: one workload, one seed, one run; prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload track --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs a fixed number of ops on an untraced and a traced session, checks that
their answers are bit-identical, and reports the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from bench_tracing import PROBLEM_FUNCTIONS, NullTracer, Tracer, tail

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TERMINATIONS = ("kkt-tolerance", "step-tolerance", "max-iterations", "line-search-failure", "nan")
FINGERPRINT_OPS = 20


def calibrate(reps: int = 7) -> float:
    """Median ms of a fixed pure-Python spin; recorded as host context, never used to rescale."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def peak_rss_mb() -> float:
    """Process high-water resident set size from the OS (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Fingerprint:
    """Objective and SQP-iteration totals and a SHA-256 over the first ops' answers."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.ops = 0
        self.objective = 0.0
        self.iterations = 0
        self.sha = hashlib.sha256()

    def add(self, ans) -> None:
        if self.limit is not None and self.ops >= self.limit:
            return
        self.ops += 1
        self.objective += ans.objective
        self.iterations += ans.iterations
        for a in ans.arrays:
            self.sha.update(a.tobytes())

    def line(self) -> str:
        return (
            f"answers: first {self.ops} ops: objective sum {self.objective!r}, "
            f"sqp iterations {self.iterations}, sha256 {self.sha.hexdigest()[:16]}"
        )


def run_ops(w, state, seconds, fingerprint):
    """Untraced closed loop: ops until ``seconds`` of loop time have passed.

    Returns per-op seconds, the set-up seconds inside each op, failure
    reasons by op and the loop's wall time.  Answers are dropped once
    checked, so they do not add to the peak memory.
    """
    null = NullTracer()
    times, setup_times, failures = [], [], {}
    gc.collect()
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        ans = w.op(null, state, k)
        times.append(time.perf_counter() - t0)
        reason = w.check(k, ans)
        if reason is not None:
            failures[k] = reason
        fingerprint.add(ans)
        setup_times.append(ans.setup_s)
        k += 1
    return times, setup_times, failures, time.perf_counter() - start


def untraced(w, seconds: float):
    null = NullTracer()
    setup_times, state = [], None
    for _ in range(w.setup_reps):
        t0 = time.perf_counter()
        state = w.setup(null)
        setup_times.append(time.perf_counter() - t0)

    fp = Fingerprint(FINGERPRINT_OPS)
    times, op_setup_times, failures, loop_s = run_ops(w, state, seconds, fp)
    if not setup_times:  # transcribe: every op sets up at each horizon
        setup_times = op_setup_times
    tail_ms, tail_label = tail([t * 1e3 for t in times])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "ops_per_s": (len(times) / loop_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_p50_ms": f"{len(times)} ops",
        "ops_per_s": f"{len(times)} ops in {loop_s:.3f} s",
        "peak_rss_mb": "OS high-water mark",
    }
    # Printed but not a JSON metric: on track it follows host bursts too
    # closely to hold any allowed bound from one batch of runs to the next.
    tail_line = f"{'op_tail_ms':<40} {tail_ms!r} ms  ({tail_label}; not in the JSON)"
    return metrics, notes, tail_line, len(times), failures, fp


def traced(w, calib_ms: float):
    """Run ``w.trace_ops`` ops on an untraced and a traced session, interleaved op by op.

    Interleaving exposes both sessions to the same host conditions, so the
    difference in their op times is the tracing overhead.
    """
    null, tr = NullTracer(), Tracer()
    plain_state = w.setup(null)
    state = None
    for _ in range(max(1, w.setup_reps)):
        state = w.setup(tr)
    covered_before = _covered(tr)
    fp = Fingerprint(None)
    plain_s = traced_s = 0.0
    failures = {}
    gc.collect()
    for k in range(w.trace_ops):
        t0 = time.perf_counter()
        plain = w.op(null, plain_state, k)
        t1 = time.perf_counter()
        ans = w.op(tr, state, k)
        t2 = time.perf_counter()
        plain_s += t1 - t0
        traced_s += t2 - t1
        fp.add(ans)
        reason = w.check(k, ans) or w.check(k, plain)
        if reason is None and not _identical(plain.arrays, ans.arrays):
            reason = "traced answer differs from untraced"
        if reason is not None:
            failures[k] = reason
    covered = _covered(tr) - covered_before
    metrics = _layer_metrics(w, tr, traced_s, plain_s, covered, calib_ms)
    return metrics, w.trace_ops, failures, fp


def _identical(a, b) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b)
    )


def _covered(tr) -> float:
    """Seconds recorded by top-level spans: problem time inside solves counts once."""
    nested = tr.seconds.get("solvers.problem_in_solve", 0.0)
    return sum(tr.seconds.values()) - 2.0 * nested


def _layer_metrics(w, tr, op_s, plain_s, covered, calib_ms):
    """Per-layer metrics of a traced run, in ``BENCHMARK.json`` order."""
    from bench_workloads import Transcribe  # needs taskopt, importable once main() has set the path

    builds = sum(n for name, n in tr.calls.items() if name.startswith("builder.build"))
    setups = builds // w.builds_per_setup
    solve_s = tr.seconds.get("solvers.solve", 0.0)
    in_solve = tr.seconds.get("solvers.problem_in_solve", 0.0)
    self_s = solve_s - in_solve

    def mean_us(name):
        n = tr.calls.get(name, 0)
        return tr.seconds[name] / n * 1e6 if n else 0.0

    m = {
        "solvers.solve_s": (solve_s, "s"),
        "solvers.self_s": (self_s, "s"),
        "solvers.self_ms_per_iteration": (
            self_s * 1e3 / tr.sqp_iterations if tr.sqp_iterations else 0.0,
            "ms",
        ),
        "solvers.sqp_iterations": (tr.sqp_iterations, "count"),
        "solvers.eval_in_solve_s": (in_solve, "s"),
    }
    for t in TERMINATIONS:
        m[f"solvers.termination.{t}"] = (tr.terminations.get(t, 0), "count")
    other = sum(n for t, n in tr.terminations.items() if t not in TERMINATIONS)
    m["solvers.termination.other"] = (other, "count")
    m["solvers.reset_s"] = (tr.seconds.get("solvers.reset", 0.0), "s")
    m["solvers.setup_s"] = (tr.seconds.get("solvers.setup", 0.0) / setups, "s")
    m["problem.eval_s"] = (tr.problem_s, "s")
    for fn in PROBLEM_FUNCTIONS:
        m[f"problem.{fn}.calls"] = (tr.calls.get(f"problem.{fn}", 0), "count")
        m[f"problem.{fn}.us"] = (mean_us(f"problem.{fn}"), "us")
    m["kinematics.fk_calls"] = (tr.calls.get("kinematics.fk", 0), "count")
    m["kinematics.fk_us"] = (mean_us("kinematics.fk"), "us")
    m["urdf.load_s"] = (tr.seconds.get("urdf.load", 0.0) / setups, "s")
    m["builder.spec_s"] = (tr.seconds.get("builder.spec", 0.0) / setups, "s")
    m["builder.build_s"] = (tr.total("builder.build") / setups, "s")
    for T in Transcribe.horizons:
        m[f"builder.build_s.T{T}"] = (mean_us(f"builder.build.T{T}") / 1e6, "s")
    m["builder.n_x"] = (tr.counts["builder.n_x"] // setups, "count")
    for part in "kagh":
        key = f"builder.rows.{part}"
        m[key] = (tr.counts[key] // setups, "count")
    m["trace.ops"] = (w.trace_ops, "count")
    m["trace.coverage_frac"] = (covered / op_s, "fraction")
    m["trace.overhead_frac"] = (op_s / plain_s - 1.0, "fraction")
    m["host.calib_ms"] = (calib_ms, "ms")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "taskopt" / "__init__.py").is_file():
        print(f"error: taskopt sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the solver's matrices are
    # small, and extra threads only add contention on a shared host.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import taskopt
    from bench_workloads import WORKLOADS

    if Path(taskopt.__file__).resolve().parent != SRC / "taskopt":
        print(f"error: imported taskopt from {taskopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    calib_ms = calibrate()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"host: python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__} taskopt {taskopt.__version__} calib_ms {calib_ms:.3f}"
    )
    w = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, attempted, failures, fp = traced(w, calib_ms)
        notes, tail_line = {}, None
    else:
        metrics, notes, tail_line, attempted, failures, fp = untraced(w, args.seconds)

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {value!r} {unit}{note}")
    if tail_line:
        print(tail_line)
    print(f"failed_frac {len(failures) / attempted!r}  ({len(failures)} of {attempted} ops)")
    for k, reason in sorted(failures.items())[:10]:
        print(f"  failed op {k}: {reason}")
    print(fp.line())
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
