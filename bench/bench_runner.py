"""Runs one workload for a time budget and turns it into metrics.

Times are reported in reference seconds.  The shared machine the benchmark
was defined on changes speed by up to 60% in spells from under a second to
whole sets of runs (other tenants contend for the core), so a raw wall time
says as much about the neighbours as about the code.  A ``Yardstick`` times
fixed work that never calls ``ipgm`` between operations: one LAPACK
``eigh`` of a 300 x 300 matrix and, taking about as long, a Lanczos loop of
small matrix-vector products driven from Python, the two kinds of work the
workloads do.  Each operation's wall time is scaled by ``REF_NOMINAL_S`` over
the mean yardstick time just before and just after it: the scaled time is
what the operation would take at the speed at which the yardstick takes
``REF_NOMINAL_S``.  Over six minutes of interleaved samples the log of each
workload's operation time rose with the log of the yardstick time at a
slope of 0.8-1.4 (correlation 0.8-0.9), and scaling halved the spread of
half-minute means.  The raw wall times are kept and printed next to the
scaled ones.

A run sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is the
median), then makes whole passes over its operations while the next pass is
predicted to end within the budget; there is always at least one.  Every
pass repeats the same operations, so ``steps`` must come out identical in
each and a pass that differs fails its operations.  ``solve_s`` sums, over
the operations, each one's median scaled time across the passes; checks
are not timed.

A traced run spends the first half of the budget on untraced passes, the
base of ``trace_overhead``, then installs the wrappers, traces one more
setup (for ``problems.generate``) and makes traced passes in the rest.
"""

from __future__ import annotations

import bisect
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.linalg

import bench_tracing
from bench_workloads import CheckFailed

SETUP_REPEATS = 7

# the yardstick is sampled at most every SAMPLE_EVERY_S, between operations;
# a sample is its fastest of REF_CALLS calls.  REF_NOMINAL_S is about its
# time on an idle core of the 2-core Xeon (Sapphire Rapids) VM the benchmark
# was defined on, with 1 OpenBLAS thread.
REF_N = 300
REF_SEED = 20260101
REF_LANCZOS_RUNS = 6
REF_LANCZOS_STEPS = 60
REF_CALLS = 2
REF_NOMINAL_S = 0.025
SAMPLE_EVERY_S = 0.5


class Yardstick:
    """Samples how long fixed reference work takes at this moment."""

    def __init__(self):
        b = np.random.default_rng(REF_SEED).standard_normal((REF_N, REF_N))
        self.matrix = (b + b.T) / 2.0
        self.times: list[float] = []    # when each sample ended
        self.seconds: list[float] = []  # the sample

    def work(self) -> None:
        np.linalg.eigh(self.matrix)
        for _ in range(REF_LANCZOS_RUNS):
            q_prev = np.zeros(REF_N)
            q = np.full(REF_N, REF_N ** -0.5)
            beta = 0.0
            alphas, betas = [], []
            for _ in range(REF_LANCZOS_STEPS):
                w = self.matrix @ q - beta * q_prev
                alpha = float(q @ w)
                w -= alpha * q
                beta = float(np.linalg.norm(w))
                q_prev, q = q, w / beta
                alphas.append(alpha)
                betas.append(beta)
            scipy.linalg.eigh_tridiagonal(np.array(alphas),
                                          np.array(betas[:-1]),
                                          eigvals_only=True)

    def sample(self) -> None:
        best = float("inf")
        for _ in range(REF_CALLS):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.seconds.append(best)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean of the samples around [t0, t1].

        Needs a sample that ended by ``t0`` and one taken after ``t1``.
        """
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        return 2.0 * REF_NOMINAL_S / (self.seconds[before] + self.seconds[after])


@dataclass
class Tally:
    """Operations attempted and failed, and the per-pass figures."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    first_steps: dict = field(default_factory=dict)
    pass_steps: list = field(default_factory=list)
    pass_solve_s: list = field(default_factory=list)
    op_s: dict = field(default_factory=dict)       # label -> wall times
    op_ref_s: dict = field(default_factory=dict)   # label -> scaled times

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {message}")


def run_pass(ops, tally: Tally, stick: Yardstick, tracer=None,
             pass_no: int = 0) -> None:
    """One pass over the operations; times each call, then checks it."""
    done = {}
    timed = []
    steps = 0
    for op in ops:
        tally.attempted += 1
        stick.maybe_sample()
        span = None
        if tracer is not None:
            tracer.op_id = f"p{pass_no}.{op.label}"
            span = tracer.open(bench_tracing.OP_SPAN)
        t0 = time.perf_counter()
        error = None
        try:
            result = op.call()
        except Exception as exc:  # an erroring operation is a failure
            error = exc
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span)
        timed.append((op.label, t0, t1))
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            tally.fail(op.label, f"{type(error).__name__}: {error}")
            continue
        try:
            op.check(result, done)
            n = op.steps(result)
            first = tally.first_steps.setdefault(op.label, n)
            if n != first:
                raise CheckFailed(f"{n} steps, {first} in the first pass")
        except CheckFailed as exc:
            tally.fail(op.label, str(exc))
            continue
        done[op.label] = result
        steps += n
    stick.sample()  # closes the last operation
    for label, t0, t1 in timed:
        tally.op_s.setdefault(label, []).append(t1 - t0)
        tally.op_ref_s.setdefault(label, []).append(
            (t1 - t0) * stick.scale(t0, t1))
    tally.pass_steps.append(steps)
    tally.pass_solve_s.append(sum(t1 - t0 for _, t0, t1 in timed))


def _passes(ops, tally: Tally, stick: Yardstick, seconds: float,
            started: float, tracer=None) -> None:
    """Whole passes while the next one is predicted to fit; at least one."""
    while True:
        t0 = time.perf_counter()
        run_pass(ops, tally, stick, tracer, pass_no=len(tally.pass_solve_s))
        last = time.perf_counter() - t0
        if time.perf_counter() + last - started > seconds:
            return


def typical(op_times: dict) -> float:
    """Sum over the operations of each one's median time across passes."""
    return sum(statistics.median(times) for times in op_times.values())


def _setups(workload, seed: int, stick: Yardstick):
    """SETUP_REPEATS timed set-ups; returns the inputs, wall and scaled times."""
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        stick.sample()
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        t1 = time.perf_counter()
        stick.sample()
        wall.append(t1 - t0)
        scaled.append((t1 - t0) * stick.scale(t0, t1))
    return inputs, wall, scaled


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the report (metrics, tallies, trace)."""
    started = time.perf_counter()
    stick = Yardstick()
    inputs, setup_wall, setup_ref = _setups(workload, seed, stick)
    ops = workload.ops(inputs)
    tally = Tally()
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "setup_wall_s": setup_wall,
              "setup_ref_s": setup_ref}
    if not trace:
        _passes(ops, tally, stick, seconds, started)
    else:
        _passes(ops, tally, stick, seconds / 2, started)
        tracer = bench_tracing.Tracer()
        with bench_tracing.instrumented(tracer):
            tracer.op_id = bench_tracing.SETUP_OP
            span = tracer.open(bench_tracing.OP_SPAN)
            workload.setup(seed)
            tracer.close(span)
            tracer.reset_counters()
            traced = Tally(first_steps=dict(tally.first_steps))
            _passes(ops, traced, stick, seconds, started, tracer)
        layers = bench_tracing.layer_metrics(
            tracer, rounds=len(traced.pass_solve_s))
        layers["trace_overhead"] = (typical(traced.op_ref_s)
                                    / typical(tally.op_ref_s))
        report["layer_metrics"] = layers
        report["layer_table"] = bench_tracing.span_table(tracer.spans)
        report["traced_pass_solve_s"] = traced.pass_solve_s
        report["traced_op_s"] = traced.op_s
        report["tracer"] = tracer
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.failures += traced.failures
    solve_s = typical(tally.op_ref_s)
    solve_wall_s = typical(tally.op_s)
    steps = tally.pass_steps[0]
    report.update(
        pass_solve_s=tally.pass_solve_s, pass_steps=tally.pass_steps,
        op_s=tally.op_s, op_ref_s=tally.op_ref_s,
        yardstick_s=stick.seconds, attempted=tally.attempted,
        failed=tally.failed, failures=tally.failures,
        metrics={
            "setup_s": statistics.median(setup_ref),
            "solve_s": solve_s,
            "steps": steps,
            "step_ms": 1000.0 * solve_s / steps if steps else float("nan"),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        # printed and saved, not gated: raw wall times and the failure share
        extras={
            "setup_wall_s": (statistics.median(setup_wall), "s"),
            "solve_wall_s": (solve_wall_s, "s"),
            "step_wall_ms": (1000.0 * solve_wall_s / steps if steps
                             else float("nan"), "ms"),
            "yardstick_ms": (1000.0 * statistics.median(stick.seconds), "ms"),
            "fail_rate": (tally.failed / tally.attempted, "ratio"),
        })
    return report


# ---------------------------------------------------------------------------
# machine stamp


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str:
    """HEAD commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_stamp(root: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_env": {k: v for k, v in sorted(os.environ.items())
                     if k.endswith("_NUM_THREADS")},
        "commit": _git_commit(root),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# output


def write_outputs(report: dict, out_dir: str) -> list[str]:
    """Results JSON, plus the span file and layer table of a traced run."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{report['workload']}-seed{report['seed']}"
                                 f"-trace{report['trace']}")
    tracer = report.pop("tracer", None)
    paths = [base + ".json"]
    with open(paths[0], "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
    if tracer is not None:
        paths.append(base + "-spans.jsonl")
        tracer.write(paths[-1])
        paths.append(base + "-layers.txt")
        with open(paths[-1], "w") as fh:
            fh.write(format_layer_table(report["layer_table"]))
    return paths


def format_layer_table(table: dict) -> str:
    total = table.get(bench_tracing.OP_SPAN, {}).get("s", 0.0) or 1.0
    lines = [f"{'span':<22}{'layer':<11}{'calls':>9}{'s':>11}{'self_s':>11}"
             f"{'self%':>8}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<22}{row['layer']:<11}{row['calls']:>9}"
                     f"{row['s']:>11.4f}{row['self_s']:>11.4f}"
                     f"{100.0 * row['self_s'] / total:>7.1f}%")
    return "\n".join(lines) + "\n"


def result_line(report: dict, units: dict) -> dict:
    """The last stdout line: per-layer metrics when traced, else end-to-end.

    ``units`` maps "end_to_end" and "per_layer" to {metric: unit}, as
    BENCHMARK.json states them.
    """
    kind, values = (("per_layer", report["layer_metrics"]) if report["trace"]
                    else ("end_to_end", report["metrics"]))
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in units[kind].items()}
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics}


def print_report(report: dict, units: dict, out=None) -> None:
    out = out or sys.stdout
    print(f"workload {report['workload']} seed {report['seed']} "
          f"passes {len(report['pass_solve_s'])}", file=out)
    rows = [(k, v, units["end_to_end"][k])
            for k, v in report["metrics"].items()]
    rows += [(k, v, unit) for k, (v, unit) in report["extras"].items()]
    rows += [(k, v, units["per_layer"][k])
             for k, v in report.get("layer_metrics", {}).items()]
    for k, v, unit in rows:
        print(f"{k} {v:.6g} {unit}", file=out)
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=out)
    print(json.dumps(result_line(report, units)), file=out)
