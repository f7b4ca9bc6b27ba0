"""Self-test of the benchmark at toy sizes.

    python -m pytest -q bench/test_bench_selftest.py

Checks that every metric is printed with its unit, that traced self times
add up to each operation's wall time, that one seed always generates the
same inputs, and that the benchmark refuses to run without the library.
"""

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

_ipgm, _error = run.import_library()
if _ipgm is None:
    raise ImportError(_error)

import bench_runner  # noqa: E402
import bench_tracing  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

TOY = {
    "spectra-inexact": dict(n=16, omega=3, instances=2),
    "spectra-exact": dict(n=16, omega=3, instances=2),
    "boxqp-loop": dict(n=20, instances=2),
    "project-cold": dict(n=20, omega=3, instances=1),
}


def toy(name):
    return dataclasses.replace(WORKLOADS[name], **TOY[name])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reports():
    """One untraced and one traced toy run per workload."""
    return {(name, trace): bench_runner.run_workload(toy(name), seed=3,
                                                     seconds=0.01, trace=trace)
            for name in TOY for trace in (False, True)}


def test_workload_names_match_spec():
    assert {w["name"] for w in spec()["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(reports, tmp_path, name, trace):
    report = reports[(name, trace)]
    for path in bench_runner.write_outputs(dict(report), str(tmp_path)):
        assert os.path.getsize(path) > 0
    out = io.StringIO()
    bench_runner.print_report(report, run.metric_units(), out)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]
               if len(line.split()) == 3}
    for metric in spec()["end_to_end"]:
        assert printed[metric["name"]] == metric["unit"]
    for metric, (_, unit) in report["extras"].items():
        assert printed[metric] == unit
    if trace:
        for metric, unit in expected.items():
            assert printed[metric] == unit
        assert (tmp_path / f"{name}-seed3-trace1-spans.jsonl").exists()
        assert (tmp_path / f"{name}-seed3-trace1-layers.txt").exists()


@pytest.mark.parametrize("name", sorted(TOY))
def test_self_times_add_up_to_operation_wall_time(reports, name):
    report = reports[(name, True)]
    spans = report["tracer"].spans
    selfs = bench_tracing.self_times(spans)
    assert min(selfs) >= -1e-9
    by_op = {}
    for span, self_s in zip(spans, selfs):
        by_op.setdefault(span[4], []).append((span, self_s))
    for label, times in report["traced_op_s"].items():
        op_id = f"p0.{label}"
        members = by_op[op_id]
        root = [s for s, _ in members if s[0] == bench_tracing.OP_SPAN]
        assert len(root) == 1
        wall = root[0][2] - root[0][1]
        total_self = sum(self_s for _, self_s in members)
        assert total_self == pytest.approx(wall, rel=1e-9, abs=1e-9)
        # the op span only adds two clock reads around the timed call
        assert 0.0 <= wall - times[0] <= 1e-3 + 0.05 * times[0]
        # the traced layers below the op account for most of it
        root_self = [self_s for s, self_s in members if s is root[0]][0]
        assert root_self <= 0.25 * wall, label


def _flatten(obj):
    if isinstance(obj, np.ndarray):
        return [obj.tobytes()]
    if hasattr(obj, "toarray"):
        return [obj.data.tobytes(), obj.indices.tobytes(), obj.indptr.tobytes()]
    if dataclasses.is_dataclass(obj):
        return [b for f in dataclasses.fields(obj)
                for b in _flatten(getattr(obj, f.name))]
    if isinstance(obj, (list, tuple)):
        return [b for item in obj for b in _flatten(item)]
    return [repr(obj).encode()]


@pytest.mark.parametrize("name", sorted(TOY))
def test_one_seed_gives_bit_identical_inputs(name):
    workload = toy(name)
    first, again = _flatten(workload.setup(5)), _flatten(workload.setup(5))
    assert first == again
    assert first != _flatten(workload.setup(6))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "boxqp-loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
