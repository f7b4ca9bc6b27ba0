"""ipgm benchmark: one workload, one seed, a time budget.

    python3 bench/run.py --workload spectra-inexact --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  Prints one ``name value unit`` line per
metric, then, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics with ``--trace 1``).  Results, and for a traced run the
span file and the per-layer table, go to ``bench/results/``.

BLAS thread variables that are unset default to 1: one closed-loop process,
no oversubscription of a shared machine.  Exit code 0 means measured (read
``correct``); any other exit prints no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# read when numpy loads OpenBLAS, so set before anything imports it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def import_library():
    """Import ipgm from this checkout's src/, or explain why not."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import ipgm
    except ImportError as exc:
        return None, f"cannot import ipgm from {src}: {exc}"
    where = os.path.dirname(os.path.abspath(ipgm.__file__))
    if os.path.commonpath([where, src]) != src:
        return None, f"ipgm was imported from {where}, not from {src}"
    return ipgm, None


def metric_units() -> dict:
    """Units of the gated metrics, by kind, as BENCHMARK.json states them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    ipgm, error = import_library()
    if ipgm is None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    import bench_runner
    from bench_workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    report = bench_runner.run_workload(WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace))
    report["stamp"] = bench_runner.machine_stamp(ROOT)
    for path in bench_runner.write_outputs(report,
                                           os.path.join(BENCH_DIR, "results")):
        print(f"wrote {os.path.relpath(path, ROOT)}")
    bench_runner.print_report(report, metric_units())
    return 0


if __name__ == "__main__":
    sys.exit(main())
