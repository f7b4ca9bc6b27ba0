"""Interpreter calls per solver step, counted with ``sys.setprofile``.

    python3 tools/step_calls.py --n 300 --seed 1

Runs the operations of the ``spectra-inexact`` benchmark workload
(``bench/bench_workloads.py``, with its ``n`` set to ``--n``: the constant
step then the Armijo rule through ``ipgm.harness.run_variant`` with the
rank-p projector, on the instances its ``setup(seed)`` generates) once
untraced, to warm caches and imports, then once under a profile hook.  It
prints the numpy and scipy versions and, per steady step, the C-level
calls (every ``c_call`` event: numpy and scipy functions, ndarray methods,
builtins) and the Python frames (every ``call`` event).  A steady step
runs from one projection to the next: each solve's first projection, from
the shifted start, takes a Krylov fill and is left out, as are the work
before it, instance generation and the monitors each operation runs after
its solve.  ``--top N`` lists the N most frequent C functions and Python
functions over the steady steps.

Counts depend on the numpy and scipy versions (their Python wrappers call
one another), so compare only runs on the same versions.  The result
needs no BLAS threads; unset thread variables default to 1 as in
``bench/run.py``.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ipgm.harness  # noqa: E402
import ipgm.sets  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def solve_pass(ops: list) -> None:
    for op in ops:
        op.call()


class StepCounter:
    """A profile hook that counts events between projections.

    Each projection starts a step; the counts of a solve's first step (and
    of everything before it) are dropped when its second projection
    starts, and ``run_variant`` returning ends the solve.
    """

    def __init__(self, top: bool):
        self.project = ipgm.sets.Spectrahedron.inexact_project.__code__
        self.solve = ipgm.harness.run_variant.__code__
        self.top = top
        self.c_calls = self.frames = self.steps = 0
        self.by_name = collections.Counter()
        self._c = self._py = 0
        self._seen = 0  # projections in the current solve
        self._names = collections.Counter()

    def __call__(self, frame, event, arg):
        if event == "c_call":
            self._c += 1
            if self.top:
                self._names[f"C {getattr(arg, '__qualname__', arg)}"] += 1
        elif event == "call":
            code = frame.f_code
            self._py += 1
            if self.top:
                self._names[f"py {code.co_qualname}"] += 1
            if code is self.project:
                self._seen += 1
                if self._seen == 2:
                    self._c = self._py = 0
                    self._names.clear()
        elif event == "return" and frame.f_code is self.solve:
            if self._seen >= 2:
                self.c_calls += self._c
                self.frames += self._py
                self.steps += self._seen - 1
                self.by_name.update(self._names)
            self._c = self._py = self._seen = 0
            self._names.clear()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--top", type=int, default=0)
    args = ap.parse_args(argv)

    workload = dataclasses.replace(WORKLOADS["spectra-inexact"], n=args.n)
    ops = workload.ops(workload.setup(args.seed))
    solve_pass(ops)
    counter = StepCounter(args.top > 0)
    sys.setprofile(counter)
    try:
        solve_pass(ops)
    finally:
        sys.setprofile(None)
    if counter.steps == 0:
        print("error: no solve took a second projection", file=sys.stderr)
        return 1
    print(f"numpy {np.__version__}, scipy {scipy.__version__}, "
          f"python {sys.version.split()[0]}")
    print(f"n={args.n}, omega={workload.omega}, seed {args.seed}, "
          f"{workload.instances} instances, {counter.steps} steady steps")
    print(f"c_calls_per_step {counter.c_calls / counter.steps:.1f}")
    print(f"py_frames_per_step {counter.frames / counter.steps:.1f}")
    for name, count in counter.by_name.most_common(args.top):
        print(f"{count / counter.steps:8.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
