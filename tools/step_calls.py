"""Interpreter calls per solver step, counted with ``sys.setprofile``.

    python3 tools/step_calls.py --n 300 --seed 1

Runs the spectrahedron solves the ``spectra-inexact`` benchmark workload
runs (``generate_instance(n, 2 n, 20)`` on the 8 instance seeds its
``--seed`` stands for, the constant step then the Armijo rule through
``ipgm.harness.run_variant`` with the rank-p projector) once untraced, to
warm caches and imports, then once under a profile hook.  It prints the
numpy and scipy versions and, per steady step, the C-level calls (every
``c_call`` event: numpy and scipy functions, ndarray methods, builtins)
and the Python frames (every ``call`` event).  A steady step runs from one
projection to the next: each solve's first projection, from the shifted
start, takes a Krylov fill and is left out, as are the work before it and
instance generation.  ``--top N`` lists the N most frequent C functions
and Python functions over the steady steps.

Counts depend on the numpy and scipy versions (their Python wrappers call
one another), so compare only runs on the same versions.  The result
needs no BLAS threads; unset thread variables default to 1 as in
``bench/run.py``.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ipgm.harness  # noqa: E402
import ipgm.problems  # noqa: E402
import ipgm.schedules  # noqa: E402
import ipgm.sets  # noqa: E402

# the benchmark's spectrahedron workloads: omega 20, 8 instances a seed
OMEGA = 20
INSTANCES = 8


def instance_seeds(seed: int, count: int) -> list[int]:
    """The instance seeds of a workload seed, as the benchmark derives them."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def solve_pass(insts: list) -> None:
    schedule = ipgm.schedules.SummableSchedule.logarithmic(100.0)
    for inst in insts:
        for algo, gamma3 in (("constant", 0.0),
                             ("armijo", ipgm.harness.ARMIJO_GAMMA3)):
            ipgm.harness.run_variant(inst, algo, "inexact", 0.0, gamma3,
                                     schedule, 1e-4, 20000)


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

    insts = [ipgm.problems.generate_instance(args.n, 2 * args.n, OMEGA,
                                             seed=s)
             for s in instance_seeds(args.seed, INSTANCES)]
    solve_pass(insts)
    counter = StepCounter(args.top > 0)
    sys.setprofile(counter)
    try:
        solve_pass(insts)
    finally:
        sys.setprofile(None)
    if counter.steps == 0:
        print("error: no solve took a second projection", file=sys.stderr)
        return 1
    print(f"numpy {np.__version__}, scipy {scipy.__version__}, "
          f"python {sys.version.split()[0]}")
    print(f"n={args.n}, omega={OMEGA}, seed {args.seed}, "
          f"{INSTANCES} instances, {counter.steps} steady steps")
    print(f"c_calls_per_step {counter.c_calls / counter.steps:.1f}")
    print(f"py_frames_per_step {counter.frames / counter.steps:.1f}")
    for name, count in counter.by_name.most_common(args.top):
        print(f"{count / counter.steps:8.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
