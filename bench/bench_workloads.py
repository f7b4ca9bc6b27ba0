"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload turns ``--seed`` into a fixed list of inputs (``setup``) and a
fixed list of operations over them (``ops``).  One pass over the operations
is the unit the runner times and repeats.  Every library call goes through
a module attribute (``ipgm.problems.generate_instance``, ``ipgm.solver.
solve_constant``, ...) so that the traced pass sees it.  Why each workload
exists, and what it predicts, is in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import ipgm.harness
import ipgm.problems
import ipgm.schedules
import ipgm.sets
import ipgm.solver

AGREE_RTOL = 1e-3   # constant vs Armijo final f, the compare-grid bound
X_STAR_RTOL = 1e-4  # box QP distance to the known minimizer


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``call`` is the timed part.  ``check(result, done)`` raises CheckFailed;
    ``done`` maps the labels of this pass's earlier operations to their
    results.  ``steps(result)`` counts outer iterations or projections.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], None]
    steps: Callable[[Any], int]


def instance_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the instances a workload seed stands for."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_monitors(reports) -> None:
    for report in reports:
        bad = [c.name for c in report.checks if not c.passed]
        _require(not bad, f"monitor violations: {bad}")


def _check_agreement(f_a: float, f_b: float) -> None:
    rel = abs(f_a - f_b) / max(abs(f_a), abs(f_b), 1e-12)
    _require(rel <= AGREE_RTOL,
             f"constant and Armijo f differ by {rel:.2e} relative")


def _check_solve(result, feasible_set, done: dict, partner: str | None) -> None:
    solve, reports = result
    _require(solve.stop_reason != ipgm.solver.STOP_MAX_ITER,
             "hit the iteration limit")
    _require(bool(feasible_set.contains(solve.x_final)),
             "x_final is not feasible")
    _check_monitors(reports)
    if partner is not None:
        _require(partner in done, f"no {partner} result to compare with")
        _check_agreement(done[partner][0].f_final, solve.f_final)


def _solve_steps(result) -> int:
    return result[0].iterations


# ---------------------------------------------------------------------------
# spectrahedron least squares through the harness


@dataclass(frozen=True)
class SpectraSolve:
    """Constant step then Armijo on each instance, one projection kind.

    The cells are the ones ``ipgm compare`` runs: constant step with phi1,
    a logarithmic schedule (bbar = 100) and gamma3 = 0, then Armijo-spectral
    with phi4 and gamma3 = 0.49995, both from X0(beta = 0).
    """

    name: str
    proj: str
    n: int = 300
    omega: int = 20
    instances: int = 8
    tol: float = 1e-4
    max_iter: int = 20000

    def setup(self, seed: int) -> list:
        return [ipgm.problems.generate_instance(self.n, 2 * self.n, self.omega,
                                                seed=s)
                for s in instance_seeds(seed, self.instances)]

    def ops(self, insts: list) -> list[Op]:
        ops = []
        for i, inst in enumerate(insts):
            for algo, gamma3 in (("constant", 0.0),
                                 ("armijo", ipgm.harness.ARMIJO_GAMMA3)):
                label = f"i{i}.{algo}"
                partner = f"i{i}.constant" if algo == "armijo" else None
                ops.append(Op(
                    label=label,
                    call=lambda inst=inst, algo=algo, gamma3=gamma3:
                        self._solve(inst, algo, gamma3),
                    check=lambda res, done, inst=inst, partner=partner:
                        _check_solve(res, inst.feasible_set(), done, partner),
                    steps=_solve_steps))
        return ops

    def _solve(self, inst, algo: str, gamma3: float):
        result, _ = ipgm.harness.run_variant(
            inst, algo, self.proj, 0.0, gamma3,
            ipgm.schedules.SummableSchedule.logarithmic(100.0),
            self.tol, self.max_iter)
        reports = (ipgm.solver.monitor_descent(result),
                   ipgm.solver.monitor_complexity(result))
        return result, reports


# ---------------------------------------------------------------------------
# strongly convex box QP, solver loop called directly


@dataclass(frozen=True)
class BoxQPLoop:
    """Constant step (zero budget) and Armijo on box QPs from the origin.

    The origin start makes the first relative change step / tiny overflow
    to inf; the solvers accept that and so does the benchmark.
    """

    name: str = "boxqp-loop"
    n: int = 200
    mu: float = 0.01
    lipschitz_L: float = 1.0
    instances: int = 32
    stop_tol: float = 1e-8
    max_iter: int = 20000

    def setup(self, seed: int) -> list:
        return [ipgm.problems.make_boxqp(self.n, self.mu, self.lipschitz_L,
                                         seed=s)
                for s in instance_seeds(seed, self.instances)]

    def ops(self, qps: list) -> list[Op]:
        ops = []
        for i, qp in enumerate(qps):
            for algo in ("constant", "armijo"):
                label = f"i{i}.{algo}"
                partner = f"i{i}.constant" if algo == "armijo" else None
                ops.append(Op(
                    label=label,
                    call=lambda qp=qp, algo=algo: self._solve(qp, algo),
                    check=lambda res, done, qp=qp, partner=partner:
                        self._check(qp, res, done, partner),
                    steps=_solve_steps))
        return ops

    def _solve(self, qp, algo: str):
        obj, box = qp.objective(), qp.feasible_set()
        x0 = np.zeros(qp.b_vec.shape[0])
        if algo == "constant":
            cfg = ipgm.solver.ConstantStepConfig(
                alpha=1.0 / qp.lipschitz_L,
                schedule=ipgm.schedules.SummableSchedule.zero_budget(1.0),
                gamma2_cap=0.0, max_iter=self.max_iter, stop_tol=self.stop_tol)
            result = ipgm.solver.solve_constant(obj, box, x0, cfg,
                                                track_distance_to=qp.x_star)
        else:
            cfg = ipgm.solver.ArmijoConfig(max_iter=self.max_iter,
                                           stop_tol=self.stop_tol)
            result = ipgm.solver.solve_armijo(obj, box, x0, cfg,
                                              track_distance_to=qp.x_star)
        reports = (ipgm.solver.monitor_descent(result),
                   ipgm.solver.monitor_complexity(
                       result, f_star=obj.opt_value_hint, x_star=qp.x_star,
                       mu=qp.mu, convex=True))
        return result, reports

    def _check(self, qp, res, done: dict, partner: str | None) -> None:
        _check_solve(res, qp.feasible_set(), done, partner)
        dist = float(np.linalg.norm(res[0].x_final - qp.x_star))
        scale = max(1.0, float(np.linalg.norm(qp.x_star)))
        _require(dist <= X_STAR_RTOL * scale,
                 f"x_final is {dist:.2e} from x_star")


# ---------------------------------------------------------------------------
# cold standalone projections


@dataclass(frozen=True)
class ProjectCold:
    """Cold rank-p projections, each followed by its certificate.

    Inputs are V = X0(beta) - alpha grad f(X0) with alpha = 0.9999/L, for
    each beta, under the first-iteration forcing parameters of both step
    rules: the constant step's (phi1, logarithmic budget a_0) and Armijo's
    (phi4, gamma = (0, 0, 0.49995)).
    """

    name: str = "project-cold"
    n: int = 400
    omega: int = 20
    instances: int = 32
    betas: tuple = (0.0, 0.5, 0.99)

    def setup(self, seed: int) -> list:
        a_0 = ipgm.schedules.SummableSchedule.logarithmic(100.0).a(0)
        rules = (("phi1", None),
                 ("phi4", ipgm.schedules.ForcingParams(
                     0.0, 0.0, ipgm.harness.ARMIJO_GAMMA3)))
        cases = []
        for s in instance_seeds(seed, self.instances):
            inst = ipgm.problems.generate_instance(self.n, 2 * self.n,
                                                   self.omega, seed=s)
            alpha = ipgm.solver.constant_alpha_from_gamma(inst.lipschitz_L, 0.0)
            for beta in self.betas:
                x0 = ipgm.problems.starting_point(beta, self.n)
                g = inst.gradient(x0)
                v = x0 - alpha * g
                for kind, gamma in rules:
                    if gamma is None:
                        gamma = ipgm.schedules.forcing_for_iteration(
                            float(np.vdot(g, g)), a_0, ipgm.harness.GAMMA2_CAP,
                            0.0)
                    cases.append((v, x0, gamma,
                                  ipgm.schedules.ToleranceFn.canonical(kind)))
        return cases

    def ops(self, cases: list) -> list[Op]:
        c_set = ipgm.sets.Spectrahedron(self.n)
        return [Op(label=f"c{i}",
                   call=lambda case=case: self._project(c_set, *case),
                   check=lambda res, done: self._check(c_set, res),
                   steps=lambda res: 1)
                for i, case in enumerate(cases)]

    @staticmethod
    def _project(c_set, v, x0, gamma, phi):
        res = ipgm.sets.inexact_project_spectrahedron(v, x0, gamma, phi,
                                                      p_start=1)
        verdict = ipgm.sets.certify_inexact_projection(c_set, x0, v, res.point,
                                                       gamma, phi)
        return res, verdict

    @staticmethod
    def _check(c_set, res) -> None:
        proj, (ok, gap) = res
        _require(bool(ok), f"certificate rejected, gap {gap:.3e}")
        _require(bool(c_set.contains(proj.point)), "projection is infeasible")


WORKLOADS = {
    w.name: w for w in (
        SpectraSolve("spectra-inexact", "inexact"),
        SpectraSolve("spectra-exact", "exact"),
        BoxQPLoop(),
        ProjectCold(),
    )
}
