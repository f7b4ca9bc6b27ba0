"""Gradient projection with feasible inexact projections.

One iteration serves both step rules: take an inexact projection w of
x - alpha grad f(x) relative to x, then move from x toward w.  The constant
rule (alpha below (1 - 2 gamma3_bar)/L) spends a summable error budget a_k
on the forcing parameters and moves all the way to w; the Armijo rule
projects with gamma1 = gamma2 = 0 and backtracks along the feasible
direction w - x.

The objective enters only through ``ObjectiveOracle.value_and_gradient``:
one call per point evaluated (x0, every constant-step iterate, every
Armijo trial point), whose gradient the next iteration uses.

Runs emit one scalar telemetry record per iteration; ``monitor_descent``
and ``monitor_complexity`` replay the per-iteration and aggregate
inequalities the scheme guarantees, so a finished run can be audited
without re-solving.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .linalg import EigenSolverError, frobenius_inner, frobenius_norm
from .schedules import (
    ForcingParams,
    SummableSchedule,
    ToleranceFn,
    forcing_for_iteration,
    schedule_values,
)
from .sets import ConvexSetOracle

__all__ = [
    "ObjectiveOracle",
    "ConstantStepConfig",
    "ArmijoConfig",
    "IterationRecord",
    "SolveResult",
    "SolverError",
    "LineSearchError",
    "InfeasibleStartError",
    "solve_constant",
    "solve_armijo",
    "armijo_search",
    "spectral_step",
    "constant_alpha_from_gamma",
    "monitor_descent",
    "monitor_complexity",
    "CheckResult",
    "MonitorReport",
]

STOP_CONVERGED = "converged"
STOP_STATIONARY = "stationary-gradient"
STOP_FIXED_POINT = "w-equals-x"
STOP_MAX_ITER = "max-iter"

GRAD_ZERO_REL = 1e-14
FIXED_POINT_REL = 1e-12


class SolverError(RuntimeError):
    pass


class InfeasibleStartError(SolverError):
    pass


class LineSearchError(SolverError):
    """Backtracking met a NaN objective value or exhausted its budget, which
    points at a broken objective or gradient or an invalid projection."""


@dataclass(frozen=True)
class ObjectiveOracle:
    """First-order oracle for the objective.

    ``value_and_gradient(x)`` returns ``(f(x), grad f(x))`` and is the only
    way the solvers evaluate the objective.  ``lipschitz_L`` is a gradient
    Lipschitz constant on the feasible set (needed by the constant-step
    variant), ``opt_value_hint`` a known optimal value.
    """

    value_and_gradient: Callable[[np.ndarray], tuple[float, np.ndarray]]
    lipschitz_L: float | None = None
    opt_value_hint: float | None = None


def constant_alpha_from_gamma(lipschitz_L: float, gamma3_bar: float) -> float:
    """Step size 0.9999 (1 - 2 gamma3_bar)/L, strictly inside the stable range."""
    if lipschitz_L <= 0:
        raise ValueError("lipschitz_L must be positive")
    if not 0.0 <= gamma3_bar < 0.5:
        raise ValueError("gamma3_bar must lie in [0, 1/2)")
    return 0.9999 * (1.0 - 2.0 * gamma3_bar) / lipschitz_L


@dataclass(frozen=True)
class ConstantStepConfig:
    """Configuration of the constant-step variant.

    Requires 0 < alpha <= (1 - 2 gamma3_bar)/L and a positive margin
    nu = (1 - gamma2_cap - gamma3_bar)/alpha - L/2; both are checked when
    the objective carries a Lipschitz constant.
    """

    alpha: float
    schedule: SummableSchedule
    phi: ToleranceFn = field(default_factory=lambda: ToleranceFn.canonical("phi1"))
    gamma3_bar: float = 0.0
    gamma2_cap: float = 0.49995
    max_iter: int = 10000
    stop_tol: float = 1e-4

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.gamma3_bar < 0.5:
            raise ValueError("gamma3_bar must lie in [0, 1/2)")
        if not 0.0 <= self.gamma2_cap < 0.5:
            raise ValueError("gamma2_cap must lie in [0, 1/2)")
        if self.stop_tol <= 0 or self.max_iter < 1:
            raise ValueError("stop_tol must be positive and max_iter >= 1")

    def validate_against(self, lipschitz_L: float) -> None:
        cap = (1.0 - 2.0 * self.gamma3_bar) / lipschitz_L
        if self.alpha > cap * (1.0 + 1e-12):
            raise ValueError(
                f"alpha={self.alpha} exceeds (1 - 2 gamma3_bar)/L = {cap}")
        if self.nu(lipschitz_L) <= 0:
            raise ValueError("descent margin nu must be positive")

    def nu(self, lipschitz_L: float) -> float:
        return ((1.0 - self.gamma2_cap - self.gamma3_bar) / self.alpha
                - lipschitz_L / 2.0)

    @property
    def rho(self) -> float:
        return self.alpha / (1.0 - 2.0 * self.gamma2_cap)


@dataclass(frozen=True)
class ArmijoConfig:
    """Configuration of the Armijo feasible-direction variant."""

    sigma: float = 1e-4
    tau: float = 0.5
    alpha_min: float = 1e-10
    alpha_max: float = 1e10
    gamma3_bar: float = 0.49995
    step_rule: str = "spectral"  # or "fixed"
    fixed_alpha: float | None = None
    phi: ToleranceFn = field(default_factory=lambda: ToleranceFn.canonical("phi4"))
    max_backtracks: int = 60
    max_iter: int = 1000
    stop_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if not 0.0 < self.alpha_min <= self.alpha_max:
            raise ValueError("need 0 < alpha_min <= alpha_max")
        if not 0.0 <= self.gamma3_bar < 0.5:
            raise ValueError("gamma3_bar must lie in [0, 1/2)")
        if self.step_rule not in ("spectral", "fixed"):
            raise ValueError("step_rule must be 'spectral' or 'fixed'")
        if self.fixed_alpha is not None and not (
                self.alpha_min <= self.fixed_alpha <= self.alpha_max):
            raise ValueError("fixed_alpha must lie in [alpha_min, alpha_max]")
        if self.stop_tol <= 0 or self.max_iter < 1 or self.max_backtracks < 1:
            raise ValueError("invalid iteration limits")

    @property
    def xi(self) -> float:
        return 2.0 * self.alpha_max / self.sigma

    def tau_min(self, lipschitz_L: float) -> float:
        return min(2.0 * self.tau * (1.0 - self.sigma) * (1.0 - self.gamma3_bar)
                   / (self.alpha_max * lipschitz_L), 1.0)


@dataclass
class IterationRecord:
    """Scalar telemetry for one outer iteration."""

    k: int
    f_x: float
    f_next: float
    grad_norm: float
    alpha: float
    gamma1: float
    gamma2: float
    gamma3: float
    step_norm: float
    rel_change: float
    wall_time: float
    a_k: float | None = None
    b_k: float | None = None
    b_prev: float | None = None
    tau: float | None = None
    backtracks: int | None = None
    dir_norm: float | None = None
    dir_deriv: float | None = None
    p_used: int | None = None
    certificate_gap: float | None = None
    phi_value: float | None = None
    dist_to_ref: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolveResult:
    algorithm: str
    x_final: np.ndarray
    f_final: float
    iterations: int
    stop_reason: str
    records: list[IterationRecord]
    x0: np.ndarray
    f0: float
    meta: dict = field(default_factory=dict)
    monitor_summary: dict | None = None

    @property
    def p_mean(self) -> float | None:
        ps = [r.p_used for r in self.records if r.p_used is not None]
        return float(np.mean(ps)) if ps else None

    @property
    def p_max(self) -> int | None:
        ps = [r.p_used for r in self.records if r.p_used is not None]
        return int(max(ps)) if ps else None


def _norm(x) -> float:
    return frobenius_norm(np.asarray(x, dtype=float))


def _check_start(feasible_set: ConvexSetOracle, x0, feas_tol=1e-8):
    x0 = np.asarray(x0, dtype=float)
    if not feasible_set.contains(x0, feas_tol=feas_tol):
        raise InfeasibleStartError("starting point is not feasible")
    return x0


def _iterate(algorithm: str, obj: ObjectiveOracle,
             feasible_set: ConvexSetOracle, x0, cfg, step_params, move,
             track_distance_to, meta: dict) -> SolveResult:
    """The iteration shared by both step rules.

    Each pass takes an inexact projection w of x - alpha grad f(x) relative
    to x under the forcing parameters gamma, then moves from x toward w.
    ``step_params(k, x, g, grad_norm)`` returns (alpha, gamma, record
    fields); ``move(x, w, g, f_x, dist)`` with dist = ||w - x|| returns
    (x_next, f(x_next), grad f(x_next), ||x_next - x||, record fields).
    Stops on a vanishing gradient, on a projection that returns x under a
    zero error budget (gamma1 = gamma2 = 0), or when the relative change
    stays below ``cfg.stop_tol`` for two consecutive iterations.  A
    non-finite gradient or objective value, a failed eigensolve in the
    projection or a failed line search raises ``SolverError`` naming the
    iteration.
    """
    x = _check_start(feasible_set, x0)
    f_x, g = obj.value_and_gradient(x)
    f_x = float(f_x)
    if not math.isfinite(f_x):
        raise SolverError(f"starting point: objective value is {f_x}")
    f0 = f_x
    grad0_scale = None
    records: list[IterationRecord] = []
    state = None
    consec = 0
    stop_reason = STOP_MAX_ITER
    iterations = 0
    for k in range(cfg.max_iter):
        t0 = time.perf_counter()
        g = np.asarray(g, dtype=float)
        gn = _norm(g)
        if not math.isfinite(gn):
            raise SolverError(f"iteration {k}: gradient norm is {gn}")
        if grad0_scale is None:
            grad0_scale = max(1.0, gn)
        if gn <= GRAD_ZERO_REL * grad0_scale:
            stop_reason = STOP_STATIONARY
            break
        alpha, gamma, params_fields = step_params(k, x, g, gn)
        try:
            proj = feasible_set.inexact_project(x - alpha * g, x, gamma,
                                                cfg.phi, state=state)
        except EigenSolverError as exc:
            raise SolverError(f"iteration {k}: projection failed: {exc}") from exc
        w = np.asarray(proj.point, dtype=float)
        state = proj.state
        dist = _norm(w - x)
        if (gamma.gamma1 + gamma.gamma2 == 0.0
                and dist <= FIXED_POINT_REL * max(1.0, _norm(x))):
            # with a zero budget the projection returning x certifies
            # stationarity; with a positive budget it does not
            stop_reason = STOP_FIXED_POINT
            break
        try:
            x_next, f_next, g_next, step, move_fields = move(x, w, g, f_x,
                                                             dist)
        except LineSearchError as exc:
            raise LineSearchError(f"iteration {k}: {exc}") from exc
        if not math.isfinite(f_next):
            raise SolverError(f"iteration {k}: objective value is {f_next}")
        norm_x = _norm(x)
        if norm_x > 0.0 or step == 0.0:
            rel = step / max(norm_x, np.finfo(float).tiny)
        else:
            rel = np.inf  # any move away from the zero vector
        records.append(IterationRecord(
            k=k, f_x=f_x, f_next=f_next, grad_norm=gn, alpha=alpha,
            gamma1=gamma.gamma1, gamma2=gamma.gamma2, gamma3=gamma.gamma3,
            step_norm=step, rel_change=rel,
            wall_time=time.perf_counter() - t0,
            p_used=proj.rank_used, certificate_gap=proj.certificate_gap,
            phi_value=proj.phi_value,
            dist_to_ref=(None if track_distance_to is None
                         else _norm(x - track_distance_to)),
            **params_fields, **move_fields))
        x, f_x, g = x_next, f_next, g_next
        iterations = k + 1
        consec = consec + 1 if rel <= cfg.stop_tol else 0
        if consec >= 2:
            stop_reason = STOP_CONVERGED
            break
    return SolveResult(
        algorithm=algorithm, x_final=x, f_final=f_x, iterations=iterations,
        stop_reason=stop_reason, records=records, x0=np.asarray(x0, dtype=float),
        f0=f0, meta=meta)


def solve_constant(obj: ObjectiveOracle, feasible_set: ConvexSetOracle, x0,
                   cfg: ConstantStepConfig,
                   track_distance_to: np.ndarray | None = None) -> SolveResult:
    """Constant-step rule.

    Each iteration spends the budget a_k on the forcing parameters, takes
    z = x - alpha grad f(x) and accepts any inexact projection of z onto the
    set relative to x as the next iterate.
    """
    if obj.lipschitz_L is not None:
        cfg.validate_against(obj.lipschitz_L)

    def step_params(k, x, g, gn):
        a_k, b_k = schedule_values(cfg.schedule, k)
        b_prev = cfg.schedule.b_at(k - 1)
        gamma = forcing_for_iteration(gn * gn, a_k, cfg.gamma2_cap,
                                      cfg.gamma3_bar)
        return cfg.alpha, gamma, {"a_k": a_k, "b_k": b_k, "b_prev": b_prev}

    def move(x, w, g, f_x, dist):
        f_w, g_w = obj.value_and_gradient(w)
        return w, float(f_w), g_w, dist, {}

    return _iterate("constant", obj, feasible_set, x0, cfg, step_params, move,
                    track_distance_to, meta={
                        "alpha": cfg.alpha,
                        "gamma2_cap": cfg.gamma2_cap,
                        "gamma3_bar": cfg.gamma3_bar,
                        "rho": cfg.rho,
                        "nu": (cfg.nu(obj.lipschitz_L) if obj.lipschitz_L else None),
                        "lipschitz_L": obj.lipschitz_L,
                        "b_minus1": cfg.schedule.b_minus1,
                        "schedule": cfg.schedule.name,
                        "stop_tol": cfg.stop_tol,
                    })


def armijo_search(obj: ObjectiveOracle, xk, wk, sigma: float, tau: float,
                  max_backtracks: int, f_x: float, dir_deriv: float
                  ) -> tuple[float, int, float, np.ndarray]:
    """Smallest j >= 0 with f(x + tau^j d) <= f(x) + sigma tau^j <g, d>.

    Here d = w - x, and the caller supplies ``f_x`` = f(x) and ``dir_deriv``
    = <grad f(x), d>.  Each trial point takes one ``value_and_gradient``
    call; returns (tau^j, j, f, grad f) at the accepted one.  A NaN value of
    f(x) or of a trial point raises ``LineSearchError`` at once; a +inf
    trial value backtracks like any other rejected one.
    """
    xk = np.asarray(xk, dtype=float)
    d = np.asarray(wk, dtype=float) - xk
    if math.isnan(f_x):
        raise LineSearchError("objective value at the base point is nan")
    step = 1.0
    for j in range(max_backtracks + 1):
        f_trial, g_trial = obj.value_and_gradient(xk + step * d)
        f_trial = float(f_trial)
        if math.isnan(f_trial):
            raise LineSearchError(
                f"objective value is nan at trial step {step:.3e} "
                f"(backtrack {j})")
        if f_trial <= f_x + sigma * step * dir_deriv:
            return step, j, f_trial, g_trial
        step *= tau
    raise LineSearchError(
        f"no sufficient decrease within {max_backtracks} backtracks "
        f"(directional derivative {dir_deriv:.3e})")


def spectral_step(s_k, y_k, alpha_min: float, alpha_max: float) -> float:
    """Barzilai-Borwein step <S,S>/<S,Y> clamped to [alpha_min, alpha_max]."""
    s_k = np.asarray(s_k, dtype=float)
    y_k = np.asarray(y_k, dtype=float)
    sy = frobenius_inner(s_k, y_k)
    if sy > 0:
        return min(alpha_max, max(alpha_min, frobenius_inner(s_k, s_k) / sy))
    return alpha_max


def solve_armijo(obj: ObjectiveOracle, feasible_set: ConvexSetOracle, x0,
                 cfg: ArmijoConfig,
                 track_distance_to: np.ndarray | None = None) -> SolveResult:
    """Armijo rule along the feasible direction w - x.

    The inexact projection runs with gamma1 = gamma2 = 0 and gamma3 at its
    cap, so a projection returning x itself certifies stationarity.
    Otherwise a backtracking search picks tau_k and the iterate moves to
    x + tau_k (w - x), staying feasible by convexity.  The line search
    hands on the value and gradient of the accepted trial point.
    """
    gamma = ForcingParams(0.0, 0.0, cfg.gamma3_bar)
    prev = None  # (x, g) of the previous iteration, for the spectral step

    def step_params(k, x, g, gn):
        nonlocal prev
        if cfg.step_rule == "fixed":
            alpha_k = cfg.fixed_alpha if cfg.fixed_alpha is not None else cfg.alpha_max
        elif prev is None:
            alpha_k = cfg.alpha_max
        else:
            alpha_k = spectral_step(x - prev[0], g - prev[1], cfg.alpha_min,
                                    cfg.alpha_max)
        prev = (x, g)
        return alpha_k, gamma, {}

    def move(x, w, g, f_x, dist):
        dir_deriv = frobenius_inner(g, w - x)
        tau_k, j_k, f_next, g_next = armijo_search(
            obj, x, w, cfg.sigma, cfg.tau, cfg.max_backtracks, f_x, dir_deriv)
        x_next = x + tau_k * (w - x)
        return x_next, f_next, g_next, _norm(x_next - x), {
            "tau": tau_k, "backtracks": j_k, "dir_norm": dist,
            "dir_deriv": dir_deriv}

    return _iterate("armijo", obj, feasible_set, x0, cfg, step_params, move,
                    track_distance_to, meta={
                        "sigma": cfg.sigma,
                        "tau": cfg.tau,
                        "alpha_min": cfg.alpha_min,
                        "alpha_max": cfg.alpha_max,
                        "gamma3_bar": cfg.gamma3_bar,
                        "step_rule": cfg.step_rule,
                        "xi": cfg.xi,
                        "lipschitz_L": obj.lipschitz_L,
                        "tau_min": (cfg.tau_min(obj.lipschitz_L)
                                    if obj.lipschitz_L else None),
                        "stop_tol": cfg.stop_tol,
                    })


# ---------------------------------------------------------------------------
# monitors


@dataclass
class CheckResult:
    """Outcome of replaying one inequality over a run.

    ``worst_slack`` is the minimum of (bound - value); negative beyond the
    tolerance means a violation.  ``checked == 0`` with a note marks a check
    skipped for lack of inputs.
    """

    name: str
    passed: bool
    checked: int
    worst_slack: float | None
    violations: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MonitorReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def violations(self) -> int:
        return sum(c.violations for c in self.checks)

    def to_dict(self) -> dict:
        return {c.name: c.to_dict() for c in self.checks}


def _run_check(name, pairs, tol) -> CheckResult:
    """pairs: iterable of (value, bound); requires value <= bound + tol."""
    worst = None
    violations = 0
    checked = 0
    for value, bound in pairs:
        slack = bound - value
        checked += 1
        worst = slack if worst is None else min(worst, slack)
        if slack < -tol:
            violations += 1
    return CheckResult(name=name, passed=violations == 0, checked=checked,
                       worst_slack=worst, violations=violations)


def _skipped(name, note) -> CheckResult:
    return CheckResult(name=name, passed=True, checked=0, worst_slack=None,
                       note=note)


def monitor_descent(result: SolveResult, rtol: float = 1e-8) -> MonitorReport:
    """Replay the per-iteration inequalities of a finished run.

    Constant step: the sufficient-decrease inequality with margin nu and the
    monotonicity of the Lyapunov values f(x^k) + rho b_{k-1}.  Armijo: strict
    descent, the feasible-direction slope bound, and the backtracking floor
    tau_k >= tau_min when a Lipschitz constant is available.
    """
    tol = rtol * max(1.0, abs(result.f0))
    checks: list[CheckResult] = []
    recs = result.records
    if result.algorithm == "constant":
        nu = result.meta.get("nu")
        rho = result.meta["rho"]
        if nu is None:
            checks.append(_skipped("descent-inequality", "no Lipschitz constant"))
        else:
            checks.append(_run_check(
                "descent-inequality",
                ((r.f_next,
                  r.f_x + rho * (r.gamma1 + r.gamma2) * r.grad_norm ** 2
                  - nu * r.step_norm ** 2) for r in recs),
                tol))
        checks.append(_run_check(
            "lyapunov-monotone",
            ((r.f_next + rho * r.b_k, r.f_x + rho * r.b_prev) for r in recs),
            tol))
    elif result.algorithm == "armijo":
        checks.append(_run_check(
            "armijo-descent", ((r.f_next, r.f_x) for r in recs), tol))
        checks.append(_run_check(
            "descent-direction",
            ((r.dir_deriv, (r.gamma3 - 1.0) / r.alpha * r.dir_norm ** 2)
             for r in recs),
            tol))
        tau_min = result.meta.get("tau_min")
        if tau_min is not None:
            checks.append(_run_check(
                "tau-lower-bound", ((tau_min, r.tau) for r in recs), 1e-12))
        else:
            checks.append(_skipped("tau-lower-bound", "no Lipschitz constant"))
    else:
        raise ValueError(f"unknown algorithm {result.algorithm!r}")
    return MonitorReport(checks=checks)


def monitor_complexity(result: SolveResult, f_star: float | None = None,
                       x_star: np.ndarray | None = None,
                       mu: float | None = None,
                       convex: bool = False,
                       rtol: float = 1e-8) -> MonitorReport:
    """Replay the aggregate complexity bounds over every prefix of a run.

    ``f_star`` defaults to the best objective value observed in the run,
    which only weakens the asserted bounds.  The convex-rate and contraction
    checks need ``x_star`` (and ``mu`` for the latter) and are skipped with
    a notice otherwise.
    """
    recs = result.records
    checks: list[CheckResult] = []
    if f_star is None:
        f_star = min([result.f_final] + [r.f_x for r in recs])
    n_rec = len(recs)
    if result.algorithm == "constant":
        nu = result.meta.get("nu")
        rho = result.meta["rho"]
        alpha = result.meta["alpha"]
        b_minus1 = result.meta["b_minus1"]
        eta = result.f0 - f_star + rho * b_minus1
        if nu is None or n_rec == 0:
            checks.append(_skipped("displacement-bound",
                                   "no Lipschitz constant or empty run"))
        else:
            def displacement_pairs():
                best = np.inf
                for i, r in enumerate(recs):
                    best = min(best, r.step_norm)
                    yield best, math.sqrt(max(eta, 0.0) / nu) / math.sqrt(i + 1)
            checks.append(_run_check("displacement-bound",
                                     displacement_pairs(), rtol * max(1.0, eta)))
        if (convex or mu) and x_star is not None and n_rec > 0:
            d0_sq = frobenius_norm(result.x0 - np.asarray(x_star)) ** 2

            def convex_pairs():
                best = np.inf
                for i, r in enumerate(recs):
                    best = min(best, r.f_next - f_star)
                    yield best, (d0_sq + 2 * alpha * rho * b_minus1) / (2 * alpha * (i + 1))
            checks.append(_run_check("convex-rate", convex_pairs(),
                                     rtol * max(1.0, abs(result.f0))))
        else:
            checks.append(_skipped("convex-rate", "needs convexity and x_star"))
        if mu and x_star is not None and n_rec > 0:
            dists = [r.dist_to_ref for r in recs]
            if any(d is None for d in dists):
                checks.append(_skipped("contraction",
                                       "run did not track distances"))
            else:
                dists = dists + [frobenius_norm(
                    result.x_final - np.asarray(x_star))]
                factor = 1.0 - alpha * mu

                def contraction_pairs():
                    for i in range(n_rec):
                        if dists[i] < 1e-10:
                            break
                        yield dists[i + 1] ** 2, factor * dists[i] ** 2
                checks.append(_run_check("contraction", contraction_pairs(),
                                         rtol))
        else:
            checks.append(_skipped("contraction", "needs mu and x_star"))
    elif result.algorithm == "armijo":
        tau_min = result.meta.get("tau_min")
        sigma = result.meta["sigma"]
        alpha_max = result.meta["alpha_max"]
        alpha_min = result.meta["alpha_min"]
        gamma3_bar = result.meta["gamma3_bar"]
        xi = result.meta["xi"]
        if tau_min is not None and n_rec > 0:
            c = alpha_max * max(result.f0 - f_star, 0.0) / (
                sigma * tau_min * (1.0 - gamma3_bar))

            def dir_pairs():
                best = np.inf
                for i, r in enumerate(recs):
                    best = min(best, r.dir_norm)
                    yield best, math.sqrt(c) / math.sqrt(i + 1)
            checks.append(_run_check("armijo-displacement-bound", dir_pairs(),
                                     rtol * max(1.0, abs(result.f0))))
            if convex and x_star is not None:
                d0_sq = frobenius_norm(result.x0 - np.asarray(x_star)) ** 2

                def arm_convex_pairs():
                    best = np.inf
                    for i, r in enumerate(recs):
                        best = min(best, r.f_x - f_star)
                        yield best, ((d0_sq + xi * max(result.f0 - f_star, 0.0))
                                     / (2 * alpha_min * tau_min * (i + 1)))
                checks.append(_run_check("armijo-convex-rate",
                                         arm_convex_pairs(),
                                         rtol * max(1.0, abs(result.f0))))
            else:
                checks.append(_skipped("armijo-convex-rate",
                                       "needs convexity and x_star"))
        else:
            checks.append(_skipped("armijo-displacement-bound",
                                   "no Lipschitz constant or empty run"))
    else:
        raise ValueError(f"unknown algorithm {result.algorithm!r}")
    return MonitorReport(checks=checks)
