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

Iterates keep the form the projection gives them.  When it returns a
factored ``LowRank`` point (the spectrahedron projections do), the
iterate stays factored: the oracle sees the ``LowRank`` and may answer
with a ``FactoredGradient``, whose step X - alpha G goes to the next
projection as a ``StepOperator``; the gradient norm, ||x||, the step and
the Armijo slope come from r x r products, and an Armijo trial point
(1 - t) X + t W stays factored as [sqrt(1 - t) Y_x, sqrt(t) Y_w].  A start
given as a ``LowRank`` c I + Y Y^T (the harness passes
``structured_start``) stays factored the same way: the start check, f, the
gradient, the first step (an operator whose eigenpairs come from a Krylov
fill when c != 0), ||x||, the distance to the first projection and, under
the Armijo rule, the slope and the first secant pair all come from its
shift and factor; only an Armijo trial strictly between two points, one
of them with a nonzero shift, is formed densely.  Any dense operand (a
dense x0, a plain array gradient) puts that operation on the dense path.
``SolveResult`` keeps the start and the final iterate in these forms; its
``x0`` and ``x_final`` form their dense matrices on access.

Runs emit one scalar telemetry record per iteration; ``monitor_descent``
and ``monitor_complexity`` replay the per-iteration and aggregate
inequalities the scheme guarantees, with the parameters read from the
run's ``SolveResult.config`` and ``lipschitz_L`` (the schedule's b_k
included: a record keeps only the budget a_k its step spent), so a
finished run can be audited without re-solving.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .linalg import (
    EigenSolverError,
    FactoredGradient,
    LowRank,
    frobenius_inner,
    frobenius_norm,
)
from .schedules import (
    ForcingParams,
    SummableSchedule,
    ToleranceFn,
    forcing_for_iteration,
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

_TINY = np.finfo(float).tiny  # the relative change's floor on ||x||


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
    Lipschitz constant on the feasible set: ``None`` means unknown, and 0.0
    is a valid constant (an affine f).  ``opt_value_hint`` is a known
    optimal value.
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
        # written so that NaN fails every check
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 <= self.gamma3_bar < 0.5:
            raise ValueError("gamma3_bar must lie in [0, 1/2)")
        if not 0.0 <= self.gamma2_cap < 0.5:
            raise ValueError("gamma2_cap must lie in [0, 1/2)")
        if not 0.0 < self.stop_tol < math.inf or self.max_iter < 1:
            raise ValueError("stop_tol must be positive and finite and "
                             "max_iter >= 1")

    def validate_against(self, lipschitz_L: float) -> None:
        # alpha L <= 1 - 2 gamma3_bar, undivided so that L = 0 passes
        limit = (1.0 - 2.0 * self.gamma3_bar) * (1.0 + 1e-12)
        if self.alpha * lipschitz_L > limit:
            raise ValueError(
                f"alpha={self.alpha} exceeds (1 - 2 gamma3_bar)/L with "
                f"gamma3_bar={self.gamma3_bar}, L={lipschitz_L}")
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
    """Configuration of the Armijo feasible-direction variant.

    Each iteration's step alpha_k is the spectral (Barzilai-Borwein) step
    clamped to [alpha_min, alpha_max], and alpha_max on the first one;
    equal bounds give a fixed step.
    """

    sigma: float = 1e-4
    tau: float = 0.5
    alpha_min: float = 1e-10
    alpha_max: float = 1e10
    gamma3_bar: float = 0.49995
    phi: ToleranceFn = field(default_factory=lambda: ToleranceFn.canonical("phi4"))
    max_backtracks: int = 60
    max_iter: int = 1000
    stop_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if not 0.0 < self.alpha_min <= self.alpha_max < math.inf:
            raise ValueError("need 0 < alpha_min <= alpha_max < inf")
        if not 0.0 <= self.gamma3_bar < 0.5:
            raise ValueError("gamma3_bar must lie in [0, 1/2)")
        if (not 0.0 < self.stop_tol < math.inf or self.max_iter < 1
                or self.max_backtracks < 1):
            raise ValueError("invalid iteration limits")

    @property
    def xi(self) -> float:
        return 2.0 * self.alpha_max / self.sigma

    def tau_min(self, lipschitz_L: float) -> float:
        """Floor of the accepted tau_k; 1.0 when L = 0, since an affine f
        accepts the first trial step."""
        if lipschitz_L == 0.0:
            return 1.0
        return min(2.0 * self.tau * (1.0 - self.sigma) * (1.0 - self.gamma3_bar)
                   / (self.alpha_max * lipschitz_L), 1.0)


@dataclass
class IterationRecord:
    """Scalar telemetry for one outer iteration.

    ``p_used``, ``certificate_gap``, ``phi_value`` and the eigensolver work
    ``matvecs``, ``fills``, ``dense_fill``, ``ranks_tried`` and
    ``range_dim`` are copied from the projection; they are ``None`` where it
    does not report them (an exact projection reports none of them).  They
    tell the eigensolver's fills apart: ``range_dim`` set means the range
    fill served the pairs, ``dense_fill`` true a LAPACK fill (``fills`` is
    2 after a Krylov miss, or once the rank outgrew the Krylov fill), and
    neither the Krylov fill of a step from a shifted start.  ``matvecs``
    counts the Krylov fill's products and one certificate product per pair
    each fill computed and can serve, whether or not a rank asked for it.
    ``wall_time`` is the pass's wall time in seconds; ``t_proj`` is the part
    spent forming the projection input x - alpha grad f(x) and projecting
    it, and ``t_eval`` the part spent moving to the next iterate, which
    evaluates the objective there (at every trial point of an Armijo
    search).  ``a_k`` is the budget a constant step spent.
    """

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
    t_proj: float
    t_eval: float
    a_k: float | None = None
    tau: float | None = None
    backtracks: int | None = None
    dir_norm: float | None = None
    dir_deriv: float | None = None
    p_used: int | None = None
    certificate_gap: float | None = None
    phi_value: float | None = None
    matvecs: int | None = None
    fills: int | None = None
    dense_fill: bool | None = None
    ranks_tried: int | None = None
    range_dim: int | None = None
    dist_to_ref: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolveResult:
    """A finished run: the configuration it used, the Lipschitz constant of
    its objective (``None`` when unknown) and what it produced.

    Each point is stored in the form the solve held it.  ``start`` is the
    checked x0: a ``LowRank`` such as ``structured_start`` returns,
    else a dense array.  ``final_point`` is the last iterate: a ``LowRank``
    on the factored path, else a dense array (a dense run, or an iterate
    whose factor reached n/4 columns), and ``start`` itself when no
    iteration ran.  ``x_final`` and ``x0`` are their dense matrices; a
    factored point forms a new n x n array on every access and none is
    cached, so a caller who reads one twice should keep the array.
    """

    config: ConstantStepConfig | ArmijoConfig
    final_point: np.ndarray | LowRank
    f_final: float
    iterations: int
    stop_reason: str
    records: list[IterationRecord]
    start: np.ndarray | LowRank
    f0: float
    lipschitz_L: float | None

    @property
    def x_final(self) -> np.ndarray:
        return _dense(self.final_point)

    @property
    def x0(self) -> np.ndarray:
        return _dense(self.start)

    @property
    def algorithm(self) -> str:
        """``"constant"`` or ``"armijo"``, after the type of ``config``."""
        return ("constant" if isinstance(self.config, ConstantStepConfig)
                else "armijo")

    @property
    def p_mean(self) -> float | None:
        ps = [r.p_used for r in self.records if r.p_used is not None]
        return float(np.mean(ps)) if ps else None

    @property
    def p_max(self) -> int | None:
        ps = [r.p_used for r in self.records if r.p_used is not None]
        return int(max(ps)) if ps else None


def _dense(a) -> np.ndarray:
    return np.asarray(a, dtype=float)


def _norm(x) -> float:
    if isinstance(x, (LowRank, FactoredGradient)):
        return math.sqrt(x.sq_norm)
    return frobenius_norm(_dense(x))


def _distance(a, b) -> float:
    """||a - b||, from the stacked factors when both are factored."""
    if isinstance(a, LowRank) and isinstance(b, LowRank):
        return math.sqrt(a.sq_distance(b))
    return _norm(_dense(a) - _dense(b))


def _gradient_step(x, g, alpha: float):
    """The projection input x - alpha g (an operator for a factored g)."""
    if isinstance(g, FactoredGradient):
        return g.step(alpha)
    return _dense(x) - alpha * g


def _slope(g, x, w) -> float:
    """<g, w - x>, the derivative of f along w - x."""
    if isinstance(g, FactoredGradient) and isinstance(w, LowRank):
        return g.inner(w) - g.inner(g.point)
    return frobenius_inner(_dense(g), _dense(w) - _dense(x))


def _factored_or_dense(x):
    """A factored point while its factor has fewer than n/4 columns, else
    its dense matrix.  A ``StepOperator`` product with a rank-r iterate
    costs about 4 n r operations against n^2 for a dense one, so n/4 is
    where the factor stops paying."""
    if isinstance(x, LowRank) and 4 * x.rank < x.shape[0]:
        return x
    return _dense(x)


def _toward(x, w, t: float):
    """x + t (w - x), and w itself at t = 1.  For unshifted factored points
    the convex combination stays factored, (1 - t) X + t W = [sqrt(1 - t)
    Y_x, sqrt(t) Y_w] [...]^T, within the rank bound of
    ``_factored_or_dense``."""
    if t == 1.0:
        return w
    # A shifted point (the start, under a backtrack at iteration 0) is
    # combined densely.  Kept factored, the trial's projection would take
    # the Krylov fill instead of LAPACK, which wins or loses by the input:
    # for the sigma = 0.5 Armijo rule from ``structured_start`` with one
    # backtrack at iteration 0 (2-core VM, OpenBLAS 1 thread) it took 2.1
    # against 6.4 ms at n=300, omega 20, seed 3, but 7.0 against 4.0 ms at
    # n=200, omega 10, seed 3, where the Krylov fill missed
    if (isinstance(x, LowRank) and isinstance(w, LowRank)
            and not (x.shift or w.shift)):
        return _factored_or_dense(LowRank(np.concatenate(
            [math.sqrt(1.0 - t) * x.factor, math.sqrt(t) * w.factor],
            axis=1)))
    x = _dense(x)
    return x + t * (_dense(w) - x)


def _check_start(feasible_set: ConvexSetOracle, x0, feas_tol=1e-8):
    """x0 as the solve uses it: a ``LowRank`` as it is, anything else as a
    dense array."""
    if not isinstance(x0, LowRank):
        x0 = np.asarray(x0, dtype=float)
    if not feasible_set.contains(x0, feas_tol=feas_tol):
        raise InfeasibleStartError("starting point is not feasible")
    return x0


def _iterate(obj: ObjectiveOracle, feasible_set: ConvexSetOracle, x0, cfg,
             step_params, move, track_distance_to) -> SolveResult:
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
    x = start = _check_start(feasible_set, x0)
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
        if not isinstance(g, FactoredGradient):
            g = _dense(g)
        gn = _norm(g)
        if not math.isfinite(gn):
            raise SolverError(f"iteration {k}: gradient norm is {gn}")
        if grad0_scale is None:
            grad0_scale = max(1.0, gn)
        if gn <= GRAD_ZERO_REL * grad0_scale:
            stop_reason = STOP_STATIONARY
            break
        alpha, gamma, params_fields = step_params(k, x, g, gn)
        t1 = time.perf_counter()
        try:
            proj = feasible_set.inexact_project(_gradient_step(x, g, alpha), x,
                                                gamma, cfg.phi, state=state)
        except EigenSolverError as exc:
            raise SolverError(f"iteration {k}: projection failed: {exc}") from exc
        t_proj = time.perf_counter() - t1
        w = _factored_or_dense(proj.point)
        state = proj.state
        dist = _distance(w, x)
        if (gamma.gamma1 + gamma.gamma2 == 0.0
                and dist <= FIXED_POINT_REL * max(1.0, _norm(x))):
            # with a zero budget the projection returning x certifies
            # stationarity; with a positive budget it does not
            stop_reason = STOP_FIXED_POINT
            break
        t1 = time.perf_counter()
        try:
            x_next, f_next, g_next, step, move_fields = move(x, w, g, f_x,
                                                             dist)
        except LineSearchError as exc:
            raise LineSearchError(f"iteration {k}: {exc}") from exc
        t_eval = time.perf_counter() - t1
        if not math.isfinite(f_next):
            raise SolverError(f"iteration {k}: objective value is {f_next}")
        norm_x = _norm(x)
        if norm_x > 0.0 or step == 0.0:
            rel = step / max(norm_x, _TINY)
        else:
            rel = np.inf  # any move away from the zero vector
        records.append(IterationRecord(
            k=k, f_x=f_x, f_next=f_next, grad_norm=gn, alpha=alpha,
            gamma1=gamma.gamma1, gamma2=gamma.gamma2, gamma3=gamma.gamma3,
            step_norm=step, rel_change=rel,
            wall_time=time.perf_counter() - t0, t_proj=t_proj, t_eval=t_eval,
            p_used=proj.rank_used, certificate_gap=proj.certificate_gap,
            phi_value=proj.phi_value, matvecs=proj.matvecs,
            fills=proj.fills, dense_fill=proj.dense_fill,
            ranks_tried=proj.ranks_tried, range_dim=proj.range_dim,
            dist_to_ref=(None if track_distance_to is None
                         else _norm(_dense(x) - track_distance_to)),
            **params_fields, **move_fields))
        x, f_x, g = x_next, f_next, g_next
        iterations = k + 1
        consec = consec + 1 if rel <= cfg.stop_tol else 0
        if consec >= 2:
            stop_reason = STOP_CONVERGED
            break
    return SolveResult(
        config=cfg, final_point=x, f_final=f_x, iterations=iterations,
        stop_reason=stop_reason, records=records, start=start, f0=f0,
        lipschitz_L=obj.lipschitz_L)


def solve_constant(obj: ObjectiveOracle, feasible_set: ConvexSetOracle, x0,
                   cfg: ConstantStepConfig,
                   track_distance_to: np.ndarray | None = None) -> SolveResult:
    """Constant-step rule.

    Each iteration spends the budget a_k = ``cfg.schedule.a(k)`` on the
    forcing parameters, takes z = x - alpha grad f(x) and accepts any
    inexact projection of z onto the set relative to x as the next iterate.
    """
    if obj.lipschitz_L is not None:
        cfg.validate_against(obj.lipschitz_L)

    def step_params(k, x, g, gn):
        a_k = cfg.schedule.a(k)
        gamma = forcing_for_iteration(gn * gn, a_k, cfg.gamma2_cap,
                                      cfg.gamma3_bar)
        return cfg.alpha, gamma, {"a_k": a_k}

    def move(x, w, g, f_x, dist):
        f_w, g_w = obj.value_and_gradient(w)
        return w, float(f_w), g_w, dist, {}

    return _iterate(obj, feasible_set, x0, cfg, step_params, move,
                    track_distance_to)


def armijo_search(obj: ObjectiveOracle, xk, wk, sigma: float, tau: float,
                  max_backtracks: int, f_x: float, dir_deriv: float
                  ) -> tuple[float, int, np.ndarray | LowRank, float,
                             np.ndarray | FactoredGradient]:
    """Smallest j >= 0 with f(x + tau^j d) <= f(x) + sigma tau^j <g, d>.

    Here d = w - x, and the caller supplies ``f_x`` = f(x) and ``dir_deriv``
    = <grad f(x), d>.  Each trial point takes one ``value_and_gradient``
    call; returns (tau^j, j, x_trial, f, grad f) at the accepted one, where
    ``x_trial`` is the object the oracle saw: w itself for a full step,
    factored when x and w are (within ``_toward``'s rank bound).  A NaN
    value of f(x) or of a trial point raises ``LineSearchError`` at once; a
    +inf trial value backtracks like any other rejected one.
    """
    if math.isnan(f_x):
        raise LineSearchError("objective value at the base point is nan")
    step = 1.0
    for j in range(max_backtracks + 1):
        x_trial = _toward(xk, wk, step)
        f_trial, g_trial = obj.value_and_gradient(x_trial)
        f_trial = float(f_trial)
        if math.isnan(f_trial):
            raise LineSearchError(
                f"objective value is nan at trial step {step:.3e} "
                f"(backtrack {j})")
        if f_trial <= f_x + sigma * step * dir_deriv:
            return step, j, x_trial, f_trial, g_trial
        step *= tau
    raise LineSearchError(
        f"no sufficient decrease within {max_backtracks} backtracks "
        f"(directional derivative {dir_deriv:.3e})")


def spectral_step(s_k, y_k, alpha_min: float, alpha_max: float) -> float:
    """Barzilai-Borwein step <S,S>/<S,Y> clamped to [alpha_min, alpha_max]."""
    s_k = np.asarray(s_k, dtype=float)
    y_k = np.asarray(y_k, dtype=float)
    return _clamped_ratio(frobenius_inner(s_k, s_k), frobenius_inner(s_k, y_k),
                          alpha_min, alpha_max)


def _clamped_ratio(ss: float, sy: float, alpha_min: float,
                   alpha_max: float) -> float:
    if sy > 0:
        return min(alpha_max, max(alpha_min, ss / sy))
    return alpha_max


def solve_armijo(obj: ObjectiveOracle, feasible_set: ConvexSetOracle, x0,
                 cfg: ArmijoConfig,
                 track_distance_to: np.ndarray | None = None) -> SolveResult:
    """Armijo rule along the feasible direction w - x.

    The inexact projection runs with gamma1 = gamma2 = 0 and gamma3 at its
    cap, so a projection returning x itself certifies stationarity.
    Otherwise a backtracking search picks tau_k and the iterate moves to
    x + tau_k (w - x), staying feasible by convexity.  The line search
    hands on the accepted trial point with its value and gradient, and the
    step length is tau_k ||w - x||.
    """
    gamma = ForcingParams(0.0, 0.0, cfg.gamma3_bar)
    prev = None  # (x, g) of the previous iteration, for the spectral step

    def step_params(k, x, g, gn):
        nonlocal prev
        if prev is None or cfg.alpha_min == cfg.alpha_max:
            alpha_k = cfg.alpha_max
        elif (isinstance(g, FactoredGradient)
              and isinstance(prev[1], FactoredGradient)):
            alpha_k = _clamped_ratio(*g.secant(prev[1]), cfg.alpha_min,
                                     cfg.alpha_max)
        else:
            alpha_k = spectral_step(_dense(x) - _dense(prev[0]),
                                    _dense(g) - _dense(prev[1]),
                                    cfg.alpha_min, cfg.alpha_max)
        prev = (x, g)
        return alpha_k, gamma, {}

    def move(x, w, g, f_x, dist):
        dir_deriv = _slope(g, x, w)
        tau_k, j_k, x_next, f_next, g_next = armijo_search(
            obj, x, w, cfg.sigma, cfg.tau, cfg.max_backtracks, f_x, dir_deriv)
        return x_next, f_next, g_next, tau_k * dist, {
            "tau": tau_k, "backtracks": j_k, "dir_norm": dist,
            "dir_deriv": dir_deriv}

    return _iterate(obj, feasible_set, x0, cfg, step_params, move,
                    track_distance_to)


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


def _running_min(values, bound_at):
    """(min of values[:i + 1], bound_at(i)) for each i: a bound asserted on
    the best value of every prefix of a run."""
    best = np.inf
    for i, value in enumerate(values):
        best = min(best, value)
        yield best, bound_at(i)


def _skipped(name, note) -> CheckResult:
    return CheckResult(name=name, passed=True, checked=0, worst_slack=None,
                       note=note)


def monitor_descent(result: SolveResult, rtol: float = 1e-8) -> MonitorReport:
    """Replay the per-iteration inequalities of a finished run.

    Constant step: the sufficient-decrease inequality with margin nu and the
    monotonicity of the Lyapunov values f(x^k) + rho b_{k-1}, with b from
    ``result.config.schedule``.  Armijo: strict
    descent, the feasible-direction slope bound, and the backtracking floor
    tau_k >= tau_min when a Lipschitz constant is available.
    """
    tol = rtol * max(1.0, abs(result.f0))
    checks: list[CheckResult] = []
    recs = result.records
    cfg, lip = result.config, result.lipschitz_L
    if isinstance(cfg, ConstantStepConfig):
        rho = cfg.rho
        if lip is not None:
            nu = cfg.nu(lip)
            checks.append(_run_check(
                "descent-inequality",
                ((r.f_next,
                  r.f_x + rho * (r.gamma1 + r.gamma2) * r.grad_norm ** 2
                  - nu * r.step_norm ** 2) for r in recs),
                tol))
        else:
            checks.append(_skipped("descent-inequality", "no Lipschitz constant"))
        b = cfg.schedule.b_at
        checks.append(_run_check(
            "lyapunov-monotone",
            ((r.f_next + rho * b(r.k), r.f_x + rho * b(r.k - 1))
             for r in recs),
            tol))
    elif isinstance(cfg, ArmijoConfig):
        checks.append(_run_check(
            "armijo-descent", ((r.f_next, r.f_x) for r in recs), tol))
        checks.append(_run_check(
            "descent-direction",
            ((r.dir_deriv, (r.gamma3 - 1.0) / r.alpha * r.dir_norm ** 2)
             for r in recs),
            tol))
        if lip is not None:
            tau_min = cfg.tau_min(lip)
            checks.append(_run_check(
                "tau-lower-bound", ((tau_min, r.tau) for r in recs), 1e-12))
        else:
            checks.append(_skipped("tau-lower-bound", "no Lipschitz constant"))
    else:
        raise ValueError(f"unknown configuration {type(cfg).__name__}")
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
    cfg, lip = result.config, result.lipschitz_L
    if isinstance(cfg, ConstantStepConfig):
        rho, alpha, b_minus1 = cfg.rho, cfg.alpha, cfg.schedule.b_minus1
        eta = result.f0 - f_star + rho * b_minus1
        if lip is not None and n_rec > 0:
            nu = cfg.nu(lip)
            checks.append(_run_check("displacement-bound", _running_min(
                [r.step_norm for r in recs],
                lambda i: math.sqrt(max(eta, 0.0) / nu) / math.sqrt(i + 1)),
                rtol * max(1.0, eta)))
        else:
            checks.append(_skipped("displacement-bound",
                                   "no Lipschitz constant or empty run"))
        if (convex or mu) and x_star is not None and n_rec > 0:
            d0_sq = frobenius_norm(result.x0 - np.asarray(x_star)) ** 2
            checks.append(_run_check("convex-rate", _running_min(
                [r.f_next - f_star for r in recs],
                lambda i: ((d0_sq + 2 * alpha * rho * b_minus1)
                           / (2 * alpha * (i + 1)))),
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
    elif isinstance(cfg, ArmijoConfig):
        if lip is not None and n_rec > 0:
            tau_min = cfg.tau_min(lip)
            c = cfg.alpha_max * max(result.f0 - f_star, 0.0) / (
                cfg.sigma * tau_min * (1.0 - cfg.gamma3_bar))
            checks.append(_run_check("armijo-displacement-bound", _running_min(
                [r.dir_norm for r in recs],
                lambda i: math.sqrt(c) / math.sqrt(i + 1)),
                rtol * max(1.0, abs(result.f0))))
            if convex and x_star is not None:
                d0_sq = frobenius_norm(result.x0 - np.asarray(x_star)) ** 2
                checks.append(_run_check("armijo-convex-rate", _running_min(
                    [r.f_x - f_star for r in recs],
                    lambda i: ((d0_sq + cfg.xi * max(result.f0 - f_star, 0.0))
                               / (2 * cfg.alpha_min * tau_min * (i + 1)))),
                    rtol * max(1.0, abs(result.f0))))
            else:
                checks.append(_skipped("armijo-convex-rate",
                                       "needs convexity and x_star"))
        else:
            checks.append(_skipped("armijo-displacement-bound",
                                   "no Lipschitz constant or empty run"))
    else:
        raise ValueError(f"unknown configuration {type(cfg).__name__}")
    return MonitorReport(checks=checks)
