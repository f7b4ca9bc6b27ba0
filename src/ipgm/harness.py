"""Experiment runner: seeded instances, gamma sweeps, exact-vs-inexact
comparisons, monitor verification, CSV/JSON reports.

Reports are deterministic for a fixed config and seed except for the
time_s column; the JSON variant additionally carries an environment stamp.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
import typing
from dataclasses import dataclass, field, asdict

import numpy as np

from .problems import (
    SpectrahedronLSQ,
    generate_instance,
    make_boxqp,
    structured_start,
)
from .schedules import ForcingParams, SummableSchedule, ToleranceFn
from .sets import (
    ExactProjectionAdapter,
    Spectrahedron,
    certify_inexact_projection,
    inexact_project_spectrahedron,
)
from .linalg import frobenius_norm, symmetrize
from .solver import (
    ArmijoConfig,
    ConstantStepConfig,
    SolveResult,
    SolverError,
    constant_alpha_from_gamma,
    monitor_complexity,
    monitor_descent,
    solve_armijo,
    solve_constant,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "cmd_sweep_gamma3",
    "cmd_compare",
    "cmd_verify",
    "load_config_file",
]

GAMMA2_CAP = ConstantStepConfig.gamma2_cap
ARMIJO_GAMMA3 = ArmijoConfig.gamma3_bar


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a run; serializable to flat key=value."""

    proj: str = "inexact"
    n: int = 200
    m: int | None = None
    omega: int = 10
    density: float | None = None
    seed: int = 0
    beta: tuple = field(default=(0.0,),
                        metadata={"help": "comma-separated starting mixes"})
    gamma3: tuple = field(default=(0.0, 0.1, 0.2, 0.3, 0.4),
                          metadata={"help": "comma-separated gamma3 caps"})
    schedule: str = "logarithmic"
    bbar: float = 100.0
    phi: str | None = None  # default: phi1 for constant, phi4 for armijo
    tol: float = 1e-4
    max_iter: int = 20000
    strict: bool = False
    out: str | None = field(
        default=None, metadata={"help": "output path (base name for reports)"})

    def __post_init__(self):
        if self.proj not in ("inexact", "exact"):
            raise ValueError(f"proj must be inexact|exact, got {self.proj!r}")
        if self.m is None:
            self.m = 2 * self.n
        if not self.m >= self.n >= 2:
            raise ValueError(f"need m >= n >= 2, got n={self.n}, m={self.m}")
        if self.omega <= 1:
            raise ValueError("omega must exceed 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.density is not None and not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")
        self.beta = tuple(float(b) for b in self.beta)
        self.gamma3 = tuple(float(g) for g in self.gamma3)
        if not self.beta or not self.gamma3:
            raise ValueError("beta and gamma3 each need at least one value")
        for b in self.beta:
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"beta must lie in [0, 1], got {b}")
        for g in self.gamma3:
            if not 0.0 <= g < 0.5:
                raise ValueError(f"gamma3 must lie in [0, 1/2), got {g}")
        # a NaN tol would switch the solvers' relative-change stop off
        if (not 0.0 < self.tol < math.inf or self.max_iter < 1
                or self.bbar <= 0):
            raise ValueError("tol must be positive and finite, bbar "
                             "positive and max_iter >= 1")
        self.make_schedule()  # validates name
        if self.phi is not None:
            ToleranceFn.canonical(self.phi)  # validates name

    def make_instance(self) -> SpectrahedronLSQ:
        return generate_instance(self.n, self.m, self.omega,
                                 density=self.density, seed=self.seed)

    def make_schedule(self) -> SummableSchedule:
        return SummableSchedule(self.schedule, self.bbar)

    def one_beta(self, command: str) -> float:
        """The start mix of ``command``, which runs from one start; more
        than one beta value is an error, not a list to cut short."""
        if len(self.beta) > 1:
            raise ValueError(f"{command} runs from one start; got beta = "
                             f"{','.join(map(str, self.beta))}")
        return self.beta[0]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["beta"] = list(self.beta)
        d["gamma3"] = list(self.gamma3)
        return d


def _plain_type(hint):
    """``X | None`` -> X; any other annotation stays as it is."""
    args = [t for t in typing.get_args(hint) if t is not type(None)]
    return args[0] if args else hint


_FIELD_TYPES = {name: _plain_type(hint) for name, hint
                in typing.get_type_hints(ExperimentConfig).items()}


def _coerce(key: str, raw: str):
    """Parse a config value after its field's annotation in ExperimentConfig:
    bool is a truthy word, tuple comma-separated floats, int and float that
    type, and anything else (unknown keys too) stays as given."""
    kind = _FIELD_TYPES.get(key.replace("-", "_"))
    if kind is bool:
        return str(raw).lower() in ("1", "true", "yes", "on")
    if kind is tuple:
        return tuple(float(t) for t in str(raw).split(",") if t != "")
    if kind in (int, float):
        return kind(raw)
    return raw


def load_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment; keys match CLI flags."""
    out = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, raw = (t.strip() for t in line.split("=", 1))
            out[key.replace("-", "_")] = _coerce(key, raw)
    return out


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    mapping = {k.replace("-", "_"): v for k, v in mapping.items()}
    allowed = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**mapping)


@dataclass
class RunReport:
    """Config snapshot plus result rows; one row per run."""

    command: str
    config: dict
    columns: list
    rows: list = field(default_factory=list)
    environment: dict = field(default_factory=lambda: {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    })

    @property
    def monitor_failures(self) -> int:
        return sum(1 for r in self.rows if str(r.get("monitors", "")) != "pass")

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(c, row.get(c)) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "config": self.config,
            "environment": self.environment,
            "columns": self.columns,
            "rows": self.rows,
        }, indent=2, sort_keys=True) + "\n"

    def write(self, out_base: str) -> tuple[str, str]:
        csv_path, json_path = out_base + ".csv", out_base + ".json"
        with open(csv_path, "w") as fh:
            fh.write(self.to_csv())
        with open(json_path, "w") as fh:
            fh.write(self.to_json())
        return csv_path, json_path


def _format_cell(col: str, value) -> str:
    if value is None:
        return ""
    if col.endswith("it") or col in ("n", "m", "omega", "seed", "p_max") \
            or col.endswith("p_max"):
        return str(int(value))
    if col.endswith("time_s"):
        return f"{value:.1f}"
    if col == "alpha":
        return f"{value:.17g}"
    if col.endswith("p_mean"):
        return f"{value:.2f}"
    if col.endswith("f") or col == "f":
        return f"{value:.6g}"
    if col in ("beta", "gamma3"):
        return f"{value:g}"
    return str(value)


def _run_monitors(result: SolveResult) -> str:
    bad = (monitor_descent(result).violations
           + monitor_complexity(result).violations)
    return "pass" if bad == 0 else f"fail({bad})"


def run_variant(inst: SpectrahedronLSQ, algo: str, proj: str, beta: float,
                gamma3_bar: float, schedule: SummableSchedule, tol: float,
                max_iter: int, phi: str | None = None) -> tuple[SolveResult, float]:
    """Solve one (algorithm, projection) cell; returns (result, wall seconds).

    The solve starts from ``structured_start(beta, n)``, which it evaluates
    and first projects without n x n arrays (an exact projection still
    decomposes the dense first step)."""
    obj = inst.objective()
    feasible = inst.feasible_set()
    if proj == "exact":
        feasible = ExactProjectionAdapter(feasible)
    x0 = structured_start(beta, inst.n)
    if algo == "constant":
        cfg = ConstantStepConfig(
            alpha=constant_alpha_from_gamma(inst.lipschitz_L, gamma3_bar),
            schedule=schedule, gamma3_bar=gamma3_bar, gamma2_cap=GAMMA2_CAP,
            phi=ToleranceFn.canonical(phi or "phi1"),
            max_iter=max_iter, stop_tol=tol)
        t0 = time.perf_counter()
        result = solve_constant(obj, feasible, x0, cfg)
    else:
        cfg = ArmijoConfig(gamma3_bar=gamma3_bar, max_iter=max_iter,
                           phi=ToleranceFn.canonical(phi or "phi4"),
                           stop_tol=tol)
        t0 = time.perf_counter()
        result = solve_armijo(obj, feasible, x0, cfg)
    return result, time.perf_counter() - t0


def cmd_sweep_gamma3(config: ExperimentConfig) -> RunReport:
    """One row per gamma3 cap, all on the same instance and start."""
    inst = config.make_instance()
    schedule = config.make_schedule()
    beta = config.one_beta("sweep-gamma3")
    report = RunReport(
        command="sweep-gamma3", config=config.to_dict(),
        columns=["gamma3", "f", "it", "time_s", "alpha", "p_mean", "p_max",
                 "monitors"])
    for g3 in config.gamma3:
        row = {"gamma3": g3,
               "alpha": constant_alpha_from_gamma(inst.lipschitz_L, g3)}
        try:
            result, secs = run_variant(inst, "constant", config.proj, beta,
                                       g3, schedule, config.tol,
                                       config.max_iter, phi=config.phi)
            row.update(f=result.f_final, it=result.iterations, time_s=secs,
                       p_mean=result.p_mean, p_max=result.p_max,
                       monitors=_run_monitors(result))
        except SolverError as exc:  # record the failure, keep sweeping
            row.update(monitors=f"error:{type(exc).__name__}")
        report.rows.append(row)
    return report


_VARIANTS = (("con", "constant", "inexact"), ("con", "constant", "exact"),
             ("arm", "armijo", "inexact"), ("arm", "armijo", "exact"))


def cmd_compare(config: ExperimentConfig) -> RunReport:
    """2x2 grid {constant, armijo} x {inexact, exact} per starting point."""
    inst = config.make_instance()
    schedule = config.make_schedule()
    columns = ["n", "m", "omega", "beta"]
    for tag, _, proj in _VARIANTS:
        columns += [f"{tag}_{proj}_f", f"{tag}_{proj}_it", f"{tag}_{proj}_time_s"]
    for tag in ("con", "arm"):
        columns += [f"{tag}_inexact_p_mean", f"{tag}_inexact_p_max"]
    columns.append("monitors")
    report = RunReport(command="compare", config=config.to_dict(),
                       columns=columns)
    for beta in config.beta:
        row = {"n": config.n, "m": config.m, "omega": config.omega,
               "beta": beta}
        verdicts = []
        for tag, algo, proj in _VARIANTS:
            gamma3_bar = 0.0 if algo == "constant" else ARMIJO_GAMMA3
            try:
                result, secs = run_variant(inst, algo, proj, beta, gamma3_bar,
                                           schedule, config.tol,
                                           config.max_iter, phi=config.phi)
            except SolverError as exc:
                verdicts.append(f"error:{type(exc).__name__}")
                continue
            row[f"{tag}_{proj}_f"] = result.f_final
            row[f"{tag}_{proj}_it"] = result.iterations
            row[f"{tag}_{proj}_time_s"] = secs
            if proj == "inexact":
                row[f"{tag}_inexact_p_mean"] = result.p_mean
                row[f"{tag}_inexact_p_max"] = result.p_max
            verdicts.append(_run_monitors(result))
        bad = [v for v in verdicts if v != "pass"]
        row["monitors"] = "pass" if not bad else ";".join(bad)
        report.rows.append(row)
    return report


def cmd_verify(config: ExperimentConfig) -> dict:
    """Machine-readable pass/fail per inequality family, with worst slacks."""
    checks = {}
    inst = config.make_instance()
    schedule = config.make_schedule()
    beta = config.one_beta("verify")

    for algo, gamma3_bar in (("constant", 0.0), ("armijo", ARMIJO_GAMMA3)):
        result, _ = run_variant(inst, algo, "inexact", beta, gamma3_bar,
                                schedule, config.tol, config.max_iter,
                                phi=config.phi)
        for chk in (monitor_descent(result).checks
                    + monitor_complexity(result).checks):
            checks[f"{algo}.{chk.name}"] = chk.to_dict()
    checks["boxqp.contraction"] = _boxqp_contraction_check(config.seed)
    checks["projection.contract"] = _projection_contract_check(config.seed)
    return checks


def _boxqp_contraction_check(seed: int) -> dict:
    """Exact-projection strongly convex run: squared distances to the known
    minimizer must contract by 1 - mu/L each iteration."""
    qp = make_boxqp(40, 0.5, 5.0, seed=seed)
    cfg = ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                             schedule=SummableSchedule.zero_budget(1.0),
                             gamma2_cap=0.0, max_iter=2000, stop_tol=1e-12)
    res = solve_constant(qp.objective(), qp.feasible_set(), np.zeros(40), cfg,
                         track_distance_to=qp.x_star)
    rep = monitor_complexity(res, f_star=qp.objective().opt_value_hint,
                             x_star=qp.x_star, mu=qp.mu, convex=True)
    chk = {c.name: c for c in rep.checks}["contraction"]
    return chk.to_dict()


def _projection_contract_check(seed: int, cases: int = 60) -> dict:
    """Random spectrahedron projections must certify and obey the distance
    and inner-product bounds of the projection contract."""
    rng = np.random.default_rng(seed)
    phi = ToleranceFn.canonical("phi1")
    worst = np.inf
    bad = 0
    for _ in range(cases):
        n = int(rng.integers(5, 25))
        v = symmetrize(rng.standard_normal((n, n)))
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        u = (basis * rng.dirichlet(np.ones(n))) @ basis.T
        g = ForcingParams(float(rng.uniform(0, 1.5)),
                          float(rng.uniform(0, 0.49)),
                          float(rng.uniform(0, 0.49)))
        res = inexact_project_spectrahedron(v, u, g, phi, p_start=1)
        ok, gap = certify_inexact_projection(Spectrahedron(n), u, v, res.point,
                                             g, phi)
        scale = max(1.0, frobenius_norm(v) ** 2)
        worst = min(worst, -gap / scale)
        if not ok:
            bad += 1
    return {"name": "projection-contract", "passed": bad == 0,
            "checked": cases, "worst_slack": worst, "violations": bad,
            "note": ""}
