"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its stated runtime budget.

Criteria marked "desk scale" run reduced problem sizes with fixed seeds;
reference trends (iteration-count orderings, four-way objective agreement,
inexact-vs-exact wall-time ordering) are asserted rather than absolute
figures, which depend on hardware and on instance randomness.
"""

import itertools
import time

import numpy as np
import pytest

from ipgm.harness import ExperimentConfig, cmd_compare, cmd_sweep_gamma3
from ipgm.linalg import frobenius_inner, frobenius_norm, symmetrize
from ipgm.problems import generate_instance, make_boxqp, starting_point
from ipgm.schedules import ForcingParams, SummableSchedule, ToleranceFn
from ipgm.sets import (
    Spectrahedron,
    certify_inexact_projection,
    exact_project_spectrahedron,
    inexact_project_spectrahedron,
    project_simplex,
)
from ipgm.solver import (
    ArmijoConfig,
    ConstantStepConfig,
    constant_alpha_from_gamma,
    monitor_complexity,
    monitor_descent,
    solve_armijo,
    solve_constant,
)

ACC_SEED = 20240807
PHI1 = ToleranceFn.canonical("phi1")


def _announce(num, detail):
    print(f"[PASS] criterion {num}: {detail}")


def _random_feasible(rng, n):
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (basis * rng.dirichlet(np.ones(n))) @ basis.T


@pytest.fixture(scope="module")
def desk_instance():
    return generate_instance(200, 400, 10, seed=ACC_SEED)


@pytest.fixture(scope="module")
def desk_constant_run(desk_instance):
    inst = desk_instance
    cfg = ConstantStepConfig(
        alpha=constant_alpha_from_gamma(inst.lipschitz_L, 0.0),
        schedule=SummableSchedule.logarithmic(100.0),
        gamma3_bar=0.0, max_iter=20000, stop_tol=1e-4)
    return solve_constant(inst.objective(), inst.feasible_set(),
                          starting_point(0.0, inst.n), cfg)


@pytest.fixture(scope="module")
def sweep_report_first():
    cfg = ExperimentConfig(n=200, m=400, omega=10, seed=ACC_SEED,
                           beta=(0.0,), gamma3=(0.0, 0.1, 0.2, 0.3, 0.4))
    return cmd_sweep_gamma3(cfg)


def test_c01_projection_contract_and_distance_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = 500
    sampled = 100
    for _ in range(cases):
        n = int(rng.integers(5, 31))
        v = symmetrize(rng.standard_normal((n, n))) * float(rng.uniform(0.2, 3.0))
        u = _random_feasible(rng, n)
        g = ForcingParams(float(rng.uniform(0.0, 2.0)),
                          float(rng.uniform(0.0, 0.4999)),
                          float(rng.uniform(0.0, 0.4999)))
        res = inexact_project_spectrahedron(v, u, g, PHI1, p_start=1)
        w = res.point
        ok, gap = certify_inexact_projection(Spectrahedron(n), u, v, w, g,
                                             PHI1, rel_slack=1e-10)
        assert ok, f"certification failed with gap {gap}"
        sq_vu = frobenius_norm(v - u) ** 2
        sq_wv = frobenius_norm(w - v) ** 2
        sq_wu = frobenius_norm(w - u) ** 2
        coef_a1 = (2 * g.gamma1 + 2 * g.gamma3) / (1 - 2 * g.gamma3)
        coef_a2 = (1 - 2 * g.gamma2) / (1 - 2 * g.gamma3)
        coef_b1 = (g.gamma1 + g.gamma2) / (1 - 2 * g.gamma2)
        coef_b2 = (g.gamma3 - g.gamma2) / (1 - 2 * g.gamma2)
        rhs_b = coef_b1 * sq_vu + coef_b2 * sq_wu
        for _ in range(sampled):
            x = _random_feasible(rng, n)
            lhs_a = frobenius_norm(w - x) ** 2
            rhs_a = (frobenius_norm(v - x) ** 2 + coef_a1 * sq_vu
                     - coef_a2 * sq_wv)
            scale_a = max(1.0, abs(lhs_a), abs(rhs_a))
            assert lhs_a - rhs_a <= 1e-10 * scale_a
            lhs_b = frobenius_inner(v - w, x - w)
            scale_b = max(1.0, abs(lhs_b), abs(rhs_b))
            assert lhs_b - rhs_b <= 1e-10 * scale_b
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _announce(1, f"{cases} projections certified, distance/inner-product "
                 f"bounds held at 100 points each ({elapsed:.1f}s)")


def test_c02_exact_collapse_at_zero_tolerance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        v = symmetrize(rng.standard_normal((n, n))) * float(rng.uniform(0.2, 4.0))
        u = _random_feasible(rng, n)
        res = inexact_project_spectrahedron(v, u, ForcingParams.zero(), PHI1,
                                            p_start=1)
        diff = frobenius_norm(res.point - exact_project_spectrahedron(v))
        worst = max(worst, diff)
        assert diff < 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    _announce(2, f"200 zero-tolerance projections within 1e-7 of exact "
                 f"(worst {worst:.2e}, {elapsed:.1f}s)")


def _simplex_oracle(d):
    """Support-set enumeration with full KKT verification."""
    d = np.asarray(d, dtype=float)
    p = d.size
    order = np.argsort(d)[::-1]
    best, best_dist = None, np.inf
    for k in range(1, p + 1):
        sel = order[:k]
        theta = (np.sum(d[sel]) - 1.0) / k
        x = np.zeros(p)
        x[sel] = d[sel] - theta
        if np.min(x[sel]) < -1e-13:
            continue
        if k < p and np.max(d[order[k:]]) > theta + 1e-13:
            continue
        dist = np.linalg.norm(x - d)
        if dist < best_dist:
            best, best_dist = x, dist
    return best


def test_c03_simplex_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        p = int(rng.integers(1, 13))
        d = rng.uniform(-3.0, 3.0, size=p) * float(rng.uniform(0.05, 20.0))
        x = project_simplex(d)
        ref = _simplex_oracle(d)
        assert np.max(np.abs(x - ref)) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    _announce(3, f"10000 simplex projections matched the KKT enumeration "
                 f"oracle within 1e-10 ({elapsed:.1f}s)")


def test_c04_descent_and_lyapunov_monotonicity(desk_constant_run):
    t0 = time.perf_counter()
    report = monitor_descent(desk_constant_run, rtol=1e-8)
    for chk in report.checks:
        assert chk.passed, f"{chk.name}: {chk.violations} violations"
        assert chk.checked == len(desk_constant_run.records)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    worst = min(c.worst_slack for c in report.checks)
    _announce(4, f"descent and Lyapunov inequalities held over "
                 f"{len(desk_constant_run.records)} iterations "
                 f"(worst slack {worst:.2e})")


def test_c05_complexity_bounds(desk_instance, desk_constant_run):
    t0 = time.perf_counter()
    comp = monitor_complexity(desk_constant_run)
    disp = {c.name: c for c in comp.checks}["displacement-bound"]
    assert disp.passed and disp.checked == len(desk_constant_run.records)

    inst = desk_instance
    lip = inst.lipschitz_L
    runs = []
    for rule, cfg in (("spectral", ArmijoConfig()),
                      ("fixed", ArmijoConfig(alpha_min=1.0 / lip,
                                             alpha_max=1.0 / lip))):
        res = solve_armijo(inst.objective(), inst.feasible_set(),
                           starting_point(0.0, inst.n), cfg)
        tau_min = cfg.tau_min(lip)
        for r in res.records:
            assert r.tau >= tau_min - 1e-12, (
                f"tau {r.tau} below floor {tau_min} at k={r.k}")
        runs.append((rule, tau_min, res.iterations))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    _announce(5, f"displacement bound held on every prefix; tau floors "
                 f"{[(s, round(t, 5)) for s, t, _ in runs]} respected "
                 f"({elapsed:.1f}s)")


def test_c06_strong_convexity_contraction():
    t0 = time.perf_counter()
    qp = make_boxqp(50, 0.5, 5.0, seed=ACC_SEED)  # mu/L = 0.1
    factor = 1.0 - qp.mu / qp.lipschitz_L
    cfg = ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                             schedule=SummableSchedule.zero_budget(1.0),
                             gamma2_cap=0.0, max_iter=5000, stop_tol=1e-14)
    res = solve_constant(qp.objective(), qp.feasible_set(), np.zeros(50), cfg,
                         track_distance_to=qp.x_star)
    dists = [r.dist_to_ref for r in res.records]
    dists.append(frobenius_norm(res.x_final - qp.x_star))
    checked = 0
    for i in range(len(dists) - 1):
        if dists[i] < 1e-10:
            break
        ratio = dists[i + 1] ** 2 / dists[i] ** 2
        assert ratio <= factor + 1e-8, f"ratio {ratio} at step {i}"
        checked += 1
    assert checked > 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.1f}s"
    _announce(6, f"squared-distance contraction factor stayed below "
                 f"{factor + 1e-8:.3f} over {checked} steps ({elapsed:.1f}s)")


def test_c07_gamma3_sweep_trends(desk_instance, sweep_report_first):
    t0 = time.perf_counter()
    report = sweep_report_first
    rows = report.rows
    assert [row["gamma3"] for row in rows] == [0.0, 0.1, 0.2, 0.3, 0.4]
    fs = [row["f"] for row in rows]
    spread = (max(fs) - min(fs)) / max(abs(max(fs)), 1e-12)
    assert spread < 1e-3, f"objective spread {spread}"
    its = [row["it"] for row in rows]
    assert all(its[i] <= its[i + 1] for i in range(len(its) - 1)), its
    ratio = its[-1] / its[0]
    assert ratio >= 2.0, f"iteration ratio {ratio}"
    for row in rows:
        expected = constant_alpha_from_gamma(desk_instance.lipschitz_L,
                                             row["gamma3"])
        assert abs(row["alpha"] - expected) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(7, f"f spread {spread:.1e}, iterations {its} "
                 f"(ratio {ratio:.2f}), alpha matches the step rule")


def test_c08_compare_grid_trends():
    t0 = time.perf_counter()
    time_sums = {("con", 200): [0.0, 0.0], ("arm", 200): [0.0, 0.0],
                 ("con", 400): [0.0, 0.0], ("arm", 400): [0.0, 0.0]}
    p_means = []
    for n, omega in itertools.product((200, 400), (10, 20)):
        cfg = ExperimentConfig(n=n, m=2 * n, omega=omega, seed=ACC_SEED,
                               beta=(0.0, 0.5, 0.99))
        report = cmd_compare(cfg)
        for row in report.rows:
            fs = [row[f"{t}_{p}_f"] for t in ("con", "arm")
                  for p in ("inexact", "exact")]
            spread = (max(fs) - min(fs)) / max(abs(max(fs)), 1e-12)
            assert spread < 1e-3, f"n={n} w={omega} beta={row['beta']}: {fs}"
            for proj in ("inexact", "exact"):
                assert row[f"arm_{proj}_it"] <= 20
                assert row[f"con_{proj}_it"] >= 50
            for tag in ("con", "arm"):
                time_sums[(tag, n)][0] += row[f"{tag}_inexact_time_s"]
                time_sums[(tag, n)][1] += row[f"{tag}_exact_time_s"]
                p_means.append(row[f"{tag}_inexact_p_mean"])
    for tag in ("con", "arm"):
        inex, exact = time_sums[(tag, 400)]
        assert inex < exact, (
            f"{tag}: inexact {inex:.1f}s not below exact {exact:.1f}s at n=400")
    assert max(p_means) <= 10.0, f"mean rank too high: {max(p_means)}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"criterion 8 took {elapsed:.1f}s"
    speedups = {t: round(time_sums[(t, 400)][1] / time_sums[(t, 400)][0], 2)
                for t in ("con", "arm")}
    _announce(8, f"four-way agreement, iteration split (Armijo <= 20, "
                 f"constant >= 50), n=400 inexact speedups {speedups}, "
                 f"max mean rank {max(p_means):.1f} ({elapsed:.1f}s)")


def test_c09_stationary_fixed_point():
    t0 = time.perf_counter()
    qp = make_boxqp(20, 0.5, 5.0, seed=ACC_SEED)
    cfg_c = ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                               schedule=SummableSchedule.logarithmic(100.0))
    res_c = solve_constant(qp.objective(), qp.feasible_set(), qp.x_star, cfg_c)
    assert res_c.iterations == 0
    assert res_c.stop_reason in ("stationary-gradient", "w-equals-x")
    res_a = solve_armijo(qp.objective(), qp.feasible_set(), qp.x_star,
                         ArmijoConfig())
    assert res_a.iterations == 0
    assert res_a.stop_reason in ("stationary-gradient", "w-equals-x")
    # boundary minimizer: gradient nonzero, the projection fixed point stops
    from ipgm.problems import BoxQP
    qp1 = BoxQP(q_mat=np.array([[2.0]]), b_vec=np.array([4.0]),
                lower=np.zeros(1), upper=np.ones(1), mu=2.0, lipschitz_L=2.0,
                x_star=np.array([1.0]))
    res_b = solve_armijo(qp1.objective(), qp1.feasible_set(), qp1.x_star,
                         ArmijoConfig())
    assert res_b.iterations == 0
    assert res_b.stop_reason == "w-equals-x"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 9 took {elapsed:.2f}s"
    _announce(9, f"both solvers stopped at iteration 0 with reasons "
                 f"{res_c.stop_reason}/{res_a.stop_reason}/{res_b.stop_reason}")


def test_c10_sweep_determinism(sweep_report_first):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(n=200, m=400, omega=10, seed=ACC_SEED,
                           beta=(0.0,), gamma3=(0.0, 0.1, 0.2, 0.3, 0.4))
    again = cmd_sweep_gamma3(cfg)
    first_lines = sweep_report_first.to_csv().splitlines()
    again_lines = again.to_csv().splitlines()
    assert len(first_lines) == len(again_lines)
    t_ix = first_lines[0].split(",").index("time_s")
    for a, b in zip(first_lines, again_lines):
        a_tok = [t for i, t in enumerate(a.split(",")) if i != t_ix]
        b_tok = [t for i, t in enumerate(b.split(",")) if i != t_ix]
        assert a_tok == b_tok, f"{a_tok} != {b_tok}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(10, f"repeated sweep bit-identical outside the time column "
                  f"({elapsed:.1f}s)")
