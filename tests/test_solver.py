import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

import ipgm.solver
from ipgm.linalg import (
    EigenSolverError,
    FactoredGradient,
    IncrementalEigen,
    LowRank,
    frobenius_inner,
)
from ipgm.problems import (
    BoxQP,
    generate_instance,
    make_boxqp,
    starting_point,
)
from ipgm.schedules import SummableSchedule
from ipgm.sets import Box, ExactProjectionAdapter
from ipgm.solver import (
    ArmijoConfig,
    CheckResult,
    ConstantStepConfig,
    InfeasibleStartError,
    IterationRecord,
    LineSearchError,
    ObjectiveOracle,
    SolverError,
    armijo_search,
    constant_alpha_from_gamma,
    monitor_complexity,
    monitor_descent,
    solve_armijo,
    solve_constant,
    spectral_step,
)


def quad_1d():
    """f(x) = (x - 2)^2 on the box [0, 1]; constrained minimum at x = 1."""
    obj = ObjectiveOracle(
        lambda x: (float((x[0] - 2.0) ** 2), np.array([2.0 * (x[0] - 2.0)])),
        lipschitz_L=2.0)
    return obj, Box.make(np.zeros(1), np.ones(1))


def zero_schedule():
    return SummableSchedule.zero_budget(1.0)


class TestConstantAlpha:
    def test_formula(self):
        assert constant_alpha_from_gamma(2.0, 0.0) == pytest.approx(0.49995)

    def test_gamma_scaling(self):
        a0 = constant_alpha_from_gamma(5.0, 0.0)
        a4 = constant_alpha_from_gamma(5.0, 0.4)
        assert a4 == pytest.approx(a0 * 0.2 / 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            constant_alpha_from_gamma(0.0, 0.0)
        with pytest.raises(ValueError):
            constant_alpha_from_gamma(1.0, 0.5)


class TestSpectralStep:
    def test_identity_ratio(self):
        s = np.array([1.0, -2.0])
        assert spectral_step(s, s, 1e-10, 1e10) == pytest.approx(1.0)

    def test_negative_curvature_branch(self):
        assert spectral_step(np.array([1.0]), np.array([-2.0]), 1e-10, 7.5) == 7.5

    def test_quadratic_curvature(self):
        # for f = 0.5 lam x^2, Y = lam S exactly
        lam = 3.7
        s = np.array([0.2, -0.4])
        assert spectral_step(s, lam * s, 1e-10, 1e10) == pytest.approx(1.0 / lam)

    def test_clamping(self):
        s = np.array([1.0])
        assert spectral_step(s, 0.1 * s, 1e-10, 2.0) == 2.0
        assert spectral_step(s, 100.0 * s, 0.5, 2.0) == 0.5


class TestArmijoSearch:
    def test_linear_accepts_full_step(self):
        obj = ObjectiveOracle(lambda x: (float(x[0]), np.ones(1)))
        tau, j, x_trial, f_trial, g_trial = armijo_search(
            obj, np.array([1.0]), np.array([0.0]), sigma=0.9, tau=0.5,
            max_backtracks=30, f_x=1.0, dir_deriv=-1.0)
        assert (tau, j, x_trial.tolist(), f_trial) == (1.0, 0, [0.0], 0.0)
        assert g_trial.tolist() == [1.0]

    def test_hand_traced_backtracking(self):
        # f(x) = x^2 from x = 1 along direction -3 with sigma = 0.9
        obj = ObjectiveOracle(lambda x: (float(x[0] ** 2), 2.0 * x))
        tau, j, x_trial, f_trial, g_trial = armijo_search(
            obj, np.array([1.0]), np.array([-2.0]), sigma=0.9, tau=0.5,
            max_backtracks=30, f_x=1.0, dir_deriv=-6.0)
        assert j == 4
        assert tau == pytest.approx(0.0625)
        assert x_trial.tolist() == [1.0 - 3.0 * tau]
        assert f_trial == (1.0 - 3.0 * tau) ** 2
        # the gradient handed on is the accepted point's
        assert g_trial.tolist() == [2.0 * (1.0 - 3.0 * tau)]

    def test_exhaustion_raises(self):
        obj = ObjectiveOracle(lambda x: (float(x[0] ** 2), 2.0 * x))
        # ascent direction: sufficient decrease never holds
        with pytest.raises(LineSearchError):
            armijo_search(obj, np.array([1.0]), np.array([5.0]),
                          sigma=0.5, tau=0.5, max_backtracks=10,
                          f_x=1.0, dir_deriv=8.0)

    @staticmethod
    def _counting(values):
        """Objective whose values are ``values`` in turn, with its call list;
        the gradient is -1, so the direction +1 has derivative -1."""
        calls = []

        def value_and_gradient(x):
            calls.append(None)
            return values[len(calls) - 1], -np.ones(1)

        return ObjectiveOracle(value_and_gradient), calls

    def test_nan_trial_raises_at_once(self):
        obj, calls = self._counting([np.inf, np.nan, -1.0])
        with pytest.raises(LineSearchError, match="nan at trial step 5.000e-01"):
            armijo_search(obj, np.zeros(1), np.ones(1), sigma=0.5, tau=0.5,
                          max_backtracks=60, f_x=0.0, dir_deriv=-1.0)
        assert len(calls) == 2

    def test_nan_base_value_raises(self):
        obj, calls = self._counting([-1.0])
        with pytest.raises(LineSearchError, match="base point is nan"):
            armijo_search(obj, np.zeros(1), np.ones(1), sigma=0.5, tau=0.5,
                          max_backtracks=60, f_x=np.nan, dir_deriv=-1.0)
        assert len(calls) == 0

    def test_inf_trial_backtracks(self):
        obj, calls = self._counting([np.inf, np.inf, -1.0])
        tau, j, x_trial, f_trial, _ = armijo_search(
            obj, np.zeros(1), np.ones(1), sigma=0.5, tau=0.5,
            max_backtracks=60, f_x=0.0, dir_deriv=-1.0)
        assert (tau, j, x_trial.tolist(), f_trial) == (0.25, 2, [0.25], -1.0)
        assert len(calls) == 3


class TestArmijoSearchPoint:
    """The search returns the very point its last oracle call evaluated."""

    @staticmethod
    def _recording(obj):
        seen = []

        def value_and_gradient(x):
            seen.append(x)
            return obj.value_and_gradient(x)

        return replace(obj, value_and_gradient=value_and_gradient), seen

    def test_dense_backtracked(self):
        obj, seen = self._recording(
            ObjectiveOracle(lambda x: (float(x[0] ** 2), 2.0 * x)))
        tau, j, x_trial, f_trial, _ = armijo_search(
            obj, np.array([1.0]), np.array([-2.0]), sigma=0.9, tau=0.5,
            max_backtracks=30, f_x=1.0, dir_deriv=-6.0)
        assert j == 4 and len(seen) == 5
        assert x_trial is seen[-1]
        assert f_trial == float(x_trial[0] ** 2)

    def test_factored_backtracked(self):
        inst = generate_instance(40, 80, 5, seed=3)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((40, 2))
        x = LowRank(y / np.linalg.norm(y))
        _, g = inst.value_and_gradient(x)
        # a long step: the full move to w overshoots and is rejected
        w = inst.feasible_set().exact_project(
            g.step(100.0 / inst.lipschitz_L))
        assert isinstance(w, LowRank) and 4 * (x.rank + w.rank) < 40
        obj, seen = self._recording(inst.objective())
        f_x = inst.value_and_gradient(x)[0]
        tau, j, x_trial, f_trial, g_trial = armijo_search(
            obj, x, w, sigma=0.9, tau=0.5, max_backtracks=60, f_x=f_x,
            dir_deriv=frobenius_inner(g.dense(), w.dense() - x.dense()))
        assert j >= 1 and len(seen) == j + 1
        assert isinstance(x_trial, LowRank) and x_trial is seen[-1]
        assert g_trial.point is x_trial
        ref = x.dense() + tau * (w.dense() - x.dense())
        assert np.max(np.abs(x_trial.dense() - ref)) <= 1e-15
        assert f_trial == pytest.approx(inst.value(ref), rel=1e-12)

    def test_full_step_on_a_box_is_the_projection(self):
        # x + (w - x) is 0.9000000000000001 here, outside the box
        box = Box.make(np.zeros(1), np.array([0.9]))
        x = np.array([0.3])
        assert (x + (np.array([0.9]) - x))[0] > 0.9
        w = box.exact_project(x + 1.0)
        obj, seen = self._recording(
            ObjectiveOracle(lambda x: (-float(x[0]), -np.ones(1))))
        tau, j, x_trial, _, _ = armijo_search(
            obj, x, w, sigma=0.5, tau=0.5, max_backtracks=10,
            f_x=-0.3, dir_deriv=-float(w[0] - x[0]))
        assert (tau, j) == (1.0, 0)
        assert x_trial is w and seen == [w]
        assert box.contains(x_trial, feas_tol=0.0)


class TestSolveConstant1D:
    def test_converges_to_boundary_minimum(self):
        obj, box = quad_1d()
        cfg = ConstantStepConfig(alpha=0.4, schedule=zero_schedule(),
                                 stop_tol=1e-8, max_iter=2000)
        res = solve_constant(obj, box, np.zeros(1), cfg)
        assert res.stop_reason in ("converged", "w-equals-x")
        assert res.x_final[0] == pytest.approx(1.0, abs=1e-6)
        assert res.f_final == pytest.approx(1.0, abs=1e-6)

    def test_stationary_start_zero_budget(self):
        obj, box = quad_1d()
        cfg = ConstantStepConfig(alpha=0.4, schedule=zero_schedule())
        res = solve_constant(obj, box, np.ones(1), cfg)
        assert res.stop_reason == "w-equals-x"
        assert res.iterations == 0

    def test_interior_stationary_gradient_stop(self):
        qp = make_boxqp(5, 0.5, 5.0, seed=3)
        cfg = ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                                 schedule=SummableSchedule.logarithmic(100.0))
        res = solve_constant(qp.objective(), qp.feasible_set(), qp.x_star, cfg)
        assert res.stop_reason == "stationary-gradient"
        assert res.iterations == 0

    def test_infeasible_start_rejected(self):
        obj, box = quad_1d()
        cfg = ConstantStepConfig(alpha=0.4, schedule=zero_schedule())
        with pytest.raises(InfeasibleStartError):
            solve_constant(obj, box, np.array([2.0]), cfg)

    def test_alpha_validation_against_lipschitz(self):
        obj, box = quad_1d()
        cfg = ConstantStepConfig(alpha=0.8, schedule=zero_schedule())
        with pytest.raises(ValueError):
            solve_constant(obj, box, np.zeros(1), cfg)

    def test_feasible_iterates_and_descent(self):
        qp = make_boxqp(6, 0.3, 3.0, seed=9)
        box = qp.feasible_set()
        cfg = ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                                 schedule=zero_schedule(), max_iter=500)
        x0 = np.zeros(6)
        res = solve_constant(qp.objective(), box, x0, cfg)
        assert all(box.contains(r, 1e-9) for r in [res.x_final])
        fs = [r.f_x for r in res.records] + [res.f_final]
        assert all(fs[i + 1] <= fs[i] + 1e-12 for i in range(len(fs) - 1))


class TestStartAtOrigin:
    def test_box_qp_from_origin_warns_nothing(self):
        # the first move leaves x = 0: an infinite relative change, recorded
        # as such rather than through an overflowing division
        import warnings

        qp = make_boxqp(40, 0.5, 5.0, seed=8)
        x0 = np.zeros(40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [
                solve_constant(qp.objective(), qp.feasible_set(), x0,
                               ConstantStepConfig(
                                   alpha=1.0 / qp.lipschitz_L,
                                   schedule=SummableSchedule.logarithmic(100.0))),
                solve_armijo(qp.objective(), qp.feasible_set(), x0,
                             ArmijoConfig()),
            ]
        for res in results:
            assert res.records[0].rel_change == np.inf
            assert np.isfinite(res.records[1].rel_change)
            assert res.stop_reason == "converged"


class TestSolveArmijo:
    def test_1d_box(self):
        obj, box = quad_1d()
        cfg = ArmijoConfig(sigma=0.5, alpha_min=0.4, alpha_max=0.4,
                           gamma3_bar=0.0, stop_tol=1e-10, max_iter=200)
        res = solve_armijo(obj, box, np.zeros(1), cfg)
        assert res.x_final[0] == pytest.approx(1.0, abs=1e-8)
        # w0 = min(1, alpha*4) = 1; full step accepted on the quadratic
        assert res.records[0].tau == 1.0

    def test_stationary_start_stops_iteration_zero(self):
        obj, box = quad_1d()
        res = solve_armijo(obj, box, np.ones(1), ArmijoConfig())
        assert res.stop_reason == "w-equals-x"
        assert res.iterations == 0

    def test_interior_stationary_gradient(self):
        qp = make_boxqp(4, 0.5, 5.0, seed=5)
        res = solve_armijo(qp.objective(), qp.feasible_set(), qp.x_star,
                           ArmijoConfig())
        assert res.stop_reason in ("stationary-gradient", "w-equals-x")
        assert res.iterations == 0

    def test_strict_descent_and_direction_sign(self):
        qp = make_boxqp(8, 0.2, 4.0, seed=11)
        cfg = ArmijoConfig(max_iter=300, stop_tol=1e-9)
        res = solve_armijo(qp.objective(), qp.feasible_set(), np.zeros(8), cfg)
        assert res.iterations > 0
        for r in res.records:
            assert r.f_next <= r.f_x
            if r.dir_norm > 1e-7:  # strict until float resolution saturates
                assert r.f_next < r.f_x
            assert r.dir_deriv < 0
            # feasible-direction slope bound
            assert r.dir_deriv <= (r.gamma3 - 1.0) / r.alpha * r.dir_norm ** 2 + 1e-10

    def test_spectral_step_used(self):
        qp = make_boxqp(8, 0.2, 4.0, seed=12)
        cfg = ArmijoConfig(max_iter=50)
        res = solve_armijo(qp.objective(), qp.feasible_set(), np.zeros(8), cfg)
        assert res.records[0].alpha == cfg.alpha_max
        if res.iterations > 1:
            assert res.records[1].alpha < cfg.alpha_max


class TestFixedStep:
    """Equal bounds alpha_min = alpha_max are the fixed step: every record
    takes it, and no spectral step or secant is formed."""

    @pytest.fixture(autouse=True)
    def no_secant(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fixed step formed a secant")

        monkeypatch.setattr(FactoredGradient, "secant", refuse)
        monkeypatch.setattr(ipgm.solver, "spectral_step", refuse)

    def test_box_qp(self):
        qp = make_boxqp(8, 0.2, 4.0, seed=12)
        a = 1.0 / qp.lipschitz_L
        res = solve_armijo(qp.objective(), qp.feasible_set(), np.zeros(8),
                           ArmijoConfig(alpha_min=a, alpha_max=a,
                                        max_iter=500))
        assert res.stop_reason == "converged" and res.iterations > 2
        assert all(r.alpha == a for r in res.records)

    def test_factored_spectrahedron(self):
        inst = generate_instance(40, 80, 5, seed=36)
        grads = []

        def value_and_gradient(x):
            f, g = inst.value_and_gradient(x)
            grads.append(g)
            return f, g

        obj = replace(inst.objective(), value_and_gradient=value_and_gradient)
        a = 1.0 / inst.lipschitz_L
        res = solve_armijo(obj, inst.feasible_set(), starting_point(0.0, 40),
                           ArmijoConfig(alpha_min=a, alpha_max=a,
                                        max_iter=2000))
        assert res.stop_reason == "converged" and res.iterations > 2
        assert all(r.alpha == a for r in res.records)
        # consecutive factored gradients, where a spectral step would take
        # the factored secant
        assert sum(isinstance(g, FactoredGradient) for g in grads) > 2


class TestRecordFields:
    CONSTANT_ONLY = ("a_k",)
    ARMIJO_ONLY = ("tau", "backtracks", "dir_norm", "dir_deriv")

    def test_each_rule_sets_only_its_own_fields(self):
        qp = make_boxqp(6, 0.5, 5.0, seed=13)
        runs = {
            self.CONSTANT_ONLY: solve_constant(
                qp.objective(), qp.feasible_set(), np.zeros(6),
                ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                                   schedule=SummableSchedule.harmonic(1.0),
                                   max_iter=20)),
            self.ARMIJO_ONLY: solve_armijo(
                qp.objective(), qp.feasible_set(), np.zeros(6),
                ArmijoConfig(max_iter=20)),
        }
        for own, res in runs.items():
            assert res.records
            other = (self.ARMIJO_ONLY if own == self.CONSTANT_ONLY
                     else self.CONSTANT_ONLY)
            for r in res.records:
                assert all(getattr(r, name) is not None for name in own)
                assert all(getattr(r, name) is None for name in other)

    def test_result_carries_config_and_lipschitz(self):
        qp = make_boxqp(6, 0.5, 5.0, seed=14)
        cfg = ArmijoConfig(max_iter=20)
        res = solve_armijo(qp.objective(), qp.feasible_set(), np.zeros(6), cfg)
        assert res.config is cfg
        assert res.lipschitz_L == qp.lipschitz_L
        checks = {c.name: c for c in monitor_descent(res).checks}
        assert checks["tau-lower-bound"].checked == len(res.records) > 0
        no_lip = ObjectiveOracle(qp.value_and_gradient)
        res = solve_armijo(no_lip, qp.feasible_set(), np.zeros(6), cfg)
        assert res.config is cfg and res.lipschitz_L is None
        rep = monitor_descent(res)
        assert rep.passed
        skipped = {c.name: c for c in rep.checks}["tau-lower-bound"]
        assert skipped.checked == 0
        assert skipped.note == "no Lipschitz constant"

    def test_zero_lipschitz_constant_is_known(self):
        # f(x) = x on [0, 1] is affine, so L = 0 is its Lipschitz constant
        obj = ObjectiveOracle(lambda x: (float(x[0]), np.ones(1)),
                              lipschitz_L=0.0)
        box = Box.make(np.zeros(1), np.ones(1))
        runs = (
            solve_constant(obj, box, np.ones(1),
                           ConstantStepConfig(alpha=0.25,
                                              schedule=zero_schedule(),
                                              gamma2_cap=0.0),
                           track_distance_to=np.zeros(1)),
            solve_armijo(obj, box, np.ones(1), ArmijoConfig(),
                         track_distance_to=np.zeros(1)),
        )
        for res in runs:
            assert res.lipschitz_L == 0.0
            assert res.x_final[0] == 0.0 and res.records
            checks = (monitor_descent(res).checks + monitor_complexity(
                res, f_star=0.0, x_star=np.zeros(1), convex=True).checks)
            for c in checks:
                assert c.passed, c
                # contraction needs mu > 0, which an affine f lacks
                assert c.checked > 0 or c.name == "contraction", c
        assert [r.tau for r in runs[1].records] == [1.0]

    @pytest.mark.parametrize("proj", ["inexact", "exact"])
    def test_projection_work_is_copied_from_the_projection(self, proj):
        from ipgm.sets import Spectrahedron

        results = []

        @dataclass(frozen=True)
        class RecordingSpectrahedron(Spectrahedron):
            def inexact_project(self, v, u, gamma, phi, state=None):
                res = super().inexact_project(v, u, gamma, phi, state=state)
                results.append(res)
                return res

        inst = generate_instance(20, 40, 3, seed=91)
        cset = RecordingSpectrahedron(20)
        if proj == "exact":
            cset = ExactProjectionAdapter(cset)
        res = solve_armijo(inst.objective(), cset, starting_point(0.0, 20),
                           ArmijoConfig(max_iter=30))
        assert res.records
        work = [(r.matvecs, r.fills, r.dense_fill, r.ranks_tried,
                 r.range_dim) for r in res.records]
        if proj == "exact":
            assert not results
            assert all(w == (None,) * 5 for w in work)
        else:
            assert work == [(p.matvecs, p.fills, p.dense_fill, p.ranks_tried,
                             p.range_dim) for p in results[:len(work)]]
            assert all(fills >= 1 and isinstance(dense, bool) and tried >= 1
                       for _, fills, dense, tried, _ in work)

    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    def test_records_split_the_pass_time(self, rule):
        # each projection and each objective evaluation sleeps 5 ms, so the
        # phase timings have a floor the clock cannot miss
        nap = 0.005

        @dataclass(frozen=True)
        class SlowBox(Box):
            def inexact_project(self, *args, **kwargs):
                time.sleep(nap)
                return super().inexact_project(*args, **kwargs)

        qp = make_boxqp(6, 0.5, 5.0, seed=15)
        box = qp.feasible_set()
        fast = qp.objective()

        def value_and_gradient(x):
            time.sleep(nap)
            return fast.value_and_gradient(x)

        obj = replace(fast, value_and_gradient=value_and_gradient)
        cset = SlowBox(box.lower, box.upper)
        if rule == "constant":
            res = solve_constant(obj, cset, np.zeros(6), ConstantStepConfig(
                alpha=1.0 / qp.lipschitz_L, schedule=zero_schedule(),
                max_iter=5))
        else:
            res = solve_armijo(obj, cset, np.zeros(6),
                               ArmijoConfig(max_iter=5, sigma=0.9))
        assert res.records
        for r in res.records:
            evaluations = 1 + (r.backtracks or 0)
            assert r.t_proj >= nap and r.t_eval >= evaluations * nap
            assert r.t_proj + r.t_eval <= r.wall_time
        if rule == "armijo":
            assert any(r.backtracks for r in res.records)

    def test_algorithm_follows_config_type(self):
        qp = make_boxqp(6, 0.5, 5.0, seed=14)
        res = solve_armijo(qp.objective(), qp.feasible_set(), np.zeros(6),
                           ArmijoConfig(max_iter=5))
        assert res.algorithm == "armijo"
        const = replace(res, config=ConstantStepConfig(
            alpha=1.0 / qp.lipschitz_L, schedule=zero_schedule()))
        assert const.algorithm == "constant"
        with pytest.raises(AttributeError):
            res.algorithm = "constant"


class TestConfigValidation:
    def test_constant_invariants(self):
        with pytest.raises(ValueError):
            ConstantStepConfig(alpha=-1.0, schedule=zero_schedule())
        with pytest.raises(ValueError):
            ConstantStepConfig(alpha=0.1, schedule=zero_schedule(),
                               gamma3_bar=0.7)
        for cap in (0.5, -0.1):
            with pytest.raises(ValueError, match="gamma2_cap must lie"):
                ConstantStepConfig(alpha=0.1, schedule=zero_schedule(),
                                   gamma2_cap=cap)
        cfg = ConstantStepConfig(alpha=0.49, schedule=zero_schedule(),
                                 gamma2_cap=0.0)
        assert cfg.nu(2.0) > 0
        assert cfg.rho == pytest.approx(0.49)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_constant_rejects_a_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            ConstantStepConfig(alpha=alpha, schedule=zero_schedule())

    def test_constant_rejects_a_nan_stop_tol(self):
        # NaN compares false, so it would switch the relative-change stop off
        with pytest.raises(ValueError, match="stop_tol"):
            ConstantStepConfig(alpha=0.2, schedule=zero_schedule(),
                               stop_tol=math.nan)

    def test_armijo_rejects_an_infinite_alpha_max(self):
        with pytest.raises(ValueError, match="alpha_max"):
            ArmijoConfig(alpha_max=math.inf)

    def test_armijo_rejects_a_nan_stop_tol(self):
        with pytest.raises(ValueError, match="iteration limits"):
            ArmijoConfig(stop_tol=math.nan)

    def test_alpha_at_one_over_L_allowed(self):
        # boundary step size 1/L with gamma3_bar = 0 keeps nu positive
        cfg = ConstantStepConfig(alpha=0.5, schedule=zero_schedule(),
                                 gamma2_cap=0.0)
        cfg.validate_against(2.0)

    def test_armijo_invariants(self):
        with pytest.raises(ValueError):
            ArmijoConfig(sigma=1.0)
        with pytest.raises(ValueError):
            ArmijoConfig(tau=0.0)
        with pytest.raises(ValueError):
            ArmijoConfig(alpha_min=1.0, alpha_max=0.5)
        for bar in (0.5, -0.1):
            with pytest.raises(ValueError, match="gamma3_bar must lie"):
                ArmijoConfig(gamma3_bar=bar)
        cfg = ArmijoConfig(sigma=0.5, alpha_max=2.0)
        assert cfg.xi == pytest.approx(8.0)
        assert cfg.tau_min(4.0) == pytest.approx(
            min(2 * 0.5 * 0.5 * (1 - 0.49995) / (2.0 * 4.0), 1.0))


# Armijo solves from the origin on make_boxqp(200, 0.01, 1.0, seed), as the
# boxqp-loop benchmark runs them (workload seeds 4 and 108): next to the
# minimizer f(x + t D) - f(x) cancels in rounding and the search backtracks
# below tau_min = 5e-11 (to 1.4e-17 and 2.9e-11)
@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the Armijo "
                   "decrease cancels next to the minimizer of a quadratic")
@pytest.mark.parametrize("seed", [2391573156, 463897302])
def test_boxqp_armijo_keeps_tau_above_its_lower_bound(seed):
    qp = make_boxqp(200, 0.01, 1.0, seed=seed)
    res = solve_armijo(qp.objective(), qp.feasible_set(), np.zeros(200),
                       ArmijoConfig(max_iter=20000, stop_tol=1e-8))
    assert res.stop_reason == "converged"
    checks = {c.name: c for c in monitor_descent(res).checks}
    assert checks["tau-lower-bound"].passed


class TestMonitors:
    def run_constant(self, gamma2_cap=0.0, alpha=None, schedule=None,
                     track=False):
        qp = make_boxqp(10, 0.5, 5.0, seed=21)
        cfg = ConstantStepConfig(
            alpha=alpha if alpha is not None else 1.0 / qp.lipschitz_L,
            schedule=schedule if schedule is not None else zero_schedule(),
            gamma2_cap=gamma2_cap, max_iter=400, stop_tol=1e-9)
        res = solve_constant(qp.objective(), qp.feasible_set(), np.zeros(10),
                             cfg, track_distance_to=qp.x_star if track else None)
        return qp, res

    def test_descent_monitor_passes_exact_run(self):
        qp, res = self.run_constant()
        rep = monitor_descent(res)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "descent-inequality" in names and "lyapunov-monotone" in names

    def test_descent_monitor_flags_corruption(self):
        qp, res = self.run_constant()
        res.records[2].f_next += 1.0
        rep = monitor_descent(res)
        assert not rep.passed
        assert rep.violations >= 1

    def test_complexity_displacement_bound(self):
        qp, res = self.run_constant()
        rep = monitor_complexity(res, f_star=qp.objective().opt_value_hint,
                                 x_star=qp.x_star, mu=qp.mu, convex=True)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["displacement-bound"].passed
        assert by_name["displacement-bound"].checked == len(res.records)
        assert by_name["convex-rate"].passed

    def test_monitors_read_the_config(self):
        qp, res = self.run_constant()
        f_star = qp.objective().opt_value_hint

        def displacement(result):
            rep = monitor_complexity(result, f_star=f_star)
            return {c.name: c for c in rep.checks}["displacement-bound"]

        # replay the same records under a smaller step: a larger margin nu
        # tightens the bound sqrt(eta / nu) / sqrt(k + 1)
        cfg = replace(res.config, alpha=0.5 * res.config.alpha)
        nu = cfg.nu(qp.lipschitz_L)
        eta = res.f0 - f_star + cfg.rho * cfg.schedule.b_minus1
        steps = np.minimum.accumulate([r.step_norm for r in res.records])
        bounds = [math.sqrt(max(eta, 0.0) / nu) / math.sqrt(i + 1)
                  for i in range(len(steps))]
        expected = min(b - s for b, s in zip(bounds, steps))
        replayed = displacement(replace(res, config=cfg))
        assert replayed.worst_slack == pytest.approx(expected, rel=1e-12)
        assert replayed.worst_slack < displacement(res).worst_slack

    def test_lyapunov_check_reads_b_from_the_config(self):
        # replay a logarithmic(100) run under logarithmic(1e-3): the
        # Lyapunov values f(x^k) + rho b_{k-1} take the replayed schedule's
        # b, as they take its rho
        inst = generate_instance(60, 120, 6, seed=3)
        cfg = ConstantStepConfig(
            alpha=constant_alpha_from_gamma(inst.lipschitz_L, 0.0),
            schedule=SummableSchedule.logarithmic(100.0))
        res = solve_constant(inst.objective(), inst.feasible_set(),
                             starting_point(0.0, 60), cfg)

        def lyapunov(result):
            rep = monitor_descent(result)
            return {c.name: c for c in rep.checks}["lyapunov-monotone"]

        cfg = replace(cfg, schedule=SummableSchedule.logarithmic(1e-3))
        b, rho = cfg.schedule.b_at, cfg.rho
        expected = min((r.f_x + rho * b(r.k - 1)) - (r.f_next + rho * b(r.k))
                       for r in res.records)
        replayed = lyapunov(replace(res, config=cfg))
        assert replayed.checked == len(res.records) > 0
        assert replayed.worst_slack == expected
        assert replayed.worst_slack < 1e-2 < lyapunov(res).worst_slack

    def test_contraction_check(self):
        qp, res = self.run_constant(track=True)
        rep = monitor_complexity(res, f_star=qp.objective().opt_value_hint,
                                 x_star=qp.x_star, mu=qp.mu, convex=True)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["contraction"].passed
        assert by_name["contraction"].checked > 0

    def test_contraction_skipped_without_tracking(self):
        qp, res = self.run_constant(track=False)
        rep = monitor_complexity(res, x_star=qp.x_star, mu=qp.mu, convex=True)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["contraction"].checked == 0
        assert "track" in by_name["contraction"].note

    def test_armijo_monitors(self):
        qp = make_boxqp(10, 0.5, 5.0, seed=22)
        cfg = ArmijoConfig(max_iter=300, stop_tol=1e-9)
        res = solve_armijo(qp.objective(), qp.feasible_set(), np.zeros(10), cfg)
        rep = monitor_descent(res)
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert by_name["tau-lower-bound"].checked == len(res.records)
        comp = monitor_complexity(res, f_star=qp.objective().opt_value_hint,
                                  x_star=qp.x_star, convex=True)
        assert comp.passed
        comp_names = [c.name for c in comp.checks]
        assert "armijo-displacement-bound" in comp_names
        assert "armijo-convex-rate" in comp_names

    def test_zero_iteration_run_vacuous(self):
        qp = make_boxqp(5, 0.5, 5.0, seed=23)
        cfg = ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                                 schedule=zero_schedule())
        res = solve_constant(qp.objective(), qp.feasible_set(), qp.x_star, cfg)
        assert len(res.records) == 0
        assert monitor_descent(res).passed

    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    def test_empty_run_passes_both_monitors(self, rule):
        # started at the interior minimizer, the run stops on its first
        # gradient; every check is vacuous or skipped
        qp = make_boxqp(5, 0.5, 5.0, seed=24)
        if rule == "constant":
            res = solve_constant(qp.objective(), qp.feasible_set(), qp.x_star,
                                 ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                                                    schedule=zero_schedule()))
            skipped = ("displacement-bound",)
        else:
            res = solve_armijo(qp.objective(), qp.feasible_set(), qp.x_star,
                               ArmijoConfig())
            skipped = ("armijo-displacement-bound", "armijo-convex-rate")
        assert (res.stop_reason, res.records) == ("stationary-gradient", [])
        assert monitor_descent(res).passed
        comp = monitor_complexity(res)
        assert comp.passed
        checks = {c.name: c for c in comp.checks}
        for name in skipped:
            assert (checks[name].checked, checks[name].note) == (
                0, "no Lipschitz constant or empty run")

    def test_constant_run_without_lipschitz_skips_its_bounds(self):
        qp = make_boxqp(10, 0.5, 5.0, seed=21)
        cfg = ConstantStepConfig(alpha=1.0 / qp.lipschitz_L,
                                 schedule=zero_schedule(), max_iter=400,
                                 stop_tol=1e-9)
        res = solve_constant(replace(qp.objective(), lipschitz_L=None),
                             qp.feasible_set(), np.zeros(10), cfg)
        assert res.lipschitz_L is None and len(res.records) > 5
        descent = monitor_descent(res)
        by_name = {c.name: c for c in descent.checks}
        assert (by_name["descent-inequality"].checked,
                by_name["descent-inequality"].note) == (
            0, "no Lipschitz constant")
        assert by_name["lyapunov-monotone"].checked == len(res.records)
        assert descent.passed
        comp = {c.name: c for c in monitor_complexity(res).checks}
        assert (comp["displacement-bound"].checked,
                comp["displacement-bound"].note) == (
            0, "no Lipschitz constant or empty run")

    def test_armijo_run_without_lipschitz_skips_its_bound(self):
        qp = make_boxqp(10, 0.5, 5.0, seed=22)
        res = solve_armijo(replace(qp.objective(), lipschitz_L=None),
                           qp.feasible_set(), np.zeros(10),
                           ArmijoConfig(max_iter=300, stop_tol=1e-9))
        assert res.lipschitz_L is None and len(res.records) > 5
        descent = {c.name: c for c in monitor_descent(res).checks}
        assert descent["tau-lower-bound"].checked == 0
        assert descent["armijo-descent"].checked == len(res.records)
        # both bounds need tau_min(L): each is skipped with a note
        comp = monitor_complexity(res)
        assert [(c.name, c.checked, c.note) for c in comp.checks] == [
            ("armijo-displacement-bound", 0,
             "no Lipschitz constant or empty run"),
            ("armijo-convex-rate", 0, "no Lipschitz constant or empty run")]
        assert comp.passed

    @pytest.mark.parametrize("monitor", [monitor_descent, monitor_complexity])
    def test_unknown_config_rejected(self, monitor):
        qp, res = self.run_constant()
        with pytest.raises(ValueError, match="unknown configuration object"):
            monitor(replace(res, config=object()))

    def test_records_and_reports_round_trip_through_json(self):
        qp, res = self.run_constant()
        rec = res.records[0]
        assert IterationRecord(**json.loads(json.dumps(rec.to_dict()))) == rec
        rep = monitor_complexity(res, f_star=qp.objective().opt_value_hint,
                                 x_star=qp.x_star, mu=qp.mu, convex=True)
        d = rep.to_dict()
        assert list(d) == [c.name for c in rep.checks]
        back = json.loads(json.dumps(d))
        assert [CheckResult(**v) for v in back.values()] == rep.checks


class TestGradientFiniteDifferences:
    @pytest.mark.parametrize("seed", range(3))
    def test_objectives_match_directional_fd(self, seed):
        rng = np.random.default_rng(seed)
        inst = generate_instance(12, 24, 3, seed=seed)
        qp = make_boxqp(7, 0.4, 4.0, seed=seed)
        cases = [
            (inst, lambda: _random_feasible_matrix(rng, 12)),
            (qp, lambda: rng.uniform(0.0, 1.0, size=7)),
        ]
        for prob, sample in cases:
            for _ in range(10):
                x = sample()
                g = np.asarray(prob.gradient(x))
                d = rng.standard_normal(g.shape)
                d /= np.linalg.norm(d)
                if g.ndim == 2:
                    d = 0.5 * (d + d.T)
                h = 1e-6
                fd = (prob.value(x + h * d) - prob.value(x - h * d)) / (2 * h)
                dd = float(np.vdot(g, d))
                assert fd == pytest.approx(dd, rel=1e-5, abs=1e-8)


def _random_feasible_matrix(rng, n):
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = rng.dirichlet(np.ones(n))
    return (q * lam) @ q.T


class TestSpectrahedronSolves:
    def test_small_instance_all_variants_agree(self):
        inst = generate_instance(30, 60, 4, seed=77)
        obj, cset = inst.objective(), inst.feasible_set()
        x0 = starting_point(0.0, 30)
        alpha = constant_alpha_from_gamma(inst.lipschitz_L, 0.0)
        cfg = ConstantStepConfig(alpha=alpha,
                                 schedule=SummableSchedule.logarithmic(100.0),
                                 max_iter=4000)
        finals = [
            solve_constant(obj, cset, x0, cfg).f_final,
            solve_constant(obj, ExactProjectionAdapter(cset), x0, cfg).f_final,
            solve_armijo(obj, cset, x0, ArmijoConfig()).f_final,
            solve_armijo(obj, ExactProjectionAdapter(cset), x0,
                         ArmijoConfig()).f_final,
        ]
        spread = (max(finals) - min(finals)) / max(abs(max(finals)), 1e-12)
        assert spread < 1e-3

    def test_every_iterate_feasible(self):
        # wrap the oracle so each projection output is membership-checked
        from ipgm.sets import Spectrahedron

        seen = []

        @dataclass(frozen=True)
        class CheckedSpectrahedron(Spectrahedron):
            def inexact_project(self, v, u, gamma, phi, state=None):
                res = super().inexact_project(v, u, gamma, phi, state=state)
                seen.append(self.contains(res.point, feas_tol=1e-8))
                return res

        inst = generate_instance(20, 40, 3, seed=90)
        cset = CheckedSpectrahedron(20)
        cfg = ConstantStepConfig(
            alpha=constant_alpha_from_gamma(inst.lipschitz_L, 0.0),
            schedule=SummableSchedule.logarithmic(100.0), max_iter=2000)
        solve_constant(inst.objective(), cset, starting_point(0.0, 20), cfg)
        solve_armijo(inst.objective(), cset, starting_point(0.5, 20),
                     ArmijoConfig())
        assert seen and all(seen)

    def test_constant_step_monitors_on_instance(self):
        inst = generate_instance(25, 50, 4, seed=78)
        obj, cset = inst.objective(), inst.feasible_set()
        x0 = starting_point(0.0, 25)
        alpha = constant_alpha_from_gamma(inst.lipschitz_L, 0.0)
        cfg = ConstantStepConfig(alpha=alpha,
                                 schedule=SummableSchedule.logarithmic(100.0),
                                 max_iter=4000)
        res = solve_constant(obj, cset, x0, cfg)
        assert monitor_descent(res).passed
        assert monitor_complexity(res).passed


def _small_problem(kind):
    if kind == "boxqp":
        qp = make_boxqp(12, 0.5, 5.0, seed=3)
        return qp.objective(), qp.feasible_set(), np.full(12, 0.5)
    inst = generate_instance(20, 40, 3, seed=90)
    return inst.objective(), inst.feasible_set(), starting_point(0.5, 20)


def _solve_rule(rule, obj, cset, x0):
    if rule == "armijo":
        return solve_armijo(obj, cset, x0, ArmijoConfig())
    cfg = ConstantStepConfig(
        alpha=constant_alpha_from_gamma(obj.lipschitz_L, 0.0),
        schedule=SummableSchedule.logarithmic(100.0))
    return solve_constant(obj, cset, x0, cfg)


def _wrapped(obj, fault=lambda n, f, g: (f, g)):
    """obj whose n-th ``value_and_gradient`` call returns ``fault(n, f, g)``,
    with the list of its calls."""
    calls = []

    def value_and_gradient(x):
        calls.append(None)
        f, g = obj.value_and_gradient(x)
        return fault(len(calls), f, g)

    return replace(obj, value_and_gradient=value_and_gradient), calls


class TestFailuresNameTheIteration:
    """A NaN gradient or objective value, or a failed eigensolve inside the
    projection, stops the solve with a SolverError naming the iteration
    instead of surfacing as an unrelated error further down.

    Each fault is injected through a wrapped ``value_and_gradient``."""

    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    @pytest.mark.parametrize("kind", ["boxqp", "spectra"])
    def test_nan_gradient(self, rule, kind):
        obj, cset, x0 = _small_problem(kind)
        # the call that evaluates the iterate of iteration 2: the start, then
        # one call per constant step or per Armijo trial point
        clean = _solve_rule(rule, obj, cset, x0)
        n_fault = 1 + sum((r.backtracks or 0) + 1 for r in clean.records[:2])
        faulty, _ = _wrapped(
            obj, lambda n, f, g: (f, g * np.nan if n == n_fault else g))
        with pytest.raises(SolverError,
                           match="iteration 2: gradient norm is nan"):
            _solve_rule(rule, faulty, cset, x0)

    @pytest.mark.parametrize("kind", ["boxqp", "spectra"])
    def test_nan_value_after_the_move(self, kind):
        # one call for the start, then one per constant-step iteration
        obj, cset, x0 = _small_problem(kind)
        faulty, _ = _wrapped(
            obj, lambda n, f, g: (np.nan if n == 4 else f, g))
        with pytest.raises(SolverError,
                           match="iteration 2: objective value is nan"):
            _solve_rule("constant", faulty, cset, x0)

    def test_nan_value_in_line_search(self):
        # before, 60 futile backtracks ended in a LineSearchError naming
        # no iteration, after 66 value calls
        obj, cset, x0 = _small_problem("spectra")
        faulty, calls = _wrapped(
            obj, lambda n, f, g: (np.nan if n >= 6 else f, g))
        with pytest.raises(LineSearchError,
                           match="iteration 4: objective value is nan") as exc:
            _solve_rule("armijo", faulty, cset, x0)
        assert isinstance(exc.value.__cause__, LineSearchError)
        assert len(calls) == 6

    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    def test_nan_start_value(self, rule):
        obj, cset, x0 = _small_problem("spectra")
        faulty, _ = _wrapped(obj, lambda n, f, g: (np.nan, g))
        with pytest.raises(SolverError,
                           match="starting point: objective value is nan"):
            _solve_rule(rule, faulty, cset, x0)

    def test_armijo_evaluates_each_trial_once(self):
        # the accepted trial value is f(x_next); it is not evaluated again
        obj, cset, x0 = _small_problem("spectra")
        counted, calls = _wrapped(obj)
        res = _solve_rule("armijo", counted, cset, x0)
        assert res.iterations > 0
        assert len(calls) == 1 + sum(r.backtracks + 1 for r in res.records)

    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    def test_eigensolver_failure_in_projection(self, rule, monkeypatch):
        obj, cset, x0 = _small_problem("spectra")
        counted, calls = _wrapped(obj)
        real_top = IncrementalEigen.top

        def top(self, k):
            if len(calls) == 2:
                raise EigenSolverError("injected failure", best_residual=1.0)
            return real_top(self, k)

        monkeypatch.setattr(IncrementalEigen, "top", top)
        with pytest.raises(SolverError,
                           match="iteration 1: projection failed") as exc:
            _solve_rule(rule, counted, cset, x0)
        assert isinstance(exc.value.__cause__, EigenSolverError)
        assert "rank p=" in str(exc.value)

    @pytest.mark.parametrize("fill, k", [("lapack", 0), ("range_fill", 1)])
    def test_failed_certificate_names_the_iteration(self, fill, k, request):
        # the dense start takes a LAPACK fill and the factored iterates
        # after it the range fill; each gets a bad top vector
        request.getfixturevalue(f"{fill}_bad_residual")
        obj, cset, x0 = _small_problem("spectra")
        with pytest.raises(SolverError, match=(
                f"iteration {k}: projection failed: partial eigen"
                r"decomposition failed at rank p=\d+: .* residual")) as exc:
            _solve_rule("constant", obj, cset, x0)
        assert exc.value.__cause__.best_residual > 1e-9


class TestObjectiveCalls:
    """The solvers evaluate the objective only through
    ``value_and_gradient``, once per point."""

    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    def test_solve_calls_only_value_and_gradient(self, rule, monkeypatch):
        # the box QP backtracks, so Armijo evaluates rejected trials too
        obj, cset, x0 = _small_problem("boxqp")

        def forbidden(self, x):
            raise AssertionError("the solver called value or gradient")

        monkeypatch.setattr(BoxQP, "value", forbidden)
        monkeypatch.setattr(BoxQP, "gradient", forbidden)
        counted, calls = _wrapped(obj)
        res = _solve_rule(rule, counted, cset, x0)
        assert res.iterations > 0
        if rule == "constant":
            assert len(calls) <= res.iterations + 1
        else:
            # the start, then every trial point; the accepted one hands its
            # gradient on to the next iteration
            assert len(calls) == 1 + sum(r.backtracks + 1
                                         for r in res.records)

    def test_line_search_hands_on_the_accepted_gradient(self):
        # from the origin with mu = 0.01, L = 1 the line search backtracks;
        # every iteration must still use the gradient at its own iterate
        qp = make_boxqp(40, 0.01, 1.0, seed=1)
        anchors = []

        @dataclass(frozen=True)
        class RecordingBox(Box):
            def inexact_project(self, v, u, gamma, phi, state=None):
                anchors.append(np.array(u))
                return super().inexact_project(v, u, gamma, phi, state=state)

        box = RecordingBox.make(qp.lower, qp.upper)
        res = solve_armijo(qp.objective(), box, np.zeros(40),
                           ArmijoConfig(max_iter=2000, stop_tol=1e-8))
        assert res.stop_reason == "converged"
        assert sum(r.backtracks for r in res.records) > 0
        assert len(anchors) == len(res.records)
        for x_k, r in zip(anchors, res.records):
            assert r.grad_norm == np.linalg.norm(qp.gradient(x_k))
