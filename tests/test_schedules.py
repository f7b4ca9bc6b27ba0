import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipgm.schedules import (
    ForcingParams,
    SummableSchedule,
    ToleranceFn,
    forcing_for_iteration,
    schedule_values,
    tolerance_bound_check,
)


class TestForcingParams:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ForcingParams(-0.1, 0.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ForcingParams(np.nan, 0.0, 0.0)

    def test_zero(self):
        g = ForcingParams.zero()
        assert (g.gamma1, g.gamma2, g.gamma3) == (0.0, 0.0, 0.0)


class TestSchedules:
    def test_harmonic_hand_values(self):
        s = SummableSchedule.harmonic(1.0)
        # a_0 = b_{-1} - b_0 = 3 - 2, b_0 = 2
        assert schedule_values(s, 0) == (1.0, 2.0)
        # a_2 = b_1 - b_2 = 1 - 1/2
        assert schedule_values(s, 2) == (0.5, 0.5)

    def test_logarithmic_hand_values(self):
        s = SummableSchedule.logarithmic(100.0)
        a0, b0 = schedule_values(s, 0)
        assert (a0, b0) == (100.0, 200.0)
        _, b1 = schedule_values(s, 1)
        assert b1 == pytest.approx(100.0 / math.log(2.0))
        assert b1 == pytest.approx(144.27, abs=0.01)

    @pytest.mark.parametrize("make", [SummableSchedule.harmonic,
                                      SummableSchedule.logarithmic,
                                      SummableSchedule.zero_budget])
    def test_schedule_invariants(self, make):
        s = make(3.7)
        prev_b = s.b_minus1
        total = 0.0
        for k in range(200):
            a_k, b_k = schedule_values(s, k)
            assert a_k >= 0.0
            assert b_k >= 0.0
            assert b_k <= prev_b + 1e-15
            assert a_k <= prev_b - b_k + 1e-12
            total += a_k
            prev_b = b_k
        assert total <= s.b_minus1 + 1e-9
        # telescoping is exact to roundoff for the built-ins
        if s.name != "zero":
            assert total == pytest.approx(s.b_minus1 - prev_b, rel=1e-12)

    def test_b_tends_to_zero(self):
        # the logarithmic tail decays slowly, so only check the trend
        for make in (SummableSchedule.harmonic, SummableSchedule.logarithmic,
                     SummableSchedule.zero_budget):
            s = make(1.0)
            assert s.b(10**9) < 0.05 * s.b(1)

    def test_rejects_nonpositive_bbar(self):
        for make in (SummableSchedule.harmonic, SummableSchedule.logarithmic,
                     SummableSchedule.zero_budget):
            with pytest.raises(ValueError):
                make(0.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            schedule_values(SummableSchedule.harmonic(1.0), -1)

    def test_by_name(self):
        assert SummableSchedule.by_name("harmonic", 2.0).name == "harmonic"
        with pytest.raises(ValueError):
            SummableSchedule.by_name("nope", 1.0)

    def test_b_at_minus_one(self):
        s = SummableSchedule.harmonic(1.0)
        assert s.b_at(-1) == 3.0
        assert s.b_at(0) == 2.0


class TestForcingForIteration:
    def test_even_split(self):
        g = forcing_for_iteration(4.0, 1.0, 0.49995, 0.0)
        assert g.gamma1 == pytest.approx(0.125)
        assert g.gamma2 == pytest.approx(0.125)
        assert g.gamma3 == 0.0

    def test_zero_budget(self):
        g = forcing_for_iteration(4.0, 0.0, 0.49995, 0.3)
        assert (g.gamma1, g.gamma2) == (0.0, 0.0)
        assert g.gamma3 == 0.3

    def test_cap_branch(self):
        g = forcing_for_iteration(1.0, 1e6, 0.49995, 0.0)
        assert g.gamma2 == pytest.approx(0.49995)
        assert g.gamma1 == pytest.approx(1e6 - 0.49995)

    def test_budget_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            gns = float(rng.uniform(1e-6, 1e3))
            a_k = float(rng.uniform(0.0, 1e3))
            g = forcing_for_iteration(gns, a_k, 0.49995, 0.4)
            assert (g.gamma1 + g.gamma2) * gns <= a_k + 1e-12 * max(1.0, a_k)
            assert g.gamma2 <= 0.49995
            assert g.gamma3 <= 0.4

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            forcing_for_iteration(0.0, 1.0, 0.49995, 0.0)


class TestToleranceFns:
    def norms_triplet(self, rng, dim=6, scale=1.0):
        u = scale * rng.standard_normal(dim)
        v = scale * rng.standard_normal(dim)
        w = scale * rng.standard_normal(dim)
        return u, v, w

    def test_phi4_is_single_term(self):
        phi = ToleranceFn.canonical("phi4")
        g = ForcingParams(0.7, 0.9, 0.3)
        u = np.zeros(3)
        w = np.array([1.0, 1.0, 0.0])
        assert phi(g, u, np.ones(3), w) == pytest.approx(0.3 * 2.0)
        assert tolerance_bound_check(phi, g, u, np.ones(3), w)

    @pytest.mark.parametrize("kind", ["phi1", "phi2", "phi3", "phi4"])
    def test_bound_holds_on_random_triples(self, kind):
        phi = ToleranceFn.canonical(kind)
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(2500):
            g = ForcingParams(*rng.uniform(0.0, 2.0, size=3))
            u, v, w = self.norms_triplet(rng, scale=float(rng.uniform(0.1, 10)))
            assert tolerance_bound_check(phi, g, u, v, w)

    def test_phi5_bound_in_unit_regime(self):
        # the product form satisfies the bound when all pairwise distances
        # and weights stay below one
        phi = ToleranceFn.canonical("phi5")
        rng = np.random.default_rng(55)
        for _ in range(2500):
            g = ForcingParams(*rng.uniform(0.0, 1.0, size=3))
            d = rng.integers(2, 8)
            u = rng.standard_normal(d)
            v = u + rng.uniform(0, 0.5) * _unit(rng, d)
            w = u + rng.uniform(0, 0.5) * _unit(rng, d)
            assert tolerance_bound_check(phi, g, u, v, w)

    def test_custom_violation_detected(self):
        bad = ToleranceFn.custom(lambda g, vu, wv, wu: g.gamma1 * vu + 1.0)
        g = ForcingParams(1.0, 1.0, 1.0)
        z = np.zeros(4)
        assert not tolerance_bound_check(bad, g, z, z, z)

    def test_matrix_arguments(self):
        phi = ToleranceFn.canonical("phi1")
        g = ForcingParams(1.0, 1.0, 1.0)
        u = np.zeros((2, 2))
        v = np.eye(2)
        w = 2 * np.eye(2)
        # ||v-u||^2 = 2, ||w-v||^2 = 2, ||w-u||^2 = 8
        assert phi(g, u, v, w) == pytest.approx(12.0)

    def test_negative_tolerance_rejected(self):
        phi = ToleranceFn.custom(lambda g, vu, wv, wu: -1.0)
        with pytest.raises(ValueError):
            phi(ForcingParams.zero(), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            phi.from_squares(ForcingParams.zero(), 0.0, 0.0, 0.0)
        nan = ToleranceFn.custom(lambda g, vu, wv, wu: float("nan"))
        with pytest.raises(ValueError):
            nan.from_squares(ForcingParams.zero(), 1.0, 1.0, 1.0)

    def test_custom_receives_squared_distances(self):
        seen = []
        phi = ToleranceFn.custom(
            lambda g, vu, wv, wu: seen.append((vu, wv, wu)) or 0.0)
        phi(ForcingParams.zero(), np.zeros(2), np.array([3.0, 4.0]),
            np.array([3.0, 0.0]))
        # ||v - u||^2 = 25, ||w - v||^2 = 16, ||w - u||^2 = 9
        assert seen == [(25.0, 16.0, 9.0)]

    # the canonical forms written out independently of the library's table
    REFERENCE = {
        "phi1": lambda g, vu, wv, wu: g.gamma1 * vu + g.gamma2 * wv + g.gamma3 * wu,
        "phi2": lambda g, vu, wv, wu: g.gamma1 * vu,
        "phi3": lambda g, vu, wv, wu: g.gamma2 * wv,
        "phi4": lambda g, vu, wv, wu: g.gamma3 * wu,
        "phi5": lambda g, vu, wv, wu: g.gamma1 * g.gamma2 * g.gamma3 * vu * wv * wu,
    }

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(REFERENCE)),
           gammas=st.tuples(*[st.floats(0.0, 2.0)] * 3),
           dim=st.integers(1, 6),
           data=st.data())
    def test_from_squares_matches_point_form(self, kind, gammas, dim, data):
        coords = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
        u, v, w = (np.array(data.draw(coords)) for _ in range(3))
        g = ForcingParams(*gammas)
        phi = ToleranceFn.canonical(kind)
        dists = [float(np.linalg.norm(a - b)) for a, b in ((v, u), (w, v), (w, u))]
        squares = [d * d for d in dists]
        assert phi.from_squares(g, *squares) == phi(g, u, v, w)
        assert phi(g, u, v, w) == pytest.approx(
            self.REFERENCE[kind](g, *squares), rel=1e-12, abs=1e-300)
        assert ToleranceFn.canonical(kind) == phi

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ToleranceFn.canonical("phi9")


def _unit(rng, d):
    x = rng.standard_normal(d)
    n = np.linalg.norm(x)
    while n < 1e-12:
        x = rng.standard_normal(d)
        n = np.linalg.norm(x)
    return x / n
