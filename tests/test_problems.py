import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import ipgm.problems
from ipgm.linalg import FactoredGradient, LowRank, frobenius_norm, symmetrize
from ipgm.problems import (
    BoxQP,
    default_density,
    generate_instance,
    make_boxqp,
    starting_point,
    structured_start,
)


def _dense_reference(n, m, omega, seed):
    """The dense construction: omega n x n outer products, then A Xbar."""
    a = generate_instance(n, m, omega, seed=seed).a
    _, ss_pos, ss_theta = np.random.SeedSequence(seed).spawn(3)
    rng_pos = np.random.default_rng(ss_pos)
    rng_theta = np.random.default_rng(ss_theta)
    x_bar = np.zeros((n, n))
    for _ in range(omega):
        pos = rng_pos.choice(n, size=2, replace=False)
        theta = rng_theta.uniform(0.0, 2.0 * np.pi)
        g = np.zeros(n)
        g[pos[0]] = np.cos(theta)
        g[pos[1]] = np.sin(theta)
        x_bar += np.outer(g, g)
    # ||A^T A||_F over its nonzero entries in row-major order, the order
    # of the sparse H's stored entries
    ata = (a.T @ a).toarray()
    return x_bar, a @ x_bar, float(np.linalg.norm(ata[ata != 0.0]))


class TestGenerateInstance:
    def test_planted_matrix_trace(self):
        inst = generate_instance(40, 80, 10, seed=0)
        # each g g^T has unit trace since cos^2 + sin^2 = 1
        assert np.trace(inst.x_bar) == pytest.approx(10.0, abs=1e-12)

    def test_zero_residual_at_planted_point(self):
        inst = generate_instance(30, 60, 5, seed=1)
        assert inst.value(inst.x_bar) == pytest.approx(0.0, abs=1e-20)
        assert frobenius_norm(inst.gradient(inst.x_bar)) < 1e-12

    def test_planted_point_infeasible(self):
        inst = generate_instance(30, 60, 5, seed=2)
        assert not inst.feasible_set().contains(inst.x_bar)

    def test_seeded_determinism(self):
        a = generate_instance(25, 50, 4, seed=33)
        b = generate_instance(25, 50, 4, seed=33)
        assert (a.a != b.a).nnz == 0
        assert (a.b_mat != b.b_mat).nnz == 0
        assert np.array_equal(a.x_bar, b.x_bar)

    def test_different_seeds_differ(self):
        a = generate_instance(25, 50, 4, seed=33)
        b = generate_instance(25, 50, 4, seed=34)
        assert (a.a != b.a).nnz > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_instance(10, 5, 4, seed=0)  # m < n
        with pytest.raises(ValueError):
            generate_instance(1, 2, 4, seed=0)
        with pytest.raises(ValueError):
            generate_instance(10, 20, 1, seed=0)  # omega must exceed 1
        with pytest.raises(ValueError):
            generate_instance(10, 20, 4, density=0.0, seed=0)

    def test_entries_in_open_interval(self):
        inst = generate_instance(50, 100, 5, density=0.05, seed=7)
        vals = inst.a.tocoo().data
        assert np.all(np.abs(vals) < 1.0)
        assert vals.size == round(0.05 * 50 * 100)

    @pytest.mark.parametrize("n, m, omega, seed", [
        (6, 12, 30, 0),      # planted positions repeat: accumulation order
        (6, 12, 30, 5),
        (25, 50, 4, 33),
        (40, 80, 10, 1),
        (60, 200, 20, 9),
    ])
    def test_matches_dense_construction(self, n, m, omega, seed):
        inst = generate_instance(n, m, omega, seed=seed)
        x_bar, b_mat, lip = _dense_reference(n, m, omega, seed)
        assert inst.x_bar.tobytes() == x_bar.tobytes()
        assert inst.b_mat.toarray().tobytes() == b_mat.tobytes()
        assert repr(inst.lipschitz_L) == repr(lip)
        assert sp.isspmatrix_csr(inst.b_mat)
        assert np.count_nonzero(inst.x_bar) <= 4 * omega

    def test_default_density(self):
        assert default_density(2000, 40000) == pytest.approx(1e-4)
        assert default_density(200, 400) == pytest.approx(0.01)

    def test_default_density_is_capped_for_few_rows(self):
        # 4 / m exceeds 1 below four rows; the default is then a dense A
        assert default_density(3, 3) == 1.0
        inst = generate_instance(3, 3, 2)
        assert inst.density == 1.0
        assert inst.a.count_nonzero() == 9

    def test_lipschitz_is_frobenius_of_gram(self):
        inst = generate_instance(20, 40, 3, seed=5)
        ata = (inst.a.T @ inst.a).toarray()
        assert inst.lipschitz_L == pytest.approx(np.linalg.norm(ata))

    def test_generation_forms_no_dense_matrix(self):
        # L = ||A^T A||_F comes from the sparse product's entries; a dense
        # n x n array alone would take n^2 8 bytes
        n = 2000
        generate_instance(40, 80, 4, seed=0)  # lazy imports, untraced
        tracemalloc.start()
        try:
            generate_instance(n, 2 * n, 20, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_gradient_lipschitz_bound(self):
        inst = generate_instance(15, 30, 3, seed=6)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = 0.5 * (lambda g: g + g.T)(rng.standard_normal((15, 15)))
            y = 0.5 * (lambda g: g + g.T)(rng.standard_normal((15, 15)))
            lhs = frobenius_norm(inst.gradient(x) - inst.gradient(y))
            assert lhs <= inst.lipschitz_L * frobenius_norm(x - y) + 1e-10

    def test_midpoint_convexity(self):
        inst = generate_instance(15, 30, 3, seed=8)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal((15, 15))
            y = rng.standard_normal((15, 15))
            assert inst.value(0.5 * (x + y)) <= (
                0.5 * inst.value(x) + 0.5 * inst.value(y) + 1e-10)


class TestStartingPoint:
    def test_beta_zero(self):
        x0 = starting_point(0.0, 5)
        assert np.allclose(x0, np.eye(5) / 5)

    def test_beta_near_one(self):
        x0 = starting_point(0.99, 2)
        assert np.allclose(np.diag(x0), [0.995, 0.005])

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.99, 1.0])
    def test_always_feasible(self, beta):
        from ipgm.sets import Spectrahedron
        x0 = starting_point(beta, 12)
        assert Spectrahedron(12).contains(x0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            starting_point(-0.1, 4)
        with pytest.raises(ValueError):
            starting_point(1.1, 4)


class TestBoxQP:
    def test_spectrum_spans_mu_L(self):
        qp = make_boxqp(12, 0.5, 5.0, seed=4)
        ev = np.linalg.eigvalsh(qp.q_mat)
        assert ev[0] == pytest.approx(0.5, abs=1e-10)
        assert ev[-1] == pytest.approx(5.0, abs=1e-10)

    def test_mu_equals_L_gives_scaled_identity(self):
        qp = make_boxqp(6, 2.0, 2.0, seed=1)
        assert np.allclose(qp.q_mat, 2.0 * np.eye(6), atol=1e-10)

    def test_recorded_solution_is_stationary(self):
        qp = make_boxqp(9, 0.3, 3.0, seed=2)
        assert np.linalg.norm(qp.gradient(qp.x_star)) < 1e-10
        assert qp.feasible_set().contains(qp.x_star)

    def test_1d_boundary_case(self):
        qp = BoxQP(q_mat=np.array([[2.0]]), b_vec=np.array([4.0]),
                   lower=np.zeros(1), upper=np.ones(1), mu=2.0,
                   lipschitz_L=2.0, x_star=np.array([1.0]))
        # unconstrained minimizer 2 clamps to the upper bound
        assert qp.gradient(np.array([1.0]))[0] == pytest.approx(-2.0)
        assert qp.value(np.array([1.0])) == pytest.approx(-3.0)

    def test_strong_convexity_inequality(self):
        qp = make_boxqp(8, 0.5, 4.0, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 1, 8)
            y = rng.uniform(0, 1, 8)
            gap = (qp.value(y) - qp.value(x)
                   - float(qp.gradient(x) @ (y - x)))
            assert gap >= 0.5 * qp.mu * np.sum((y - x) ** 2) - 1e-10

    def test_one_dimension(self):
        # n = 1 has a single eigenvalue, so L is mu whatever L was asked for
        qp = make_boxqp(1, 0.5, 5.0, seed=3)
        assert qp.q_mat.tolist() == [[0.5]]
        assert qp.lipschitz_L == qp.mu == 0.5
        assert 0.2 <= qp.x_star[0] <= 0.8
        assert qp.gradient(qp.x_star)[0] == pytest.approx(0.0, abs=1e-15)
        assert qp.feasible_set().contains(qp.x_star)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_boxqp(5, 0.0, 1.0)
        with pytest.raises(ValueError):
            make_boxqp(5, 2.0, 1.0)


class TestValueAndGradient:
    """The fused evaluation returns exactly (value(x), gradient(x))."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lsq_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        inst = generate_instance(30, 60, 4, seed=seed)
        for x in (starting_point(0.0, 30), inst.x_bar,
                  rng.standard_normal((30, 30))):
            f, g = inst.value_and_gradient(x)
            assert f == inst.value(x)
            assert g.tobytes() == inst.gradient(x).tobytes()
            # and the bits of the textbook formula sym(A^T (A X - B))
            at_r = inst.a.T @ (inst.a @ x - inst.b_mat.toarray())
            assert g.tobytes() == (0.5 * (at_r + at_r.T)).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_factored_products_bit_identical(self, seed, monkeypatch):
        """P = H Y and S Y come from one product with the stacked [H; S],
        with the bits of the two separate products."""
        seen = []

        def capture(point, p, s, s_sq_norm, sy, s_range):
            seen.append((p, sy))
            return FactoredGradient(point, p, s, s_sq_norm, sy, s_range)

        monkeypatch.setattr(ipgm.problems, "FactoredGradient", capture)
        inst = generate_instance(40, 80, 5, seed=seed)
        s = inst._linear_term[0]
        rng = np.random.default_rng(seed)
        for r in (1, 3, 8):
            y = rng.standard_normal((40, r))
            inst.value_and_gradient(LowRank(y))
            p, sy = seen.pop()
            assert p.tobytes() == (inst._h @ y).tobytes()
            assert sy.tobytes() == (s @ y).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_lsq_value_and_gradient_take_the_residual(self, seed):
        """value and gradient hold the bits of the residual formulas at the
        dense matrix of their argument, a ``LowRank`` point's too."""
        def reference(x):
            r = inst.a @ np.asarray(x, dtype=float)
            r[inst._b_rows, inst._b_cols] -= inst._b_vals
            return 0.5 * float(np.vdot(r, r)), symmetrize(inst._a_t @ r)

        rng = np.random.default_rng(seed)
        inst = generate_instance(30, 60, 4, seed=seed)
        y = rng.standard_normal((30, 3))
        for x in (starting_point(0.5, 30), rng.standard_normal((30, 30)),
                  LowRank(y), LowRank(y, 0.2 / 30),
                  structured_start(0.5, 30)):
            f_ref, g_ref = reference(x)
            assert inst.value(x) == f_ref
            g = inst.gradient(x)
            assert isinstance(g, np.ndarray)
            assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_boxqp_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        qp = make_boxqp(9, 0.3, 7.0, seed=seed)
        for x in (np.zeros(9), qp.x_star, rng.standard_normal(9)):
            f, g = qp.value_and_gradient(x)
            assert f == qp.value(x)
            assert g.tobytes() == qp.gradient(x).tobytes()
            # and the bits of the formulas 0.5 x^T Q x - b^T x and Q x - b
            assert f == 0.5 * float(x @ (qp.q_mat @ x)) - float(qp.b_vec @ x)
            assert g.tobytes() == (qp.q_mat @ x - qp.b_vec).tobytes()
