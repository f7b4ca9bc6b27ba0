import numpy as np
import pytest

import ipgm.linalg
from ipgm.linalg import (
    EigenSolverError,
    IncrementalEigen,
    frobenius_inner,
    frobenius_norm,
    largest_eigenpair,
    symmetrize,
)


def random_symmetric(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.T)


class TestSymMatrix:
    """Symmetric matrices are plain arrays made by ``symmetrize``."""

    def test_symmetrizes_general_square(self):
        m = symmetrize([[1.0, 5.0], [-5.0, 1.0]])
        assert np.array_equal(m, np.eye(2))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrize(np.ones((2, 3)))
        with pytest.raises(ValueError):
            IncrementalEigen(np.ones((2, 3)))

    def test_symmetrize_preserves_symmetric_part(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((5, 5))
        s = symmetrize(g)
        assert np.allclose(s, s.T)
        assert np.allclose(s, 0.5 * (g + g.T))


class TestFrobenius:
    def test_identity_inner(self):
        assert frobenius_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_hand_value(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        # tr(A^T A) = 1 + 4 + 4 + 1
        assert frobenius_inner(a, a) == pytest.approx(10.0)

    def test_symmetry_of_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            assert frobenius_inner(a, b) == pytest.approx(frobenius_inner(b, a))

    def test_norm_consistent_with_inner(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        assert frobenius_norm(a) == pytest.approx(np.sqrt(frobenius_inner(a, a)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_inner(np.eye(2), np.eye(3))

    def test_vectors(self):
        assert frobenius_inner(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11.0)


class TestLeadingEigenpairs:
    """The p largest pairs of a fresh ``IncrementalEigen`` and the single
    pair of ``largest_eigenpair``."""

    def test_diagonal(self):
        vals, vecs = IncrementalEigen(np.diag([3.0, 2.0, 1.0])).top(2)
        assert vals[0] == pytest.approx(3.0, abs=1e-10)
        assert vals[1] == pytest.approx(2.0, abs=1e-10)
        assert abs(vecs[0, 0]) == pytest.approx(1.0, abs=1e-8)
        assert abs(vecs[1, 1]) == pytest.approx(1.0, abs=1e-8)

    def test_identity_any_unit_vector(self):
        vals, vecs = IncrementalEigen(np.eye(7)).top(1)
        assert vals[0] == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(vecs[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        value, vector = largest_eigenpair(np.zeros((5, 5)))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)

    def test_signed_diagonal(self):
        value, vector = largest_eigenpair(np.diag([0.4, -0.4]))
        assert value == pytest.approx(0.4, abs=1e-12)
        assert abs(vector[0]) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_oracle_12x12(self):
        rng = np.random.default_rng(42)
        s = random_symmetric(rng, 12)
        vals, _ = IncrementalEigen(s).top(4)
        oracle = np.sort(np.linalg.eigvalsh(s))[::-1]
        for i in range(4):
            assert vals[i] == pytest.approx(oracle[i], abs=1e-8)

    def test_matches_dense_oracle_10x10_largest(self):
        rng = np.random.default_rng(7)
        s = random_symmetric(rng, 10)
        value, _ = largest_eigenpair(s)
        assert value == pytest.approx(np.max(np.linalg.eigvalsh(s)), abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_values_and_subspaces(self, seed):
        # full-decomposition brute force as the independent reference; vectors
        # compared via invariant-subspace projectors when eigenvalues cluster
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, n + 1))
        s = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        vals, vecs = IncrementalEigen(s).top(p)
        w, q = np.linalg.eigh(s)
        w, q = w[::-1], q[:, ::-1]
        scale = max(1.0, np.linalg.norm(s))
        assert np.allclose(vals, w[:p], atol=1e-8 * scale)
        # subspace comparison on the leading block separated by >= 1e-6
        if p < n and w[p - 1] - w[p] >= 1e-6:
            proj_mine = vecs @ vecs.T
            proj_ref = q[:, :p] @ q[:, :p].T
            assert np.linalg.norm(proj_mine - proj_ref) < 1e-6

    def test_residual_and_orthonormality_invariants(self):
        rng = np.random.default_rng(3)
        s = random_symmetric(rng, 20, scale=5.0)
        vals, vecs = IncrementalEigen(s).top(6)
        tol = 1e-9 * max(1.0, np.linalg.norm(s))
        gram = vecs.T @ vecs - np.eye(6)
        assert np.max(np.abs(gram)) < 1e-10
        for val, vec in zip(vals, vecs.T):
            assert np.linalg.norm(s @ vec - val * vec) <= tol
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(5))

    def test_degenerate_cluster_projector(self):
        # eigenvalue 2 with multiplicity 3: any orthonormal basis accepted
        s = np.diag([2.0, 2.0, 2.0, 1.0, 0.5])
        vals, vecs = IncrementalEigen(s).top(3)
        proj = vecs @ vecs.T
        ref = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
        assert np.linalg.norm(proj - ref) < 1e-7
        assert np.allclose(vals, 2.0, atol=1e-9)

    def test_full_spectrum_small(self):
        rng = np.random.default_rng(11)
        s = random_symmetric(rng, 8)
        vals, _ = IncrementalEigen(s).top(8)
        oracle = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.allclose(vals, oracle, atol=1e-8)

    def test_warm_start_previous_vectors(self):
        rng = np.random.default_rng(12)
        s = random_symmetric(rng, 25)
        _, warm = IncrementalEigen(s).top(3)
        s2 = s + 1e-3 * random_symmetric(rng, 25)
        warm_vals, _ = IncrementalEigen(s2, warm_start=warm).top(3)
        oracle = np.sort(np.linalg.eigvalsh(s2))[::-1]
        assert np.allclose(warm_vals, oracle[:3], atol=1e-8)

    def test_misleading_warm_start_not_trusted(self):
        # e2 is an eigenvector of the non-dominant eigenvalue; a naive
        # breakdown would lock it as the "largest"
        s = np.diag([3.0, 2.0, 1.0])
        warm = np.zeros((3, 1))
        warm[1, 0] = 1.0
        vals, _ = IncrementalEigen(s, warm_start=warm).top(1)
        assert vals[0] == pytest.approx(3.0, abs=1e-10)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            IncrementalEigen(np.eye(3)).top(0)
        with pytest.raises(ValueError):
            IncrementalEigen(np.eye(3)).top(4)

    def test_failed_residual_reports_residual(self, eigsh_bad_residual):
        rng = np.random.default_rng(5)
        s = random_symmetric(rng, 60)
        cache = IncrementalEigen(s)
        with pytest.raises(EigenSolverError, match="residual") as exc:
            cache.top(3)
        assert exc.value.best_residual > cache.tol_abs

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [5, 120])
    def test_non_finite_matrix_rejected(self, n, bad):
        # n=5 is served by the dense eigh, n=120 by ARPACK
        s = random_symmetric(np.random.default_rng(8), n)
        s[1, 2] = s[2, 1] = bad
        with pytest.raises(EigenSolverError, match="Frobenius norm"):
            IncrementalEigen(s)
        with pytest.raises(EigenSolverError, match="Frobenius norm"):
            largest_eigenpair(s)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(6)
        s = random_symmetric(rng, 15)
        a_vals, a_vecs = IncrementalEigen(s).top(4)
        b_vals, b_vecs = IncrementalEigen(s).top(4)
        assert np.array_equal(a_vals, b_vals)
        assert np.array_equal(a_vecs, b_vecs)


class TestIncrementalEigen:
    def test_extension_matches_oracle(self):
        rng = np.random.default_rng(21)
        s = random_symmetric(rng, 60)
        cache = IncrementalEigen(s)
        oracle = np.sort(np.linalg.eigvalsh(s))[::-1]
        vals1, _ = cache.top(2)
        assert np.allclose(vals1, oracle[:2], atol=1e-8)
        used = cache.matvecs_used
        vals2, vecs2 = cache.top(5)
        assert np.allclose(vals2, oracle[:5], atol=1e-8)
        assert cache.matvecs_used > used
        # asking again for fewer pairs reuses the cache
        vals1b, _ = cache.top(2)
        assert np.array_equal(vals1b, vals2[:2])

    def test_bounds(self):
        cache = IncrementalEigen(np.eye(4))
        with pytest.raises(ValueError):
            cache.top(0)
        with pytest.raises(ValueError):
            cache.top(5)


def rotated(rng, eigenvalues):
    """Symmetric matrix with the given spectrum in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))
    return (q * np.asarray(eigenvalues)) @ q.T, q


class TestArpackPath:
    """Sizes where the requested pairs go through ARPACK, not dense eigh."""

    def test_top_eigenvalues_near_zero(self):
        # ARPACK's stop test is relative to the Ritz value: inside a cluster
        # of values near 0 only the shifted operator meets an absolute target
        rng = np.random.default_rng(301)
        n = 120
        spec = np.concatenate([[3e-12, 2e-12, 1e-12],
                               -rng.uniform(0.0, 1e-10, 40),
                               -rng.uniform(0.05, 0.15, n - 43)])
        s, _ = rotated(rng, spec / np.linalg.norm(spec))
        vals, vecs = IncrementalEigen(s).top(3)
        oracle = np.sort(np.linalg.eigvalsh(s))[::-1]
        tol = 1e-9 * max(1.0, np.linalg.norm(s))
        assert np.allclose(vals, oracle[:3], atol=tol)
        for val, vec in zip(vals, vecs.T):
            assert np.linalg.norm(s @ vec - val * vec) <= tol

    def test_misleading_warm_start_n200(self):
        # warm start: the exact eigenvectors of 6, 5 and 4, below the top 3
        rng = np.random.default_rng(302)
        n = 200
        spec = np.concatenate([[9.0, 8.0, 7.0, 6.0, 5.0, 4.0],
                               rng.uniform(-3.0, 3.0, n - 6)])
        s, q = rotated(rng, spec)
        vals, _ = IncrementalEigen(s, warm_start=q[:, 3:6]).top(3)
        oracle = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.allclose(vals, oracle[:3],
                           atol=1e-9 * np.linalg.norm(s))

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(303)
        s = random_symmetric(rng, 150)
        warm = np.linalg.qr(rng.standard_normal((150, 4)))[0]
        for kwargs in ({}, {"warm_start": warm}):
            a_vals, a_vecs = IncrementalEigen(s, **kwargs).top(4)
            b_vals, b_vecs = IncrementalEigen(s, **kwargs).top(4)
            assert np.array_equal(a_vals, b_vals)
            assert np.array_equal(a_vecs, b_vecs)

    @pytest.mark.parametrize("shape", ["multiplicity-20", "cold-certificate"])
    def test_degenerate_top_cluster_within_default_budget(self, shape):
        # Both are V - W_p shapes where vals[:p] - lam is equal on the whole
        # support: a top value of multiplicity 20 with the next 6.5e-7 below,
        # and the spectrum of a cold n=400 certificate (8 equal top values,
        # then gaps of 1e-9 to 2e-6 over ~40 values, then a large cluster)
        rng = np.random.default_rng(304)
        n = 150
        if shape == "multiplicity-20":
            top = 1.0
            spec = np.concatenate([np.full(20, top), [top - 6.5e-7],
                                   rng.uniform(-1.0, 0.9, n - 21)])
        else:
            top = 2.5e-3
            spec = np.concatenate([np.full(8, top),
                                   top - np.array([1.2e-9, 2.4e-9, 3.9e-9]),
                                   top - rng.uniform(5e-8, 2e-6, 40),
                                   np.full(n - 51, -1.67e-2)])
        s, _ = rotated(rng, spec)
        value, vector = largest_eigenpair(s)
        tol = 1e-9 * max(1.0, np.linalg.norm(s))
        assert value == pytest.approx(top, abs=tol)
        assert np.linalg.norm(s @ vector - value * vector) <= tol

    def test_failed_residual_certificate_finite_residual(
            self, eigsh_bad_residual):
        rng = np.random.default_rng(305)
        s = random_symmetric(rng, 120)
        with pytest.raises(EigenSolverError, match="residual") as exc:
            IncrementalEigen(s).top(5)
        assert np.isfinite(exc.value.best_residual)
        assert exc.value.best_residual > 0.0

    def test_budget_runs_out_into_dense_fill(self):
        # 20 distinct top values above a 60-fold cluster and a tail graded
        # from 1e-7 below it, the shape of V at a cold start: top(21) and its
        # lookahead pair sit in the cluster, where ARPACK does not converge
        # within 2e5 products; eigh takes over when the budget runs out
        rng = np.random.default_rng(307)
        n = 200
        s, _ = rotated(rng, np.concatenate([
            np.linspace(2.0, 1.0, 20), np.full(60, 0.1),
            0.1 - np.geomspace(1e-7, 1e-1, n - 80)]))
        cache = IncrementalEigen(s)
        vals, vecs = cache.top(21)
        oracle = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.allclose(vals, oracle[:21], atol=1e-9 * np.linalg.norm(s))
        assert np.linalg.norm(s @ vecs - vecs * vals) < 1e-9
        assert cache.matvecs_used <= 2 * n
        # the dense fill cached every pair
        cache.top(n)
        assert cache.fills == 1

    def test_duplicated_vector_fails_orthonormality(self, monkeypatch):
        # two copies of one eigenvector both have a small residual; only the
        # orthonormality check sees that they do not span two dimensions
        real_eigsh = ipgm.linalg.eigsh

        def duplicating(*args, **kwargs):
            vals, q = real_eigsh(*args, **kwargs)
            q = q.copy()
            q[:, 0] = q[:, 1]
            return vals, q

        monkeypatch.setattr(ipgm.linalg, "eigsh", duplicating)
        rng = np.random.default_rng(306)
        cache = IncrementalEigen(random_symmetric(rng, 120))
        with pytest.raises(EigenSolverError, match="orthonormal"):
            cache.top(3)
