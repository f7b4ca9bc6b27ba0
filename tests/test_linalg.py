import gc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import ipgm.linalg
from ipgm.linalg import (
    EigenSolverError,
    IncrementalEigen,
    LowRank,
    StepOperator,
    frobenius_inner,
    frobenius_norm,
    largest_eigenpair,
    subset_eigh,
    symmetrize,
)
from ipgm.harness import ARMIJO_GAMMA3, GAMMA2_CAP
from ipgm.problems import generate_instance, starting_point, structured_start
from ipgm.schedules import (
    ForcingParams,
    SummableSchedule,
    ToleranceFn,
    forcing_for_iteration,
)
from ipgm.sets import (
    Spectrahedron,
    certify_inexact_projection,
    inexact_project_spectrahedron,
)
from ipgm.solver import constant_alpha_from_gamma


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


class TestQR:
    """``_qr`` takes R from a cached strictly-lower mask, bit for bit what
    ``np.triu`` makes of the same ``geqrf`` factor."""

    @pytest.mark.parametrize("shape", [(40, 7), (9, 9), (5, 12), (1, 1),
                                       (300, 0)])
    def test_r_is_triu_of_the_factor_bytewise(self, shape):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        a[:, :1] = -0.0  # a zero column: signed zeros in the factor
        qr, _, _, info = scipy.linalg.lapack.dgeqrf(a)
        assert info == 0
        k = min(shape)
        for want_q in (False, True):
            q, r = ipgm.linalg._qr(a, want_q=want_q)
            assert r.shape == (k, shape[1])
            assert r.tobytes() == np.triu(qr[:k]).tobytes()
            assert r.flags.writeable
            if want_q:
                assert np.allclose(q @ r, a)

    def test_the_cached_mask_is_read_only(self):
        a = np.random.default_rng(3).standard_normal((6, 4))
        ipgm.linalg._qr(a)
        mask = ipgm.linalg._strictly_lower(4, 4)
        assert mask is ipgm.linalg._strictly_lower(4, 4)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[1, 0] = False
        assert np.array_equal(mask, np.tri(4, 4, -1, dtype=bool))


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

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            IncrementalEigen(np.eye(3)).top(0)
        with pytest.raises(ValueError):
            IncrementalEigen(np.eye(3)).top(4)

    def test_failed_residual_reports_residual(self, lapack_bad_residual):
        rng = np.random.default_rng(5)
        s = random_symmetric(rng, 60)
        cache = IncrementalEigen(s)
        with pytest.raises(EigenSolverError, match="residual") as exc:
            cache.top(3)
        assert exc.value.best_residual > cache.tol_abs

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [5, 120])
    def test_non_finite_matrix_rejected(self, n, bad):
        # rejected before any fill, whatever the size
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
        # the first fill certified its 16 pairs; top(5) spends nothing
        assert cache.matvecs_used == used == 16
        # asking again for fewer pairs reuses the cache
        vals1b, _ = cache.top(2)
        assert np.array_equal(vals1b, vals2[:2])

    def test_certifies_one_pair_ahead(self, monkeypatch):
        # the rank-p projector asks for p + 1 pairs, then p + 2: the second
        # request is served by the first one's certificate
        certified = _spy_on_certificates(monkeypatch)
        s = random_symmetric(np.random.default_rng(23), 60)
        oracle = np.sort(np.linalg.eigvalsh(s))[::-1]
        cache = IncrementalEigen(s)
        for k in (2, 3, 4, 5):
            vals, vecs = cache.top(k)
            assert vals.size == vecs.shape[1] == k
            assert np.allclose(vals, oracle[:k], atol=1e-8)
        # one fill of 16 pairs, certified once as one block when top(2)
        # computes it: the later requests are served from it
        assert certified == [16]
        assert cache.fills == 1 and cache.matvecs_used == 16

    def test_sq_norm_keeps_the_scale_bits(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a = random_symmetric(rng, int(rng.integers(2, 401)),
                                 scale=10.0 ** rng.uniform(-3, 3))
            cache = IncrementalEigen(a)
            assert cache.sq_norm == float(np.vdot(a, a))
            assert np.sqrt(cache.sq_norm) == np.linalg.norm(a)
            assert cache.scale == max(1.0, float(np.linalg.norm(a)))

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


class TestLapackFill:
    """Dense inputs, served by LAPACK's top pairs."""

    def test_top_eigenvalues_near_zero(self):
        # the residual tolerance is absolute, so pairs inside a cluster of
        # values near 0 must meet it as well as the top ones
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

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(303)
        s = random_symmetric(rng, 150)
        a_vals, a_vecs = IncrementalEigen(s).top(4)
        b_vals, b_vecs = IncrementalEigen(s).top(4)
        assert np.array_equal(a_vals, b_vals)
        assert np.array_equal(a_vecs, b_vecs)

    @pytest.mark.parametrize("shape", ["multiplicity-20", "cold-certificate"])
    def test_degenerate_top_cluster(self, shape):
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
        vals, vecs = IncrementalEigen(s).top(21)
        assert np.allclose(vals, np.sort(spec)[::-1][:21], atol=tol)
        assert np.max(np.linalg.norm(s @ vecs - vecs * vals, axis=0)) <= tol

    def test_failed_residual_certificate_finite_residual(
            self, lapack_bad_residual):
        rng = np.random.default_rng(305)
        s = random_symmetric(rng, 120)
        with pytest.raises(EigenSolverError, match="LAPACK.*residual") as exc:
            IncrementalEigen(s).top(5)
        assert np.isfinite(exc.value.best_residual)
        assert exc.value.best_residual > 0.0

    def test_refills_double_the_pairs(self, monkeypatch):
        # 20 distinct top values above a 60-fold cluster and a tail graded
        # from 1e-7 below it, the shape of V at a cold start
        rng = np.random.default_rng(307)
        n = 200
        s, _ = rotated(rng, np.concatenate([
            np.linspace(2.0, 1.0, 20), np.full(60, 0.1),
            0.1 - np.geomspace(1e-7, 1e-1, n - 80)]))
        pairs = _spy_on_subsets(monkeypatch)
        certified = _spy_on_certificates(monkeypatch)
        cache = IncrementalEigen(s)
        oracle = np.sort(np.linalg.eigvalsh(s))[::-1]
        tol = 1e-9 * np.linalg.norm(s)
        # one pair, then the floor of 16, then at least twice the last fill.
        # Each fill certifies every pair it returns, once, and a served
        # request certifies nothing: 1, then + 16, + 32, + 64, + 128, + 200
        for k, fills, m, used in ((1, 1, 1, 1), (2, 2, 16, 17),
                                  (16, 2, 16, 17), (21, 3, 32, 49),
                                  (33, 4, 64, 113), (100, 5, 128, 241),
                                  (n, 6, n, 441)):
            vals, vecs = cache.top(k)
            assert (cache.fills, pairs[-1]) == (fills, m)
            assert cache.matvecs_used == used
            assert np.allclose(vals, oracle[:k], atol=tol)
            assert np.max(np.linalg.norm(s @ vecs - vecs * vals,
                                         axis=0)) <= tol
        assert cache.dense_fill and cache.range_dim is None
        assert certified == pairs  # one certificate call per fill

    def test_duplicated_vector_fails_orthonormality(self, monkeypatch):
        # two copies of one eigenvector both have a small residual; only the
        # orthonormality check sees that they do not span two dimensions
        real = ipgm.linalg.subset_eigh

        def duplicating(*args, **kwargs):
            vals, q = real(*args, **kwargs)
            q = q.copy()
            q[:, 0] = q[:, 1]
            vals = vals.copy()
            vals[0] = vals[1]
            return vals, q

        monkeypatch.setattr(ipgm.linalg, "subset_eigh", duplicating)
        rng = np.random.default_rng(306)
        cache = IncrementalEigen(random_symmetric(rng, 120))
        with pytest.raises(EigenSolverError, match="orthonormal"):
            cache.top(3)


def _spy_on_subsets(monkeypatch) -> list:
    """The number of pairs each ``subset_eigh`` call of the eigensolver
    asks for, in call order."""
    pairs = []
    real = ipgm.linalg.subset_eigh

    def spy(a, m):
        pairs.append(m)
        return real(a, m)

    monkeypatch.setattr(ipgm.linalg, "subset_eigh", spy)
    return pairs


def _spy_on_certificates(monkeypatch) -> list:
    """The number of pairs each certificate call of the eigensolver
    checks, in call order."""
    widths = []
    real = IncrementalEigen._certify

    def spy(self, q, vals, source):
        widths.append(q.shape[1])
        return real(self, q, vals, source)

    monkeypatch.setattr(IncrementalEigen, "_certify", spy)
    return widths


def _cold_start_input():
    """V = X0 - alpha grad f(X0) at the cold start X0(0.99) of an n=400
    instance: 20 pairs above an eigenvalue cluster at 0.01/n, inside which
    LAPACK's evr raises LinAlgError for some subset bounds."""
    inst = generate_instance(400, 800, 20, seed=628688073)
    x0 = starting_point(0.99, 400)
    return x0 - constant_alpha_from_gamma(inst.lipschitz_L, 0.0) * (
        inst.gradient(x0))


class TestSubsetEigh:
    """LAPACK's subset driver asked for the top m pairs, with a full
    ``eigh`` when it fails."""

    @pytest.mark.parametrize("m", [16, 32, 64],
                             ids=["subset0", "subset1", "subset2"])
    def test_cluster_input_matches_full_eigh(self, m):
        # 32 and 64 pairs reach into the cluster; whether or not the local
        # LAPACK raises there, the returned pairs are the ones a full eigh
        # gives
        v = _cold_start_input()
        before = v.copy()
        vals, vecs = subset_eigh(v, m)
        assert np.array_equal(v, before)  # the input is not overwritten
        assert vals.size in (m, 400)  # a full eigh returns every pair
        assert np.all(np.diff(vals) <= 0.0)
        vals, vecs = vals[:m], vecs[:, :m]
        ref = np.linalg.eigvalsh(v)[::-1][:m]
        tol = 1e-12 * np.linalg.norm(v)
        assert np.allclose(vals, ref, rtol=0.0, atol=tol)
        assert np.max(np.linalg.norm(v @ vecs - vecs * vals, axis=0)) <= tol
        assert np.allclose(vecs.T @ vecs, np.eye(m), atol=1e-12)

    def test_a_lapack_failure_falls_back_to_full_eigh(self, monkeypatch):
        rng = np.random.default_rng(308)
        s = random_symmetric(rng, 40)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Internal Error.")

        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        vals, vecs = subset_eigh(s, 2)
        ref_vals, ref_vecs = np.linalg.eigh(s)
        assert np.array_equal(vals, ref_vals[::-1])
        assert np.array_equal(np.abs(vecs), np.abs(ref_vecs[:, ::-1]))
        # the eigensolver keeps every pair of the full decomposition
        cache = IncrementalEigen(s)
        assert np.allclose(cache.top(2)[0], ref_vals[::-1][:2], atol=1e-12)
        assert np.allclose(cache.top(40)[0], ref_vals[::-1], atol=1e-12)
        assert cache.fills == 1

    def test_a_short_subset_falls_back_to_full_eigh(self, monkeypatch):
        # evr may return fewer pairs than an index subset asks for
        s = random_symmetric(np.random.default_rng(310), 30)
        real = scipy.linalg.eigh

        def short(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals[1:], vecs[:, 1:]

        monkeypatch.setattr(scipy.linalg, "eigh", short)
        vals, _ = subset_eigh(s, 5)
        assert vals.size == 30
        assert np.allclose(vals, np.linalg.eigvalsh(s)[::-1], atol=1e-12)

    def test_one_pair_for_the_support_point(self, monkeypatch):
        pairs = _spy_on_subsets(monkeypatch)
        certified = _spy_on_certificates(monkeypatch)
        s = random_symmetric(np.random.default_rng(309), 60)
        value, _ = largest_eigenpair(s)
        # a one-pair fill holds no pair ahead to certify
        assert pairs == [1] and certified == [1]
        assert value == pytest.approx(np.linalg.eigvalsh(s)[-1], abs=1e-9)


def _shifted_step(n: int, beta: float, seed: int, alpha: float | None = None):
    """(X0, grad f(X0), V0) at ``structured_start(beta, n)`` of an instance
    with omega 20, V0 = X0 - alpha G0 at the constant step's alpha unless
    one is given."""
    inst = generate_instance(n, 2 * n, 20, seed=seed)
    x0 = structured_start(beta, n)
    _, g = inst.value_and_gradient(x0)
    if alpha is None:
        alpha = constant_alpha_from_gamma(inst.lipschitz_L, 0.0)
    return x0, g, g.step(alpha)


def _first_forcing(rule: str, g) -> tuple[ForcingParams, ToleranceFn]:
    """The first iteration's forcing parameters and phi of a step rule, as
    the harness runs it."""
    if rule == "constant":
        a_0 = SummableSchedule.logarithmic(100.0).a(0)
        return (forcing_for_iteration(g.sq_norm, a_0, GAMMA2_CAP, 0.0),
                ToleranceFn.canonical("phi1"))
    return (ForcingParams(0.0, 0.0, ARMIJO_GAMMA3),
            ToleranceFn.canonical("phi4"))


class TestKrylovFill:
    """The step from a shifted start c I + Y Y^T has no range basis; its top
    pairs come from ``eigsh`` on products with the operator, and a miss
    ends in a LAPACK fill."""

    def test_repeated_fills_are_bit_identical(self, krylov_spy, monkeypatch):
        _, _, op = _shifted_step(200, 0.0, 11)
        ref = np.linalg.eigvalsh(op.dense())[::-1]
        certified = _spy_on_certificates(monkeypatch)
        out = []
        for _ in range(2):
            cache = IncrementalEigen(op)
            vals, vecs = cache.top(12)
            out.append((vals.tobytes(), vecs.tobytes()))
            assert (cache.fills, cache.dense_fill, cache.range_dim) == (
                1, False, None)
            assert _max_abs(vals - ref[:12]) <= cache.tol_abs
            # the fill's products and the certificate's 16: all its pairs
            # are above the shift, and one call certifies them
            assert cache.matvecs_used == krylov_spy.calls[-1][1] + 16
        assert out[0] == out[1]
        assert certified == [16, 16]
        assert [k for k, _ in krylov_spy.calls] == [16, 16]

    @pytest.mark.parametrize("fault", ["no-convergence", "budget",
                                       "random-top"])
    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    def test_a_miss_ends_in_a_lapack_fill(self, fault, rule, krylov_spy,
                                          monkeypatch):
        x0, g, op = _shifted_step(200, 0.5, 12)
        gamma, phi = _first_forcing(rule, g)
        ref = inexact_project_spectrahedron(op, x0, gamma, phi)
        assert (ref.fills, ref.dense_fill, ref.range_dim) == (1, False, None)
        if fault == "budget":
            # 1 product per pair: 16, fewer than ARPACK's first 33 vectors
            monkeypatch.setattr(ipgm.linalg, "_KRYLOV_PRODUCTS", 1)
        else:
            krylov_spy.fault = fault
        pairs = _spy_on_subsets(monkeypatch)
        certified = _spy_on_certificates(monkeypatch)
        res = inexact_project_spectrahedron(op, x0, gamma, phi)
        assert (res.fills, res.dense_fill, res.range_dim) == (2, True, None)
        # a fill whose block failed its certificate leaves the cache empty,
        # as one that computed none does, so the LAPACK fill after it takes
        # the floor of 16
        assert pairs == [16]
        assert certified == ([16] if fault == "random-top" else []) + pairs
        assert krylov_spy.calls[-1][0] == 16
        if fault == "budget":
            assert krylov_spy.calls[-1][1] == 16
        # the spent products count, and the certificates' after them
        assert res.matvecs > krylov_spy.calls[-1][1]
        assert res.rank_used == ref.rank_used
        assert _max_abs(np.asarray(res.point) - np.asarray(ref.point)) <= (
            1e-10)

    def test_a_lapack_refill_doubles_the_krylov_block(self, krylov_spy,
                                                      monkeypatch):
        # V = c I + alpha S with S diagonal: S0 has 20 positive values, so
        # the Krylov fill may ask for 16 pairs, but -c H pulls 8 of them
        # below c and its block holds the 12 above; a request past it gets
        # a LAPACK fill of max(k, 2 * 12, 16) pairs
        n, c, alpha = 60, 0.01, 1.0
        d = np.concatenate([np.linspace(1.0, 0.45, 12),
                            -np.linspace(0.1, 1.0, n - 12)])
        v = c * np.eye(n) + alpha * np.diag(d)
        none = np.zeros((n, 0))
        op = StepOperator(LowRank(none, c), none, none,
                          scipy.sparse.diags(d).tocsr(), alpha,
                          sq_norm=float(np.vdot(v, v)), sq_dist=0.0,
                          s_range=(np.eye(n)[:, :20], np.ones(20)))
        assert op.above_shift == 20
        pairs = _spy_on_subsets(monkeypatch)
        certified = _spy_on_certificates(monkeypatch)
        cache = IncrementalEigen(op)
        cache.top(12)
        assert krylov_spy.calls[-1][0] == 16 and not cache.dense_fill
        vals, vecs = cache.top(13)
        assert pairs == [24] and certified == [12, 24]
        assert (cache.fills, cache.dense_fill) == (2, True)
        assert _max_abs(vals - np.sort(c + alpha * d)[::-1][:13]) <= (
            cache.tol_abs)

    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    @pytest.mark.parametrize("armijo_step", [False, True])
    def test_cluster_start_projects_like_the_dense_path(self, rule,
                                                        armijo_step):
        # X0(0.99) at n=400: V0's multiple eigenvalue sits at c = 0.01/n,
        # under about 20 pairs; constant-step V0 with both rules' forcing
        # parameters (as project-cold takes it), and the Armijo rule's first
        # V0 (alpha 1e10)
        n = 400
        x0, g, op = _shifted_step(n, 0.99, 628688073,
                                  alpha=1e10 if armijo_step else None)
        gamma, phi = _first_forcing(rule, g)
        res = inexact_project_spectrahedron(op, x0, gamma, phi)
        assert (res.dense_fill, res.range_dim) == (False, None)
        v, u = op.dense(), starting_point(0.99, n)
        ref = inexact_project_spectrahedron(v, u, gamma, phi)
        assert res.rank_used == ref.rank_used
        w = np.asarray(res.point)
        assert _max_abs(w - np.asarray(ref.point)) <= 1e-9 * max(
            1.0, _max_abs(w))
        ok, _ = certify_inexact_projection(Spectrahedron(n), u, v, w, gamma,
                                           phi)
        assert ok

    def test_a_request_above_the_bound_skips_the_krylov_fill(
            self, krylov_spy, monkeypatch):
        # V0 has at most S's 20 positive eigenvalues plus r = 1 values above
        # c, so its 22nd value is not above c: top(22) goes straight to a
        # LAPACK fill, with no eigsh call
        n = 200
        _, _, op = _shifted_step(n, 0.5, 12)
        assert op.above_shift == 21
        pairs = _spy_on_subsets(monkeypatch)
        cache = IncrementalEigen(op)
        vals, _ = cache.top(22)
        assert krylov_spy.calls == [] and pairs == [22]
        assert (cache.fills, cache.dense_fill) == (1, True)
        ref = np.linalg.eigvalsh(op.dense())[::-1]
        assert _max_abs(vals - ref[:22]) <= cache.tol_abs

    def test_no_pairs_at_or_below_the_shift(self, monkeypatch):
        # V0 has 19 eigenvalues above c = 1/n and c itself 6 times, which
        # Lanczos from one start vector cannot resolve
        n = 200
        x0, _, op = _shifted_step(n, 0.0, 11)
        ref = np.linalg.eigvalsh(op.dense())[::-1]
        cache = IncrementalEigen(op)
        assert np.sum(ref > x0.shift + cache.tol_abs) == 19
        assert np.sum(np.abs(ref - x0.shift) <= 1e-12) == 6
        vals, _ = cache.top(15)
        assert (cache.fills, cache.dense_fill) == (1, False)
        assert _max_abs(vals - ref[:15]) <= cache.tol_abs
        # the one Krylov fill is spent: LAPACK serves 32 pairs, twice its 16
        pairs = _spy_on_subsets(monkeypatch)
        vals, _ = cache.top(17)
        assert (cache.fills, cache.dense_fill, pairs) == (2, True, [32])
        assert _max_abs(vals - ref[:17]) <= cache.tol_abs
        # given products enough, eigsh returns the 20 pairs that V0's bound
        # on its values above c allows (S's 20 positive eigenvalues, r = 0),
        # certified, the 20th at c; the fill serves no value at or below c,
        # so LAPACK serves top(20)
        assert op.above_shift == 20
        monkeypatch.setattr(ipgm.linalg, "_KRYLOV_PRODUCTS", 10 ** 4)
        cache = IncrementalEigen(op)
        vals, vecs = cache.top(20)
        assert (cache.fills, cache.dense_fill) == (2, True)
        assert _max_abs(vals - ref[:20]) <= cache.tol_abs
        residual = np.linalg.norm(op.dense() @ vecs - vecs * vals, axis=0)
        assert np.max(residual) <= cache.tol_abs


class TestCacheLifetime:
    """A dropped cache is freed by reference counting alone: no fill may
    keep a reference cycle through it, which would hold its arrays until
    the garbage collector runs."""

    @pytest.mark.parametrize("fill", ["range", "krylov", "lapack"])
    def test_a_dropped_cache_is_freed_without_the_collector(self, fill):
        if fill == "range":  # beta 1: the shift is 0 and V has a range basis
            matrix, k = _shifted_step(60, 1.0, 13)[2], 3
        elif fill == "krylov":
            matrix, k = _shifted_step(200, 0.0, 11)[2], 12
        else:
            matrix, k = random_symmetric(np.random.default_rng(24), 60), 3
        enabled = gc.isenabled()
        gc.disable()
        try:
            cache = IncrementalEigen(matrix)
            cache.top(k)
            assert (cache.range_dim is not None, cache.dense_fill) == (
                fill == "range", fill == "lapack")
            ref = weakref.ref(cache)
            del cache
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))
