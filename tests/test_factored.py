"""The factored path of the spectrahedron solves.

Points X = Y Y^T, gradients sym(P Y^T) - S and projection inputs
X - alpha G are kept as factors.  Each is checked against the dense matrix
it stands for, and whole solves are checked against the same solves run
densely from start to end.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import scipy.linalg
import scipy.sparse as sp

import ipgm.sets
from ipgm.linalg import (
    EigenSolverError,
    FactoredGradient,
    IncrementalEigen,
    LowRank,
    StepOperator,
)
from ipgm.problems import generate_instance, starting_point
from ipgm.schedules import ForcingParams, SummableSchedule, ToleranceFn
from ipgm.sets import (
    ExactProjectionAdapter,
    Spectrahedron,
    certify_inexact_projection,
    exact_project_spectrahedron,
    inexact_project_spectrahedron,
)
from ipgm.solver import (
    ArmijoConfig,
    ConstantStepConfig,
    ObjectiveOracle,
    constant_alpha_from_gamma,
    monitor_complexity,
    monitor_descent,
    solve_armijo,
    solve_constant,
)


def _unit_trace_point(rng, n, r) -> LowRank:
    y = rng.standard_normal((n, r))
    return LowRank(y / np.linalg.norm(y))


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


class TestFactoredAlgebra:
    @pytest.mark.parametrize("seed", range(3))
    def test_objective_matches_the_dense_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        inst = generate_instance(40, 80, 5, seed=seed)
        x = _unit_trace_point(rng, 40, 4)
        f, g = inst.value_and_gradient(x)
        f_ref, g_ref = inst.value_and_gradient(x.dense())
        assert isinstance(g, FactoredGradient) and g.point is x
        assert f == pytest.approx(f_ref, rel=1e-13)
        assert _max_abs(g.dense() - g_ref) <= 1e-13 * _max_abs(g_ref)
        assert g.sq_norm == pytest.approx(np.vdot(g_ref, g_ref), rel=1e-12)
        w = _unit_trace_point(rng, 40, 3)
        assert g.inner(w) == pytest.approx(np.vdot(g_ref, w.dense()),
                                           rel=1e-12)
        assert g.inner(x) == pytest.approx(np.vdot(g_ref, x.dense()),
                                           rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_step_operator_is_x_minus_alpha_g(self, seed):
        rng = np.random.default_rng(10 + seed)
        inst = generate_instance(40, 80, 5, seed=seed)
        x = _unit_trace_point(rng, 40, 5)
        _, g = inst.value_and_gradient(x)
        alpha = constant_alpha_from_gamma(inst.lipschitz_L, 0.0)
        op = g.step(alpha)
        ref = x.dense() - alpha * g.dense()
        v = op.dense()
        assert np.array_equal(v, v.T)
        assert _max_abs(v - ref) <= 1e-14 * _max_abs(ref)
        vec = rng.standard_normal(40)
        block = rng.standard_normal((40, 3))
        assert _max_abs(op @ vec - ref @ vec) <= 1e-13 * _max_abs(ref @ vec)
        assert _max_abs(op @ block - ref @ block) <= 1e-13 * _max_abs(
            ref @ block)
        assert op.anchor is x and op.shape == (40, 40)
        assert op.sq_norm == pytest.approx(np.vdot(ref, ref), rel=1e-12)
        assert op.sq_dist == pytest.approx(
            np.vdot(ref - x.dense(), ref - x.dense()), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_step_operator_keeps_s_unscaled(self, seed):
        # a step hands the operator S itself and alpha; the dense forms scale
        # S's entries after they are laid out, with the bits of alpha * S
        rng = np.random.default_rng(30 + seed)
        inst = generate_instance(40, 80, 5, seed=seed)
        x = _unit_trace_point(rng, 40, 3)
        _, g = inst.value_and_gradient(x)
        alpha = constant_alpha_from_gamma(inst.lipschitz_L, 0.0)
        op = g.step(alpha)
        assert op._s is g.s
        s_alpha = alpha * g.s
        z_plus = np.ascontiguousarray(op._z[:, :3])
        z_minus = np.ascontiguousarray(op._z[:, 3:])
        ref = s_alpha.toarray()
        ref += z_plus @ z_plus.T
        ref -= z_minus @ z_minus.T
        assert op.dense().tobytes() == ref.tobytes()
        lower = s_alpha.toarray(order="F")
        for sign, z in ((1.0, z_plus), (-1.0, z_minus)):
            lower = scipy.linalg.blas.dsyrk(sign, z, beta=1.0, c=lower,
                                            lower=1, overwrite_c=1)
        out = op.lower_fortran()
        assert out.flags.f_contiguous
        assert out.tobytes(order="F") == lower.tobytes(order="F")
        dense = op.dense()
        for x_in in (rng.standard_normal(40), rng.standard_normal((40, 4))):
            ref_x = dense @ x_in
            assert _max_abs(op @ x_in - ref_x) <= 1e-13 * _max_abs(ref_x)

    def test_distance_does_not_cancel(self):
        rng = np.random.default_rng(3)
        x = _unit_trace_point(rng, 50, 5)
        rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        # another factor of the same matrix
        assert x.sq_distance(LowRank(x.factor @ rotation)) <= 1e-28
        # a small difference keeps its relative accuracy, where the Gram
        # expansion ||X||^2 - 2 <X, Z> + ||Z||^2 would lose half the digits
        z = LowRank(x.factor @ rotation
                    + 1e-6 * rng.standard_normal((50, 5)))
        ref = np.vdot(x.dense() - z.dense(), x.dense() - z.dense())
        assert x.sq_distance(z) == pytest.approx(ref, rel=1e-8)

    def test_secant_products_match_dense(self):
        rng = np.random.default_rng(4)
        inst = generate_instance(40, 80, 5, seed=4)
        x = _unit_trace_point(rng, 40, 4)
        x_prev = _unit_trace_point(rng, 40, 3)
        _, g = inst.value_and_gradient(x)
        _, g_prev = inst.value_and_gradient(x_prev)
        ss, sy = g.secant(g_prev)
        s = x.dense() - x_prev.dense()
        y = g.dense() - g_prev.dense()
        assert ss == pytest.approx(np.vdot(s, s), rel=1e-12)
        assert sy == pytest.approx(np.vdot(s, y), rel=1e-10)

    def test_dense_arithmetic(self):
        rng = np.random.default_rng(5)
        x, w = _unit_trace_point(rng, 6, 2), _unit_trace_point(rng, 6, 3)
        assert np.array_equal(w - x, w.dense() - x.dense())
        assert np.array_equal(np.asarray(x), x.dense())
        assert np.trace(x) == pytest.approx(1.0, rel=1e-14)


class TestFactoredProjection:
    @pytest.mark.parametrize("seed", range(3))
    def test_operator_input_matches_its_dense_matrix(self, seed):
        rng = np.random.default_rng(20 + seed)
        inst = generate_instance(60, 120, 6, seed=seed)
        x = _unit_trace_point(rng, 60, 4)
        _, g = inst.value_and_gradient(x)
        op = g.step(constant_alpha_from_gamma(inst.lipschitz_L, 0.0))
        gamma = ForcingParams(0.5, 0.2, 0.0)
        phi = ToleranceFn.canonical("phi1")
        fact = inexact_project_spectrahedron(op, x, gamma, phi)
        dense = inexact_project_spectrahedron(op.dense(), x.dense(), gamma,
                                              phi)
        assert isinstance(fact.point, LowRank)
        assert fact.rank_used == dense.rank_used
        assert fact.phi_value == pytest.approx(dense.phi_value, rel=1e-9)
        assert fact.certificate_gap == pytest.approx(dense.certificate_gap,
                                                     rel=1e-6, abs=1e-12)
        assert _max_abs(fact.point - dense.point) <= 1e-9


def _reanchored(g: FactoredGradient, alpha: float, anchor: LowRank
                ) -> StepOperator:
    """g.step(alpha), the same matrix V, with ``anchor`` as its anchor."""
    half = (0.5 * alpha) * g.p
    op = g.step(alpha)
    return StepOperator(anchor, g.point.factor - half, half, g.s, alpha,
                        sq_norm=op.sq_norm, sq_dist=op.sq_dist,
                        s_range=g.s_range)


def _check_exact_projection(op: StepOperator) -> None:
    """The projection of the operator is that of its dense matrix under a
    full eigendecomposition."""
    w = exact_project_spectrahedron(op)
    ref = exact_project_spectrahedron(op.dense())
    assert isinstance(w, LowRank)
    assert w.rank == ref.rank
    assert _max_abs(w.dense() - ref.dense()) <= 1e-12
    assert np.trace(w.dense()) == pytest.approx(1.0, abs=1e-12)


class TestExactProjectionOfOperator:
    """The exact projection of a ``StepOperator`` computes V's top m pairs,
    m one more than the anchor's rank and doubled until the m-th pair gets
    no simplex weight; W is the one a full decomposition gives whatever the
    anchor."""

    def _step(self, seed):
        rng = np.random.default_rng(40 + seed)
        inst = generate_instance(60, 120, 6, seed=seed)
        x = _unit_trace_point(rng, 60, 4)
        _, g = inst.value_and_gradient(x)
        return g, constant_alpha_from_gamma(inst.lipschitz_L, 0.0)

    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    def test_solver_iterates(self, rule):
        ops = []

        @dataclass(frozen=True)
        class Recording(Spectrahedron):
            def exact_project(self, v):
                if isinstance(v, StepOperator):
                    ops.append(v)
                return super().exact_project(v)

        inst = generate_instance(40, 80, 5, seed=36)
        _solve(inst.objective(), Recording(inst.n), inst, rule, "exact", 0.0)
        assert len(ops) > 5
        for op in ops:
            _check_exact_projection(op)

    @pytest.mark.parametrize("seed", range(3))
    def test_anchor_spanning_the_top_eigenvectors(self, seed):
        # the anchor has W's rank k, so the first k + 1 pairs hold every
        # positive weight
        g, alpha = self._step(seed)
        vecs = np.linalg.eigh(g.step(alpha).dense())[1]
        k = exact_project_spectrahedron(g.step(alpha)).rank
        op = _reanchored(g, alpha, LowRank(vecs[:, -k:] / np.sqrt(k)))
        _check_exact_projection(op)

    @pytest.mark.parametrize("seed", range(3))
    def test_anchor_orthogonal_to_the_top_eigenvectors(self, seed):
        # the anchor spans the bottom of the spectrum; only its rank sets
        # the first request
        g, alpha = self._step(seed)
        vecs = np.linalg.eigh(g.step(alpha).dense())[1]
        k = exact_project_spectrahedron(g.step(alpha)).rank
        op = _reanchored(g, alpha, LowRank(vecs[:, :k] / np.sqrt(k)))
        _check_exact_projection(op)

    def test_a_low_rank_anchor_doubles_the_request(self, monkeypatch):
        # a rank-1 anchor asks for 2 pairs; W has a support of at least 4,
        # so the request doubles until its last pair gets weight 0
        g, alpha = self._step(0)
        ref = exact_project_spectrahedron(g.step(alpha).dense())
        assert ref.rank >= 4
        op = _reanchored(g, alpha, LowRank(g.point.factor[:, :1]))
        sizes = []
        real = ipgm.sets.subset_eigh

        def spy(a, m):
            sizes.append(m)
            return real(a, m)

        monkeypatch.setattr(ipgm.sets, "subset_eigh", spy)
        w = exact_project_spectrahedron(op)
        assert sizes == [2, 4, 8, 16, 32, 60][:len(sizes)]
        assert len(sizes) >= 3 and sizes[-1] > ref.rank
        assert w.rank == ref.rank
        assert _max_abs(w.dense() - ref.dense()) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_a_short_lapack_return_falls_back_to_full_eigh(self, seed,
                                                           monkeypatch):
        # LAPACK's evr may return fewer pairs than asked without raising;
        # here it drops the top pair of every subset it computes
        g, alpha = self._step(seed)
        op = g.step(alpha)
        ref = exact_project_spectrahedron(op.dense())
        real = scipy.linalg.eigh
        dropped = []

        def short(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            dropped.append(vals[-1])
            return vals[:-1], vecs[:, :-1]  # ascending: the top pair

        monkeypatch.setattr(scipy.linalg, "eigh", short)
        w = exact_project_spectrahedron(op)
        assert dropped
        assert w.rank == ref.rank
        assert _max_abs(w.dense() - ref.dense()) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_factor_with_duplicated_columns(self, seed):
        # an Armijo trial [sqrt(1 - t) Y, sqrt(t) Y] of a point with itself
        # has a rank-deficient factor and twice the columns of W's rank
        g, alpha = self._step(seed)
        y = g.point.factor
        stacked = LowRank(np.hstack([np.sqrt(0.7) * y, np.sqrt(0.3) * y]))
        assert np.linalg.matrix_rank(stacked.factor) < stacked.rank
        _check_exact_projection(_reanchored(g, alpha, stacked))


def _check_against_eigh(cache: IncrementalEigen, op: StepOperator,
                        k: int) -> None:
    """``top(k)`` agrees with a dense ``eigh`` of the operator's matrix
    within the residual tolerance, and its pairs pass the certificate."""
    vals, vecs = cache.top(k)
    dense = op.dense()
    ref = np.linalg.eigvalsh(dense)[::-1][:k]
    assert _max_abs(vals - ref) <= cache.tol_abs
    assert np.all(np.diff(vals) <= 0.0)
    residual = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
    assert np.max(residual) <= cache.tol_abs
    assert _max_abs(vecs.T @ vecs - np.eye(k)) <= 1e-12


def _rank_s(inst) -> int:
    """Columns of the instance's basis of S's range."""
    return inst._linear_term[3][0].shape[1]


def _lsq_step(seed: int, factor: np.ndarray):
    """An instance with a range basis (n=120, omega 5) and the step
    operator at the point with the given factor."""
    inst = generate_instance(120, 240, 5, seed=seed)
    _, g = inst.value_and_gradient(LowRank(factor))
    return inst, g.step(constant_alpha_from_gamma(inst.lipschitz_L, 0.0))


class TestRangeFill:
    """Top eigenpairs of V = Z+ Z+^T - Z- Z-^T + alpha S from an orthonormal
    basis [Q_S, Q_Z] of its range, k = rank S + 2 r columns."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_factored_points(self, seed):
        rng = np.random.default_rng(60 + seed)
        x = _unit_trace_point(rng, 120, 4)
        inst, op = _lsq_step(seed, x.factor)
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 3)
        _check_against_eigh(cache, op, 7)  # extends the same fill
        rank_s = _rank_s(inst)
        assert cache.range_dim == rank_s + 2 * 4
        # top(3) certifies pairs 1-4 and top(7) pairs 5-8: one pair ahead
        assert cache.fills == 1 and cache.matvecs_used == 8
        assert not cache.dense_fill

    def test_basis_is_orthonormal_on_constant_step_inputs(self):
        # Z's part outside range(S) is numerically rank-deficient on many
        # constant-step inputs, so the first QR pads with columns that lean
        # on Q_S; after the second pass [Q_S, Q_Z] is orthonormal to
        # rounding and every fill matches eigh
        ops = []

        @dataclass(frozen=True)
        class Recording(Spectrahedron):
            def inexact_project(self, v, u, gamma, phi, state=None):
                if isinstance(v, StepOperator):
                    ops.append(v)
                return super().inexact_project(v, u, gamma, phi, state)

        inst = generate_instance(60, 120, 6, seed=2)
        _solve(inst.objective(), Recording(inst.n), inst, "constant",
               "inexact", 0.0)
        assert len(ops) > 10
        for op in ops:
            q = op.range_ritz()[1]
            assert _max_abs(q.T @ q - np.eye(q.shape[1])) <= 1e-13
            cache = IncrementalEigen(op)
            _check_against_eigh(cache, op, 4)
            assert cache.range_dim == q.shape[1] and not cache.dense_fill

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_rank_deficient_factors(self, seed):
        # an Armijo trial [sqrt(1 - t) Y, sqrt(t) Y] of a point with itself:
        # Z has duplicated directions and its QR pads with columns that lean
        # on Q_S until they are projected again
        y = _unit_trace_point(np.random.default_rng(70 + seed), 120, 3).factor
        stacked = np.hstack([np.sqrt(0.7) * y, np.sqrt(0.3) * y])
        assert np.linalg.matrix_rank(stacked) < stacked.shape[1]
        inst, op = _lsq_step(seed, stacked)
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 6)
        assert cache.range_dim == _rank_s(inst) + 2 * 6

    def test_fewer_positive_eigenvalues_than_requested(self):
        # V = Z+ Z+^T - Z- Z-^T - E_J E_J^T has two positive eigenvalues,
        # n - 13 zeros and the rest negative; T holds no zero, so its third
        # value is negative and must not be reported
        n, rng = 60, np.random.default_rng(80)
        cols = np.arange(10)
        q_s, mu = np.eye(n)[:, cols], -np.ones(cols.size)
        s = sp.csr_matrix((mu, (cols, cols)), shape=(n, n))
        z_plus = rng.standard_normal((n, 2))
        z_minus = rng.standard_normal((n, 1))
        dense = s.toarray() + z_plus @ z_plus.T - z_minus @ z_minus.T

        def operator():
            return StepOperator(LowRank(z_plus), z_plus, z_minus, s, 1.0,
                                sq_norm=float(np.vdot(dense, dense)),
                                sq_dist=0.0, s_range=(q_s, mu))

        vals_t = operator().range_ritz()[0]
        assert vals_t.size == 13 and vals_t[2] < -0.5
        served = IncrementalEigen(operator())
        _check_against_eigh(served, operator(), 2)
        # the third value does not serve, so no pair ahead is certified
        assert served.range_dim == 13 and served.matvecs_used == 2
        # the request reaches V's zero eigenvalues: a LAPACK fill serves it
        cache = IncrementalEigen(operator())
        _check_against_eigh(cache, operator(), 4)
        assert cache.range_dim is None and cache.dense_fill
        assert np.all(cache.top(4)[0][2:] > -cache.tol_abs)

    def test_a_basis_without_s_fails_the_certificate(self):
        # a range fill that drops Q_S misses alpha S: its pairs are wrong,
        # and the residual certificate refuses them
        x = _unit_trace_point(np.random.default_rng(90), 120, 4)
        _, op = _lsq_step(0, x.factor)
        n = op.shape[0]
        op.s_range = (np.empty((n, 0)), np.empty(0))
        with pytest.raises(EigenSolverError, match="range fill") as exc:
            IncrementalEigen(op).top(3)
        assert exc.value.best_residual > 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_basis_reproduces_s(self, seed):
        inst = generate_instance(120, 240, 5, seed=seed)
        s, _, _, (q_s, mu) = inst._linear_term
        s = s.toarray()
        assert _max_abs(q_s.T @ q_s - np.eye(mu.size)) <= 1e-13
        assert np.linalg.norm((q_s * mu) @ q_s.T - s) <= (
            1e-13 * np.linalg.norm(s))


class TestRangeFillFallback:
    """The range fill takes every basis of fewer than n columns, however
    wide; inputs it does not take (a basis of n or more columns, a dense
    input) get a LAPACK fill.  Both certify."""

    GAMMA = ForcingParams(0.5, 0.2, 0.0)
    PHI = ToleranceFn.canonical("phi1")

    def _project(self, v, x):
        res = inexact_project_spectrahedron(v, x, self.GAMMA, self.PHI)
        ok, _ = certify_inexact_projection(Spectrahedron(x.shape[0]),
                                           np.asarray(x), np.asarray(v),
                                           np.asarray(res.point), self.GAMMA,
                                           self.PHI)
        assert ok
        return res

    def test_wide_b_gets_a_basis(self):
        # omega 20 at n=120: B has about 40 nonzero columns, over n/4
        inst = generate_instance(120, 240, 20, seed=3)
        rank_s = _rank_s(inst)
        assert rank_s > 120 // 4
        x = _unit_trace_point(np.random.default_rng(91), 120, 4)
        _, g = inst.value_and_gradient(x)
        res = self._project(g.step(constant_alpha_from_gamma(
            inst.lipschitz_L, 0.0)), x)
        assert res.range_dim == rank_s + 2 * 4 and not res.dense_fill

    def test_wide_factor_takes_the_range_fill(self):
        # rank S + 2 r over n/4 with a basis at hand
        x = _unit_trace_point(np.random.default_rng(92), 120, 12)
        inst, op = _lsq_step(1, x.factor)
        rank_s = _rank_s(inst)
        assert rank_s + 2 * 12 > 120 // 4
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 6)
        assert cache.range_dim == rank_s + 2 * 12 and not cache.dense_fill
        res = self._project(op, x)
        assert res.range_dim == rank_s + 2 * 12 and not res.dense_fill

    @pytest.mark.parametrize("extra", [-1, 0, 2])
    def test_a_basis_of_n_columns_gets_a_lapack_fill(self, extra):
        # k = rank S + 2 r = n - 1 takes the range fill; k >= n cannot be an
        # orthonormal basis, so LAPACK serves
        n, r = 30, 2
        rng = np.random.default_rng(94)
        rank_s = min(n, n - 2 * r + extra)
        q_s = np.linalg.qr(rng.standard_normal((n, rank_s)))[0]
        mu = rng.uniform(-1.0, 1.0, rank_s)
        s = sp.csr_matrix((q_s * mu) @ q_s.T)
        x = _unit_trace_point(rng, n, r)
        z_plus = x.factor + 0.1 * rng.standard_normal((n, r))
        z_minus = 0.1 * rng.standard_normal((n, r))

        def operator():
            dense = s.toarray() + z_plus @ z_plus.T - z_minus @ z_minus.T
            return StepOperator(x, z_plus, z_minus, s, 1.0,
                                sq_norm=float(np.vdot(dense, dense)),
                                sq_dist=float(np.sum((dense - x.dense())**2)),
                                s_range=(q_s, mu))

        cache = IncrementalEigen(operator())
        _check_against_eigh(cache, operator(), 5)
        if extra < 0:
            assert cache.range_dim == n - 1 and not cache.dense_fill
        else:
            assert cache.range_dim is None and cache.dense_fill
        self._project(operator(), x)

    def test_dense_input(self):
        x = _unit_trace_point(np.random.default_rng(93), 120, 2)
        _, op = _lsq_step(2, x.factor)
        fact = self._project(op, x)
        dense = self._project(op.dense(), x.dense())
        assert fact.range_dim is not None and dense.range_dim is None
        assert fact.rank_used == dense.rank_used
        assert _max_abs(fact.point - dense.point) <= 1e-9

    def test_exact_solve_survives_a_lapack_failure(self, monkeypatch):
        # the exact projection's subset call raises; the full eigh that
        # serves instead gives the same run
        inst = generate_instance(120, 240, 5, seed=5)
        ref = _solve(inst.objective(), inst.feasible_set(), inst, "armijo",
                     "exact", 0.0)
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            raise np.linalg.LinAlgError("Internal Error.")

        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        res = _solve(inst.objective(), inst.feasible_set(), inst, "armijo",
                     "exact", 0.0)
        # every projection but the dense start's takes the subset call
        assert len(calls) >= res.iterations - 1 > 0
        assert (res.iterations, res.stop_reason) == (ref.iterations,
                                                     ref.stop_reason)
        assert abs(res.f_final - ref.f_final) <= 1e-12 * abs(ref.f_final)
        assert monitor_descent(res).passed and monitor_complexity(res).passed


@dataclass(frozen=True)
class DenseSpectrahedron(Spectrahedron):
    """Hands every projection back as a dense array, so that a solve runs
    the dense path from start to end."""

    def inexact_project(self, v, u, gamma, phi, state=None):
        assert not isinstance(v, StepOperator)
        res = super().inexact_project(v, u, gamma, phi, state=state)
        return replace(res, point=np.asarray(res.point))

    def exact_project(self, v):
        assert not isinstance(v, StepOperator)
        return np.asarray(super().exact_project(v))


def _solve(obj, cset, inst, rule, proj, beta, **armijo):
    if proj == "exact":
        cset = ExactProjectionAdapter(cset)
    x0 = starting_point(beta, inst.n)
    if rule == "constant":
        cfg = ConstantStepConfig(
            alpha=constant_alpha_from_gamma(inst.lipschitz_L, 0.0),
            schedule=SummableSchedule.logarithmic(100.0), max_iter=5000)
        return solve_constant(obj, cset, x0, cfg)
    return solve_armijo(obj, cset, x0, ArmijoConfig(max_iter=2000, **armijo))


def _factored_against_dense(inst, rule, proj, beta, **armijo):
    """Solve on both paths, check they agree, and return the factored run
    with the points its objective calls received."""
    seen = []

    def value_and_gradient(x):
        seen.append(x)
        return inst.value_and_gradient(x)

    obj = replace(inst.objective(), value_and_gradient=value_and_gradient)
    fact = _solve(obj, inst.feasible_set(), inst, rule, proj, beta, **armijo)
    dense = _solve(inst.objective(), DenseSpectrahedron(inst.n), inst, rule,
                   proj, beta, **armijo)
    # the start is dense; the factored path takes over once projections
    # return factors of rank below n/4 (a cold exact projection, or an
    # Armijo trial from the start, can still be dense)
    assert not isinstance(seen[0], LowRank)
    assert 2 * sum(isinstance(x, LowRank) for x in seen) > len(seen)
    assert fact.iterations == dense.iterations > 0
    assert fact.stop_reason == dense.stop_reason
    assert abs(fact.f_final - dense.f_final) <= 1e-12 * abs(dense.f_final)
    assert np.linalg.norm(fact.x_final - dense.x_final) <= (
        1e-10 * np.linalg.norm(dense.x_final))
    for res in (fact, dense):
        assert monitor_descent(res).passed and monitor_complexity(res).passed
    return fact, seen


class TestFactoredSolvesMatchDense:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    @pytest.mark.parametrize("proj", ["inexact", "exact"])
    def test_same_run(self, seed, beta, rule, proj):
        inst = generate_instance(40, 80, 5, seed=seed)
        _, seen = _factored_against_dense(inst, rule, proj, beta)
        assert isinstance(seen[-1], LowRank)

    def test_backtracking_armijo_keeps_trials_factored(self):
        # sigma = 0.9 rejects trial points, so the trials at tau < 1 are the
        # combinations [sqrt(1 - tau) Y_x, sqrt(tau) Y_w] of two factors
        inst = generate_instance(60, 120, 6, seed=34)
        fact, seen = _factored_against_dense(inst, "armijo", "inexact", 0.0,
                                             sigma=0.9)
        assert sum(r.backtracks for r in fact.records) > 0
        widest = max(x.rank for x in seen if isinstance(x, LowRank))
        assert widest > max(r.p_used for r in fact.records)


def test_custom_objective_reads_factored_points_densely():
    # f(X) = 1/2 ||X - C||^2 is minimized over the spectrahedron at the
    # projection of C; the oracle does plain numpy arithmetic on X
    rng = np.random.default_rng(35)
    n = 30
    c = rng.standard_normal((n, n))
    c = (c + c.T) / 4.0
    seen = []

    def value_and_gradient(x):
        seen.append(isinstance(x, LowRank))
        d = x - c
        return 0.5 * float(np.vdot(d, d)), d

    obj = ObjectiveOracle(value_and_gradient, lipschitz_L=1.0)
    res = solve_armijo(obj, Spectrahedron(n), starting_point(0.0, n),
                       ArmijoConfig(stop_tol=1e-10))
    assert any(seen)
    ref = np.asarray(exact_project_spectrahedron(c))
    assert np.linalg.norm(res.x_final - ref) <= 1e-6
