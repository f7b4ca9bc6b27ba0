"""The factored path of the spectrahedron solves.

Points X = Y Y^T, gradients sym(P Y^T) - S and projection inputs
X - alpha G are kept as factors.  Each is checked against the dense matrix
it stands for, and whole solves are checked against the same solves run
densely from start to end.
"""

import gc
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

import scipy.linalg
import scipy.sparse as sp

import ipgm.harness
import ipgm.linalg
import ipgm.sets
import ipgm.solver
from ipgm.harness import ARMIJO_GAMMA3, run_variant
from ipgm.linalg import (
    EigenSolverError,
    FactoredGradient,
    IncrementalEigen,
    LowRank,
    StepOperator,
    frobenius_inner,
)
from ipgm.problems import generate_instance, starting_point, structured_start
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
    spectral_step,
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
        # the operator's factors [Y, B], B = Y - alpha P
        y, b = op._z[:, :3], op._z[:, 3:]
        assert np.array_equal(y, x.factor)
        assert np.array_equal(b, x.factor - alpha * g.p)
        ref = b @ y.T
        ref = ref + ref.T
        ref *= 0.5
        ref += s_alpha.toarray()
        assert op.dense().tobytes() == ref.tobytes()
        lower = scipy.linalg.blas.dsyr2k(0.5, b, y, beta=1.0,
                                         c=s_alpha.toarray(order="F"),
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
    y = g.point.factor
    op = g.step(alpha)
    return StepOperator(anchor, y, y - alpha * g.p, g.s, alpha,
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


def _step_operators(inst, rule: str) -> list[StepOperator]:
    """The step operators an inexact solve from X0(0) projects."""
    ops = []

    @dataclass(frozen=True)
    class Recording(Spectrahedron):
        def inexact_project(self, v, u, gamma, phi, state=None):
            if isinstance(v, StepOperator):
                ops.append(v)
            return super().inexact_project(v, u, gamma, phi, state)

    _solve(inst.objective(), Recording(inst.n), inst, rule, "inexact", 0.0)
    return ops


def _range_operator(q_s, mu, y, b, alpha: float) -> StepOperator:
    """V = alpha S + sym(B Y^T) at the point Y Y^T, S = Q_S diag(mu) Q_S^T
    for an orthonormal Q_S: a range basis of rank S + 2 r columns."""
    s = sp.csr_matrix((q_s * mu) @ q_s.T)
    dense = alpha * s.toarray() + 0.5 * (b @ y.T + y @ b.T)
    return StepOperator(LowRank(y), y, b, s, alpha,
                        sq_norm=float(np.vdot(dense, dense)), sq_dist=0.0,
                        s_range=(q_s, mu))


def _dstein_calls(monkeypatch) -> list:
    """(vectors asked for, info) of every ``dstein`` call a range fill
    makes."""
    calls = []
    real = ipgm.linalg.dstein

    def spy(d, e, w, *args):
        z, info = real(d, e, w, *args)
        calls.append((w.size, info))
        return z, info

    monkeypatch.setattr(ipgm.linalg, "dstein", spy)
    return calls


def _eigh_calls(monkeypatch) -> list:
    """The shapes of the matrices passed to ``np.linalg.eigh``."""
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestRangeFill:
    """Top eigenpairs of V = sym(B Y^T) + alpha S from an orthonormal basis
    [Q_S, Q_Z] of its range, k = rank S + 2 r columns."""

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
        # top(3) computes and certifies pairs 1-4, one pair ahead; top(7)
        # reaches past them, so the same fill recomputes pairs 1-8 in one
        # call and certifies all of them again
        assert cache.fills == 1 and cache.matvecs_used == 4 + 8
        assert not cache.dense_fill

    def test_basis_is_orthonormal_on_constant_step_inputs(self):
        # Z's part outside range(S) is numerically rank-deficient on many
        # constant-step inputs, so the first QR pads with columns that lean
        # on Q_S; after the second pass [Q_S, Q_Z] is orthonormal to
        # rounding and every fill matches eigh
        ops = _step_operators(generate_instance(60, 120, 6, seed=2),
                              "constant")
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
        # V = Z+ Z+^T - Z- Z-^T - E_J E_J^T (Z+, Z- of 2 columns each) has
        # two positive eigenvalues, n - 14 zeros and the rest negative; as
        # sym(B Y^T) with Y = Z+ + Z- and B = Z+ - Z-, its basis has
        # 10 + 2 r = 14 columns and T holds no zero, so its third value is
        # negative and must not be reported
        n, rng = 60, np.random.default_rng(80)
        cols = np.arange(10)
        q_s, mu = np.eye(n)[:, cols], -np.ones(cols.size)
        s = sp.csr_matrix((mu, (cols, cols)), shape=(n, n))
        z_plus = rng.standard_normal((n, 2))
        z_minus = rng.standard_normal((n, 2))
        dense = s.toarray() + z_plus @ z_plus.T - z_minus @ z_minus.T

        def operator():
            return StepOperator(LowRank(z_plus), z_plus + z_minus,
                                z_plus - z_minus, s, 1.0,
                                sq_norm=float(np.vdot(dense, dense)),
                                sq_dist=0.0, s_range=(q_s, mu))

        assert _max_abs(operator().dense() - dense) <= 1e-14 * _max_abs(dense)
        vals_t = operator().range_ritz()[0]
        assert vals_t.size == 14 and vals_t[2] < -0.5
        served = IncrementalEigen(operator())
        _check_against_eigh(served, operator(), 2)
        # the pair after the positive ones is a zero: the block carries the
        # first zero as its pair ahead, and certifies 2 + 1 pairs
        assert served.range_dim == 14 and served.matvecs_used == 3
        # the request reaches V's zero eigenvalues: the range fill serves
        # them from a complement of its basis, and certifies 3 zeros in the
        # block of 2 + 3 pairs
        cache = IncrementalEigen(operator())
        _check_against_eigh(cache, operator(), 4)
        assert cache.range_dim == 14 and not cache.dense_fill
        assert cache.fills == 1 and cache.matvecs_used == 5
        vals, vecs = cache.top(4)
        assert np.array_equal(vals[2:], np.zeros(2))
        q = operator().range_ritz()[1]
        assert _max_abs(q.T @ vecs[:, 2:]) <= 1e-14
        # the positive pairs are eigh's, up to the sign of each vector
        ref_vecs = np.linalg.eigh(dense)[1][:, ::-1][:, :2]
        assert _max_abs(np.abs(np.sum(vecs[:, :2] * ref_vecs, axis=0))
                        - 1.0) <= 1e-10

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


    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    def test_pairs_match_eigh_on_solver_inputs(self, rule, monkeypatch):
        # every step a solve projects, asked for one more pair at a time as
        # the rank-p projector asks; the range fill's vectors come from
        # inverse iteration on T's tridiagonal form, and none falls back
        calls = _dstein_calls(monkeypatch)
        ops = _step_operators(generate_instance(60, 120, 6, seed=3), rule)
        assert len(ops) >= 10
        for op in ops:
            cache = IncrementalEigen(op)
            assert cache.range_dim is not None
            for k in range(1, 8):
                _check_against_eigh(cache, op, k)
        assert calls and all(info == 0 for _, info in calls)

    def test_an_exactly_repeated_top_eigenvalue(self, monkeypatch):
        # mu = 2 three times on coordinates that Y and B miss: T is block
        # diagonal with its top value 2 alpha exactly threefold.  top(1)
        # computes two vectors of the cluster; top(3) recomputes all of
        # them in one call, so the cluster's vectors are orthonormal
        calls = _dstein_calls(monkeypatch)
        n, rng = 40, np.random.default_rng(81)
        q_s = np.eye(n)[:, :5]
        mu = np.array([2.0, 2.0, 2.0, 1.0, -1.0])
        y, b = np.zeros((n, 2)), np.zeros((n, 2))
        y[5:] = 0.1 * rng.standard_normal((n - 5, 2))
        b[5:] = y[5:] + 0.05 * rng.standard_normal((n - 5, 2))
        op = _range_operator(q_s, mu, y, b, 0.5)
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 1)
        _check_against_eigh(cache, op, 3)
        _check_against_eigh(cache, op, 5)
        assert _max_abs(cache.top(3)[0] - 1.0) <= 1e-14
        assert cache.range_dim == 9 and not cache.dense_fill
        assert calls == [(2, 0), (4, 0), (6, 0)]

    def test_a_request_past_the_computed_vectors_recomputes_them(
            self, monkeypatch):
        # the first request computes one vector ahead; each request past
        # the computed ones recomputes the top max(j, 2 m) and certifies
        # them all again, within the same fill
        calls = _dstein_calls(monkeypatch)
        x = _unit_trace_point(np.random.default_rng(91), 120, 4)
        inst, op = _lsq_step(1, x.factor)
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 1)  # computes 2, certifies 2
        _check_against_eigh(cache, op, 3)  # computes 4, certifies 4
        _check_against_eigh(cache, op, 5)  # computes 8, certifies 6
        _check_against_eigh(cache, op, 7)  # certifies 7-8 only
        assert [m for m, _ in calls] == [2, 4, 8]
        assert cache.matvecs_used == 2 + 4 + 6 + 2
        assert cache.range_dim == _rank_s(inst) + 2 * 4
        assert cache.fills == 1 and not cache.dense_fill

    def test_a_dstein_failure_falls_back_to_one_eigh(self, monkeypatch):
        x = _unit_trace_point(np.random.default_rng(92), 120, 4)
        _, op = _lsq_step(2, x.factor)
        ref = IncrementalEigen(op)
        ref_vals, ref_vecs = ref.top(6)

        def failing(d, e, w, *args):
            return np.zeros((d.size, w.size), order="F"), 1

        monkeypatch.setattr(ipgm.linalg, "dstein", failing)
        eighs = _eigh_calls(monkeypatch)
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 2)
        # the eigh gave every vector of T: no request calls it again
        _check_against_eigh(cache, op, 6)
        assert eighs == [(ref.range_dim,) * 2]
        vals, vecs = cache.top(6)
        assert np.array_equal(vals, ref_vals)
        assert _max_abs(np.abs(np.sum(vecs * ref_vecs, axis=0)) - 1.0) <= (
            1e-10)
        assert (cache.fills, cache.dense_fill, cache.range_dim) == (
            1, False, ref.range_dim)

    def test_a_dsterf_failure_serves_the_fill_from_one_eigh(
            self, monkeypatch):
        x = _unit_trace_point(np.random.default_rng(92), 120, 4)
        _, op = _lsq_step(2, x.factor)
        monkeypatch.setattr(ipgm.linalg, "dsterf", lambda d, e: (d, 1))
        eighs = _eigh_calls(monkeypatch)
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 2)
        _check_against_eigh(cache, op, 6)
        assert eighs == [(cache.range_dim,) * 2]
        assert cache.fills == 1 and not cache.dense_fill

    def test_a_request_past_the_zeros_reaches_the_negative_values(self):
        # a basis of n - 1 columns leaves V one zero; every request, up to
        # all n pairs, is served by the one range fill: T's positive values,
        # the zero, then T's other values
        n, r = 30, 2
        rng = np.random.default_rng(95)
        q_s = np.linalg.qr(rng.standard_normal((n, n - 2 * r - 1)))[0]
        mu = rng.uniform(-1.0, 1.0, q_s.shape[1])
        y = 0.3 * rng.standard_normal((n, r))
        b = y + 0.1 * rng.standard_normal((n, r))
        op = _range_operator(q_s, mu, y, b, 1.0)
        cache = IncrementalEigen(op)
        positive = int(np.count_nonzero(op.range_ritz()[0] > 0.0))
        assert 0 < positive < n - 2
        for k in (positive, positive + 1, positive + 3, n):
            _check_against_eigh(cache, op, k)
        assert cache.top(n)[0][positive] == 0.0
        assert (cache.fills, cache.dense_fill, cache.range_dim) == (
            1, False, n - 1)

    def test_a_value_within_the_tolerance_comes_before_the_zeros(self):
        # mu = 1e-12 on a coordinate that Y and B miss: T's value alpha
        # 1e-12 is positive but within the residual tolerance, so a request
        # for it reaches past the values served first, and the block lists
        # it before V's zeros
        n, rng = 40, np.random.default_rng(82)
        q_s = np.eye(n)[:, :4]
        mu = np.array([2.0, 1.0, 1e-12, -1.0])
        y, b = np.zeros((n, 2)), np.zeros((n, 2))
        y[4:] = 0.1 * rng.standard_normal((n - 4, 2))
        b[4:] = y[4:] + 0.05 * rng.standard_normal((n - 4, 2))
        op = _range_operator(q_s, mu, y, b, 0.5)
        vals_t = op.range_ritz()[0]
        served = int(np.count_nonzero(vals_t > 1e-9))
        assert abs(vals_t[served] - 0.5e-12) <= 1e-15
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, served)
        _check_against_eigh(cache, op, served + 2)
        vals = cache.top(served + 2)[0]
        assert vals[served] == vals_t[served] and vals[served + 1] == 0.0
        assert cache.fills == 1 and not cache.dense_fill

    def test_a_doubled_block_runs_past_the_tolerance(self, monkeypatch):
        # T's 4 values above the tolerance, then alpha 1e-12, then V's
        # zeros: top(2) computes 3 vectors; top(4) doubles the block to
        # V's top 6 pairs, which cross the tolerance into T's small value
        # and one zero, with T's 5 vectors from one call
        calls = _dstein_calls(monkeypatch)
        n, rng = 40, np.random.default_rng(82)
        q_s = np.eye(n)[:, :4]
        mu = np.array([2.0, 1.0, 1e-12, -1.0])
        y, b = np.zeros((n, 2)), np.zeros((n, 2))
        y[4:] = 0.1 * rng.standard_normal((n - 4, 2))
        b[4:] = y[4:] + 0.05 * rng.standard_normal((n - 4, 2))
        op = _range_operator(q_s, mu, y, b, 0.5)
        vals_t = op.range_ritz()[0]
        assert np.count_nonzero(vals_t > 1e-9) == 4
        assert np.count_nonzero(vals_t > 0.0) == 5
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 2)
        _check_against_eigh(cache, op, 4)
        assert calls == [(3, 0), (5, 0)]
        assert cache.matvecs_used == 3 + 6
        # the block of 6 serves top(6) with no other call or certificate
        _check_against_eigh(cache, op, 6)
        vals = cache.top(6)[0]
        assert np.array_equal(vals[:5], vals_t[:5]) and vals[5] == 0.0
        assert calls == [(3, 0), (5, 0)] and cache.matvecs_used == 3 + 6
        assert cache.fills == 1 and not cache.dense_fill

    def test_an_operator_with_no_positive_value(self, monkeypatch):
        # V = alpha S with S negative semidefinite: its top pairs are zeros,
        # served from the complement of the basis with no vector of T; a
        # request past the zeros computes T's vectors
        calls = _dstein_calls(monkeypatch)
        n, r = 40, 0
        q_s = np.eye(n)[:, :6]
        mu = -np.arange(1.0, 7.0)
        y = np.zeros((n, r))
        op = _range_operator(q_s, mu, y, y, 0.5)
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 1)
        _check_against_eigh(cache, op, 3)
        assert np.array_equal(cache.top(3)[0], np.zeros(3)) and calls == []
        _check_against_eigh(cache, op, n - 5)
        assert cache.top(n - 5)[0][-1] == -0.5 and calls
        assert (cache.fills, cache.dense_fill, cache.range_dim) == (
            1, False, 6)

    @pytest.mark.parametrize("rank_s, r", [(1, 0), (0, 1)])
    def test_bases_of_one_and_two_columns(self, rank_s, r):
        n, rng = 30, np.random.default_rng(93)
        q_s, mu = np.eye(n)[:, :rank_s], np.full(rank_s, 2.0)
        y = rng.standard_normal((n, r))
        b = y + 0.5 * rng.standard_normal((n, r))
        op = _range_operator(q_s, mu, y, b, 0.5)
        cache = IncrementalEigen(op)
        _check_against_eigh(cache, op, 1)
        assert cache.range_dim == rank_s + 2 * r and not cache.dense_fill


class TestRangeFillFallback:
    """The range fill takes every basis of fewer than n columns, however
    wide; inputs it does not take (a basis of n or more columns, a dense
    input) get a LAPACK fill.  Both certify."""

    GAMMA = ForcingParams(0.5, 0.2, 0.0)
    PHI = ToleranceFn.canonical("phi1")

    def _project(self, v, x, p_start=1):
        res = inexact_project_spectrahedron(v, x, self.GAMMA, self.PHI,
                                            p_start=p_start)
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
            # sym(B Y^T) with Y = Z+ + Z- and B = Z+ - Z- is
            # Z+ Z+^T - Z- Z-^T, from 2 r columns
            dense = s.toarray() + z_plus @ z_plus.T - z_minus @ z_minus.T
            return StepOperator(x, z_plus + z_minus, z_plus - z_minus, s, 1.0,
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

    def test_a_rank_past_the_positive_values(self, monkeypatch):
        # started two ranks past V's positive values, the projector reads
        # V's zeros from the range fill, and no LAPACK fill runs
        x = _unit_trace_point(np.random.default_rng(96), 120, 4)
        _, op = _lsq_step(0, x.factor)
        vals_t = op.range_ritz()[0]
        positive = int(np.count_nonzero(vals_t > 0.0))
        assert vals_t.size < 120 - 3
        calls = []
        real = ipgm.linalg.subset_eigh

        def spy(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(ipgm.linalg, "subset_eigh", spy)
        fact = inexact_project_spectrahedron(op, x, self.GAMMA, self.PHI,
                                             p_start=positive + 2)
        assert calls == []
        monkeypatch.undo()
        ok, _ = certify_inexact_projection(
            Spectrahedron(120), x.dense(), op.dense(), fact.point.dense(),
            self.GAMMA, self.PHI)
        assert ok
        assert fact.rank_used == positive + 2 and fact.fills == 1
        assert fact.range_dim == vals_t.size and not fact.dense_fill
        dense = self._project(op.dense(), x.dense(), p_start=positive + 2)
        assert dense.dense_fill and dense.rank_used == fact.rank_used
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


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class TestShiftedStart:
    """X0(beta) = (1 - beta)/n I + beta e1 e1^T held as c I + Y Y^T: every
    closed form the solvers read at the start agrees with the dense
    matrix, and whole solves from it agree with solves from the dense
    start."""

    N = 40

    def _start(self, beta, seed=36):
        inst = generate_instance(self.N, 2 * self.N, 5, seed=seed)
        x0 = structured_start(beta, self.N)
        return inst, x0, starting_point(beta, self.N)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.99, 1.0])
    def test_point(self, beta):
        _, x0, dense = self._start(beta)
        assert isinstance(x0, LowRank) and x0.shift == (1.0 - beta) / self.N
        assert x0.rank == (1 if beta else 0)
        assert _max_abs(x0.dense() - dense) <= 1e-15
        assert _rel(x0.sq_norm, np.vdot(dense, dense)) <= 1e-12
        assert _rel(x0.trace, 1.0) <= 1e-12
        q = np.linalg.qr(np.random.default_rng(1).standard_normal(
            (self.N, 5)))[0]
        ref = np.einsum("ij,ij->j", q, dense @ q)
        assert _max_abs(x0.quad_diag(q) - ref) <= 1e-12 * _max_abs(ref)
        cset = Spectrahedron(self.N)
        assert cset.contains(x0) and cset.contains(dense)
        # a trace off by 1e-6, and a negative shift, are refused like the
        # dense matrices they stand for
        for bad in (LowRank(x0.factor, x0.shift + 1e-6 / self.N),
                    LowRank(np.sqrt(1.0 + 1e-6 * self.N) * np.eye(self.N, 1),
                            -1e-6)):
            assert not cset.contains(bad) and not cset.contains(bad.dense())

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
    def test_objective_and_gradient(self, beta):
        inst, x0, dense = self._start(beta)
        f, g = inst.value_and_gradient(x0)
        f_ref, g_ref = inst.value_and_gradient(dense)
        assert isinstance(g, FactoredGradient) and g.point is x0
        assert g.s_range is inst._linear_term[3]
        assert _rel(f, f_ref) <= 1e-12
        assert _max_abs(g.dense() - g_ref) <= 1e-12 * _max_abs(g_ref)
        assert _rel(g.sq_norm, np.vdot(g_ref, g_ref)) <= 1e-12
        assert _rel(g.inner(x0), np.vdot(g_ref, dense)) <= 1e-12
        w = _unit_trace_point(np.random.default_rng(2), self.N, 3)
        assert _rel(g.inner(w), np.vdot(g_ref, w.dense())) <= 1e-12
        d = w.dense() - dense
        for sq in (w.sq_distance(x0), x0.sq_distance(w)):
            assert _rel(sq, np.vdot(d, d)) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("at", ["unshifted", "shifted"])
    def test_inner_with_a_shifted_point(self, seed, at):
        # <G, W> for W = c I + Z Z^T with c != 0 adds c tr G, whether or not
        # G's own point is shifted
        rng = np.random.default_rng(50 + seed)
        inst = generate_instance(self.N, 2 * self.N, 5, seed=seed)
        x = (_unit_trace_point(rng, self.N, 4) if at == "unshifted"
             else structured_start(0.5, self.N))
        _, g = inst.value_and_gradient(x)
        g_dense = g.dense()
        for w in (structured_start(0.5, self.N),
                  LowRank(rng.standard_normal((self.N, 3)), 0.3 / self.N)):
            ref = frobenius_inner(g_dense, w.dense())
            assert _rel(g.inner(w), ref) <= 1e-12

    def test_toward_stacks_only_unshifted_points(self):
        # an Armijo trial between two unshifted points stays factored, with
        # shift 0 however the points were built; with a shifted one it is
        # formed densely
        t = 0.3
        rng = np.random.default_rng(6)
        w = _unit_trace_point(rng, self.N, 3)
        for x in (_unit_trace_point(rng, self.N, 2),
                  LowRank(np.eye(self.N, 1), 0.0)):
            mid = ipgm.solver._toward(x, w, t)
            assert isinstance(mid, LowRank)
            assert mid.shift == 0.0 and mid.rank == x.rank + w.rank
            ref = x.dense() + t * (w.dense() - x.dense())
            assert _max_abs(mid.dense() - ref) <= 1e-15
        x0 = structured_start(0.5, self.N)
        for a, b in ((x0, w), (w, x0)):
            mid = ipgm.solver._toward(a, b, t)
            assert isinstance(mid, np.ndarray)
            a_dense = a.dense()
            assert mid.tobytes() == (
                a_dense + t * (b.dense() - a_dense)).tobytes()

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("armijo_step", [False, True])
    def test_step_operator(self, beta, armijo_step):
        # the Armijo rule's first step is alpha_max = 1e10, where factors
        # Y - (alpha/2) P and (alpha/2) P would cancel in Z+ Z+^T - Z- Z-^T
        inst, x0, dense = self._start(beta)
        _, g = inst.value_and_gradient(x0)
        g_ref = inst.value_and_gradient(dense)[1]
        alpha = (1e10 if armijo_step
                 else constant_alpha_from_gamma(inst.lipschitz_L, 0.0))
        op = g.step(alpha)
        ref = dense - alpha * g_ref
        assert op.anchor is x0 and op.s_range is inst._linear_term[3]
        assert op.range_ritz() is None
        vec = np.random.default_rng(3).standard_normal((self.N, 2))
        assert _max_abs(op @ vec - ref @ vec) <= 1e-12 * _max_abs(ref @ vec)
        assert _max_abs(op.dense() - ref) <= 1e-12 * _max_abs(ref)
        assert _rel(op.sq_norm, np.vdot(ref, ref)) <= 1e-12
        assert _rel(op.sq_dist, np.vdot(ref - dense, ref - dense)) <= 1e-12
        lower = op.lower_fortran()
        assert _max_abs(np.tril(lower) - np.tril(ref)) <= 1e-12 * _max_abs(
            ref)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
    def test_first_spectral_step(self, beta):
        # Armijo at k = 1: the secant pair from a factored X1 back to the
        # shifted start, against the dense spectral step
        inst, x0, dense = self._start(beta)
        _, g0 = inst.value_and_gradient(x0)
        x1 = _unit_trace_point(np.random.default_rng(4), self.N, 2)
        _, g1 = inst.value_and_gradient(x1)
        ss, sy = g1.secant(g0)
        s_ref = x1.dense() - dense
        y_ref = g1.dense() - inst.value_and_gradient(dense)[1]
        assert _rel(ss, np.vdot(s_ref, s_ref)) <= 1e-12
        assert _rel(sy, np.vdot(s_ref, y_ref)) <= 1e-12
        assert _rel(ss / sy, spectral_step(s_ref, y_ref, 1e-10, 1e10)) <= (
            1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("rule", ["constant", "armijo"])
    @pytest.mark.parametrize("proj", ["inexact", "exact"])
    def test_solves_match_the_dense_start(self, beta, rule, proj):
        inst = generate_instance(self.N, 2 * self.N, 5, seed=31)
        cset = inst.feasible_set()
        if proj == "exact":
            cset = ExactProjectionAdapter(cset)
        runs = []
        for start in (structured_start, starting_point):
            x0 = start(beta, self.N)
            if rule == "constant":
                cfg = ConstantStepConfig(
                    alpha=constant_alpha_from_gamma(inst.lipschitz_L, 0.0),
                    schedule=SummableSchedule.logarithmic(100.0),
                    max_iter=5000)
                runs.append(solve_constant(inst.objective(), cset, x0, cfg))
            else:
                runs.append(solve_armijo(inst.objective(), cset, x0,
                                         ArmijoConfig(max_iter=2000)))
        fact, dense = runs
        assert fact.iterations == dense.iterations > 0
        assert [r.p_used for r in fact.records] == [
            r.p_used for r in dense.records]
        assert _rel(fact.f_final, dense.f_final) <= 1e-12
        # the result's x0 is the dense start
        assert isinstance(fact.x0, np.ndarray)
        assert _max_abs(fact.x0 - dense.x0) <= 1e-15
        assert monitor_descent(fact).passed and monitor_complexity(
            fact).passed

    def test_the_harness_starts_structured(self):
        # run_variant (the benchmark's and ipgm compare's entry) passes the
        # structured start: the first projection takes the Krylov fill, the
        # second the range fill
        inst = generate_instance(120, 240, 20, seed=5)
        result, _ = run_variant(inst, "constant", "inexact", 0.0, 0.0,
                                SummableSchedule.logarithmic(100.0), 1e-4,
                                5000)
        first, second = result.records[:2]
        assert (first.range_dim, first.dense_fill, first.fills) == (
            None, False, 1)
        assert first.matvecs > first.p_used + 1
        assert second.range_dim is not None and not second.dense_fill
        assert isinstance(result.x0, np.ndarray)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("algo", ["constant", "armijo"])
    def test_at_small_n_the_first_fill_is_krylov(
            self, beta, algo, krylov_spy, monkeypatch):
        # n=40: the first step from the structured start takes one Krylov
        # fill, and the run matches the dense start's.  The Armijo rule's
        # V0 at beta 0.5 has 5 values far above c and its 6th (the bound)
        # within 5e-8 of c, which ARPACK resolves only after 291 products:
        # the budget of 128 runs out and LAPACK serves
        inst = generate_instance(self.N, 2 * self.N, 5, seed=31)
        missed = (algo, beta) == ("armijo", 0.5)
        gamma3 = 0.0 if algo == "constant" else ARMIJO_GAMMA3
        runs = []
        for start in (structured_start, starting_point):
            monkeypatch.setattr(ipgm.harness, "structured_start", start)
            runs.append(run_variant(inst, algo, "inexact", beta, gamma3,
                                    SummableSchedule.logarithmic(100.0),
                                    1e-4, 5000)[0])
        fact, dense = runs
        assert isinstance(fact.start, LowRank)
        first = fact.records[0]
        assert (first.range_dim, first.dense_fill, first.fills) == (
            (None, True, 2) if missed else (None, False, 1))
        assert len(krylov_spy.calls) == 1
        assert fact.iterations == dense.iterations > 0
        assert [r.p_used for r in fact.records] == [
            r.p_used for r in dense.records]

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("algo", ["constant", "armijo"])
    def test_few_values_above_the_shift_take_one_krylov_fill(
            self, beta, algo, krylov_spy):
        # omega 10 at n=200: V0 has at most S's 10 positive eigenvalues plus
        # r values above c, fewer than 16; the first Krylov fill asks for
        # that many and serves the first projection
        n = 200
        inst = generate_instance(n, 2 * n, 10, seed=1)
        _, g = inst.value_and_gradient(structured_start(beta, n))
        bound = g.step(1.0).above_shift
        assert bound == 10 + (1 if beta else 0)
        gamma3 = 0.0 if algo == "constant" else ARMIJO_GAMMA3
        result, _ = run_variant(inst, algo, "inexact", beta, gamma3,
                                SummableSchedule.logarithmic(100.0), 1e-4,
                                5000)
        first = result.records[0]
        assert first.fills == 1 and first.dense_fill is False
        assert first.range_dim is None
        assert [k for k, _ in krylov_spy.calls] == [bound]
        assert monitor_descent(result).passed and monitor_complexity(
            result).passed

    def test_a_small_count_keeps_the_budget_of_sixteen_pairs(self,
                                                            krylov_spy):
        # omega 10 at n=200, seed 3: the Armijo rule's V0 at beta 0.5 asks
        # for 11 pairs, and ARPACK keeps 20 Lanczos vectors for them; a
        # budget of 8 products per pair asked for (88) ran out, the one of
        # 16 pairs (128) serves
        n = 200
        inst = generate_instance(n, 2 * n, 10, seed=3)
        result, _ = run_variant(inst, "armijo", "inexact", 0.5,
                                ARMIJO_GAMMA3,
                                SummableSchedule.logarithmic(100.0), 1e-4,
                                5000)
        first = result.records[0]
        assert first.fills == 1 and first.dense_fill is False
        ((pairs, products),) = krylov_spy.calls
        assert pairs == 11 and 88 < products <= 128


class TestZeroShiftStart:
    """X0 = e1 e1^T (beta = 1) held as a ``LowRank``: the Armijo rule's
    first step, alpha = alpha_max = 1e10, is formed from B = Y - alpha P,
    with no term of order alpha^2 to cancel."""

    @pytest.mark.parametrize("start", ["low_rank", "structured"])
    def test_the_first_armijo_step_matches_the_dense_matrix(self, start):
        n = 60
        inst = generate_instance(n, 2 * n, 4, seed=1)
        x0 = (LowRank(np.eye(n, 1)) if start == "low_rank"
              else structured_start(1.0, n))
        assert isinstance(x0, LowRank)
        _, g = inst.value_and_gradient(x0)
        dense = starting_point(1.0, n)
        ref = dense - 1e10 * inst.value_and_gradient(dense)[1]
        op = g.step(1e10)
        scale = _max_abs(ref)
        assert _max_abs(op.dense() - ref) <= 1e-14 * scale
        assert _max_abs(np.tril(op.lower_fortran()) - np.tril(ref)) <= (
            1e-14 * scale)
        vec = np.random.default_rng(5).standard_normal((n, 2))
        assert _max_abs(op @ vec - ref @ vec) <= 1e-14 * _max_abs(ref @ vec)

    @pytest.mark.parametrize("start", ["low_rank", "structured"])
    def test_an_exact_solve_takes_the_count_path_at_iteration_0(
            self, start, monkeypatch):
        # the shift, not how the point was built, picks the exact
        # projection's path: the first step from e1 e1^T asks LAPACK for the
        # anchor's rank plus one pairs, like any iterate's
        n = 120
        inst = generate_instance(n, 2 * n, 8, seed=1)
        x0 = (LowRank(np.eye(n, 1), 0.0) if start == "low_rank"
              else structured_start(1.0, n))
        projections = [0]
        calls = []  # (projection number, pairs asked for)

        @dataclass(frozen=True)
        class Recording(Spectrahedron):
            def exact_project(self, v):
                projections[0] += 1
                return super().exact_project(v)

        real = ipgm.sets.subset_eigh

        def spy(a, m):
            calls.append((projections[0], m))
            return real(a, m)

        monkeypatch.setattr(ipgm.sets, "subset_eigh", spy)
        cfg = ConstantStepConfig(
            alpha=constant_alpha_from_gamma(inst.lipschitz_L, 0.0),
            schedule=SummableSchedule.logarithmic(100.0), max_iter=3)
        res = solve_constant(inst.objective(),
                             ExactProjectionAdapter(Recording(n)), x0, cfg)
        assert res.iterations == projections[0] == 3
        assert calls[0] == (1, 2)
        assert {k for k, _ in calls} == {1, 2, 3}

    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("omega", [4, 10])
    def test_armijo_from_a_rank_one_start(self, n, omega):
        inst = generate_instance(n, 2 * n, omega, seed=1)
        cfg = ArmijoConfig(gamma3_bar=ARMIJO_GAMMA3, max_iter=5000,
                           stop_tol=1e-4)
        res = solve_armijo(inst.objective(), inst.feasible_set(),
                           LowRank(np.eye(n, 1)), cfg)
        ref = solve_armijo(inst.objective(), inst.feasible_set(),
                           starting_point(1.0, n), cfg)
        assert res.stop_reason == ref.stop_reason == "converged"
        assert res.iterations == ref.iterations
        assert _rel(res.f_final, ref.f_final) <= 1e-12
        assert monitor_descent(res).passed and monitor_complexity(res).passed


def _retained(make):
    """(what ``make()`` returns, the bytes it still holds after
    ``gc.collect()``, as ``tracemalloc`` counts them)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestResultMemory:
    """A result holds its start and final iterate as the solve held them,
    and an instance its planted Xbar as CSR; the dense matrices are formed
    on access, a new array each time."""

    N = 200

    @pytest.mark.parametrize("algo", ["constant", "armijo"])
    def test_a_result_holds_no_dense_matrix(self, algo):
        n = self.N
        inst = generate_instance(n, 2 * n, 20, seed=41)
        gamma3 = 0.0 if algo == "constant" else ARMIJO_GAMMA3

        def solve():
            return run_variant(inst, algo, "inexact", 0.0, gamma3,
                               SummableSchedule.logarithmic(100.0), 1e-4,
                               5000)[0]

        solve()  # the instance's cached S and any lazy import, untraced
        result, held = _retained(solve)
        # a dense x_final and x0 alone hold n^2 8 bytes each
        assert held < n * n * 8 / 2
        assert isinstance(result.final_point, LowRank)
        assert isinstance(result.start, LowRank)
        for name, point in (("x_final", result.final_point),
                            ("x0", result.start)):
            dense = getattr(result, name)
            assert dense.tobytes() == point.dense().tobytes()
            dense += 1.0
            again = getattr(result, name)
            assert again is not dense
            assert again.tobytes() == point.dense().tobytes()

    def test_an_instance_keeps_x_bar_sparse(self):
        n, omega = self.N, 10
        generate_instance(n, 2 * n, omega, seed=40)  # lazy imports, untraced
        inst, held = _retained(
            lambda: generate_instance(n, 2 * n, omega, seed=41))
        assert held < n * n * 8 / 2
        assert inst.x_bar_csr.format == "csr"
        assert inst.x_bar_csr.nnz <= 4 * omega
        dense = inst.x_bar
        assert dense.tobytes() == inst.x_bar_csr.toarray().tobytes()
        dense += 1.0
        assert np.count_nonzero(inst.x_bar) <= 4 * omega
