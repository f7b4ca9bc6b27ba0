import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ipgm.linalg import frobenius_inner, frobenius_norm, symmetrize
from ipgm.schedules import ForcingParams, ToleranceFn
from ipgm.sets import (
    Box,
    ExactProjectionAdapter,
    Spectrahedron,
    certify_inexact_projection,
    exact_project_box,
    exact_project_spectrahedron,
    inexact_project_spectrahedron,
    project_simplex,
    support_point_spectrahedron,
)

PHI1 = ToleranceFn.canonical("phi1")
PHI4 = ToleranceFn.canonical("phi4")


def simplex_oracle_kkt(d):
    """Brute-force support enumeration for the simplex projection.

    For every candidate support size over the sorted entries, solve the
    equality-constrained least squares in closed form and keep the KKT-
    feasible candidate with the smallest distance.
    """
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
        # KKT: multipliers of the dropped coordinates must be nonnegative
        if k < p and np.max(d[order[k:]]) > theta + 1e-13:
            continue
        dist = np.linalg.norm(x - d)
        if dist < best_dist:
            best, best_dist = x, dist
    return best


def simplex_oracle_exhaustive(d):
    """Projection by full enumeration of supports (tiny p only)."""
    d = np.asarray(d, dtype=float)
    p = d.size
    best, best_dist = None, np.inf
    for r in range(1, p + 1):
        for sel in itertools.combinations(range(p), r):
            sel = list(sel)
            theta = (np.sum(d[sel]) - 1.0) / r
            x = np.zeros(p)
            x[sel] = d[sel] - theta
            if np.min(x[sel]) < -1e-12:
                continue
            dist = np.linalg.norm(x - d)
            if dist < best_dist - 1e-15:
                best, best_dist = x, dist
    return best


def _unit_trace_with_lambda_min(rng, n, lam_min):
    """An exactly symmetric matrix of trace 1 whose smallest eigenvalue is
    ``lam_min`` (to rounding), in a random eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.concatenate([[lam_min],
                        (1.0 - lam_min) * rng.dirichlet(np.ones(n - 1))])
    return symmetrize((q * d) @ q.T)


def random_feasible_spectra(rng, n):
    """Random member of the spectrahedron via random eigenbasis + simplex point."""
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = rng.dirichlet(np.ones(n))
    return (q * lam) @ q.T


class TestProjectSimplex:
    def test_fixed_point(self):
        assert np.allclose(project_simplex([0.3, 0.7]), [0.3, 0.7])

    def test_vertex(self):
        assert np.allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_symmetry(self):
        assert np.allclose(project_simplex([0.0, 0.0]), [0.5, 0.5])
        assert np.allclose(project_simplex([1.0, 1.0, 1.0]), np.ones(3) / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex([])

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            p = int(rng.integers(1, 13))
            d = rng.uniform(-3, 3, size=p) * float(rng.uniform(0.1, 10))
            x = project_simplex(d)
            ref = simplex_oracle_kkt(d)
            assert np.allclose(x, ref, atol=1e-10)
            assert np.sum(x) == pytest.approx(1.0, abs=1e-12)
            assert np.min(x) >= 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(150):
            p = int(rng.integers(1, 8))
            d = rng.uniform(-2, 2, size=p)
            assert np.allclose(project_simplex(d), simplex_oracle_exhaustive(d),
                               atol=1e-10)


def simplex_reference_bisection(d):
    """Projection onto the simplex by bisection on the threshold theta of
    sum(max(d - theta, 0)) = 1, which lies in [min(d) - 1, max(d)]."""
    lo, hi = float(np.min(d)) - 1.0, float(np.max(d))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.sum(np.maximum(d - mid, 0.0)) > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(d - 0.5 * (lo + hi), 0.0)


class TestProjectSimplexProperty:
    @settings(max_examples=300, deadline=None)
    @given(d=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=50))
    def test_feasible_and_matches_bisection(self, d):
        d = np.array(d)
        x = project_simplex(d)
        assert np.min(x) >= 0.0
        assert abs(np.sum(x) - 1.0) <= 1e-12 * max(1.0, np.sum(np.abs(d)))
        assert np.max(np.abs(x - simplex_reference_bisection(d))) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(w=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50)
           .filter(lambda w: sum(w) > 1e-3))
    def test_simplex_points_unchanged(self, w):
        d = np.array(w) / np.sum(w)
        assert np.max(np.abs(project_simplex(d) - d)) <= 1e-12


def simplex_sort_cumsum(d):
    """The sort-and-threshold projection through numpy's wrappers
    (``np.sort``, ``np.cumsum``, ``np.nonzero``), the reference that
    ``project_simplex`` must match bit for bit."""
    d = np.asarray(d, dtype=float).ravel()
    p = d.size
    u = np.sort(d)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, p + 1)
    support = u - (css - 1.0) / ks > 0
    k = int(np.nonzero(support)[0][-1]) + 1
    theta = (css[k - 1] - 1.0) / k
    return np.maximum(d - theta, 0.0)


@st.composite
def simplex_inputs(draw):
    """Vectors of 1 to 3000 entries: all equal, drawn from a handful of
    values (ties, signed zeros), or free."""
    p = draw(st.integers(1, 3000))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["equal", "ties", "free"]))
    if kind == "equal":
        return np.full(p, draw(values))
    if kind == "ties":
        pool = np.array(draw(st.lists(values | st.sampled_from([0.0, -0.0]),
                                      min_size=1, max_size=4)))
        seed = draw(st.integers(0, 2**32 - 1))
        return pool[np.random.default_rng(seed).integers(0, pool.size, p)]
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(1e-6, 1e6))
    return scale * np.random.default_rng(seed).standard_normal(p)


class TestProjectSimplexBits:
    """The projection's trimmed calls leave its formula, and its bits, as
    the wrapper form computes them."""

    @settings(max_examples=300, deadline=None)
    @given(d=simplex_inputs())
    def test_matches_the_wrapper_form_bytewise(self, d):
        assert (project_simplex(d).tobytes()
                == simplex_sort_cumsum(d).tobytes())

    @pytest.mark.parametrize("p", [1, 2, 6, 3000])
    def test_all_equal_entries(self, p):
        for c in (-2.5, 0.0, 1.0 / p, 7.0):
            d = np.full(p, c)
            x = project_simplex(d)
            assert x.tobytes() == simplex_sort_cumsum(d).tobytes()
            assert np.all(x == x[0])


class TestProjectSimplexNonFinite:
    """A non-finite entry is a ValueError that says so, with no warning on
    the way."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("p", [1, 5])
    def test_direct(self, bad, p):
        d = np.linspace(-1.0, 1.0, p)
        d[p // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                project_simplex(d)

    def test_nan_and_both_infinities_together(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_simplex([np.inf, 0.3, -np.inf, np.nan])


class TestSimpleSets:
    def test_box_clamp(self):
        assert np.allclose(exact_project_box([2.0, -1.0], 0.0, 1.0), [1.0, 0.0])

    def test_oracle_objects_roundtrip(self):
        box = Box.make(np.zeros(2), np.ones(2))
        assert box.contains([0.5, 0.5])
        assert not box.contains([1.5, 0.5])
        assert np.allclose(box.support_point([1.0, -2.0]), [1.0, 0.0])

    def test_support_point_variational_inequality(self):
        # exact projection satisfies <v - Pv, y - Pv> <= 0 at support points
        rng = np.random.default_rng(9)
        box = Box.make(-np.ones(4), np.ones(4))
        for _ in range(50):
            v = rng.uniform(-3, 3, size=4)
            w = box.exact_project(v)
            y = box.support_point(v - w)
            assert frobenius_inner(v - w, y - w) <= 1e-12

    def test_box_rejects_a_lower_bound_above_the_upper(self):
        with pytest.raises(ValueError, match="invalid box bounds"):
            Box.make(np.ones(2), np.array([2.0, 0.5]))

    def test_default_inexact_is_exact(self):
        box = Box.make(np.zeros(2), np.ones(2))
        res = box.inexact_project([2.0, 0.5], np.zeros(2), ForcingParams(), PHI1)
        assert np.allclose(res.point, [1.0, 0.5])
        assert res.certificate_gap is not None and res.certificate_gap <= 1e-12


class TestSpectrahedronExact:
    def test_feasible_fixed_point(self):
        n = 5
        v = np.eye(n) / n
        assert np.allclose(exact_project_spectrahedron(v), v, atol=1e-12)

    def test_diagonal(self):
        w = exact_project_spectrahedron(np.diag([2.0, 0.0]))
        assert np.allclose(w, np.diag([1.0, 0.0]), atol=1e-12)

    def test_symmetrizes_first(self):
        w = exact_project_spectrahedron([[1.0, 5.0], [-5.0, 1.0]])
        assert np.allclose(w, np.diag([0.5, 0.5]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_properties(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(3, 20))
        v = symmetrize(rng.standard_normal((n, n)))
        w = exact_project_spectrahedron(v)
        assert np.trace(w) == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(w)) >= -1e-10
        # variational inequality against the support point
        y = support_point_spectrahedron(v - w)
        assert frobenius_inner(v - w, y - w) <= 1e-8

    def test_spectrahedron_contains(self):
        s = Spectrahedron(4)
        assert s.contains(np.eye(4) / 4)
        assert not s.contains(np.eye(4))
        assert not s.contains(np.diag([1.5, -0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("feas_tol", [1e-9, 1e-6])
    def test_spectrahedron_contains_near_the_psd_boundary(self, feas_tol):
        n = 8
        rng = np.random.default_rng(310)
        s = Spectrahedron(n)

        def with_lambda_min(lam):
            return _unit_trace_with_lambda_min(rng, n, lam)

        assert s.contains(with_lambda_min(-0.5 * feas_tol), feas_tol)
        assert not s.contains(with_lambda_min(-2.0 * feas_tol), feas_tol)
        x = with_lambda_min(0.0)
        assert s.contains(x, feas_tol)
        skew = rng.standard_normal((n, n))
        assert not s.contains(x + 10.0 * feas_tol * (skew - skew.T), feas_tol)
        assert not s.contains(x * (1.0 + 10.0 * feas_tol), feas_tol)
        assert not s.contains(x[:-1, :-1], feas_tol)
        for i, j in ((0, 0), (1, 2)):
            bad = x.copy()
            bad[i, j] = bad[j, i] = np.nan
            assert not s.contains(bad, feas_tol)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           feas_tol=st.sampled_from([1e-9, 1e-8, 1e-6]),
           offset=st.floats(-3.0, 3.0))
    def test_spectrahedron_contains_agrees_with_eigvalsh(self, n, seed,
                                                         feas_tol, offset):
        # the Cholesky test decides lambda_min >= -feas_tol as eigvalsh does,
        # away from rounding at the boundary
        x = _unit_trace_with_lambda_min(np.random.default_rng(seed), n,
                                        -feas_tol * (1.0 + offset))
        lam_min = float(np.linalg.eigvalsh(x)[0])
        assume(abs(lam_min + feas_tol) > 1e-12)
        assert Spectrahedron(n).contains(x, feas_tol) == (lam_min >= -feas_tol)


class TestExactProjectionProperty:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.01, 100.0), full_rank=st.booleans())
    def test_positive_part_matches_full_product(self, n, seed, scale,
                                                full_rank):
        # The projector multiplies only the eigenvectors with positive
        # simplex weight; the reference multiplies all n.  A spectrum spread
        # by less than 1/n about its mean keeps every weight positive.
        rng = np.random.default_rng(seed)
        if full_rank:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = rng.uniform(-scale, scale) + (0.5 / n) * rng.random(n)
            v = (q * d) @ q.T
        else:
            v = scale * rng.standard_normal((n, n))
        evals, evecs = np.linalg.eigh(symmetrize(v))
        lam = project_simplex(evals)
        if full_rank:
            assert np.count_nonzero(lam) == n
        reference = (evecs * lam) @ evecs.T
        w = exact_project_spectrahedron(v)
        assert np.max(np.abs(w - reference)) <= 1e-13 * max(
            1.0, frobenius_norm(v))


class TestSupportPointSpectrahedron:
    def test_diagonal_direction(self):
        y = support_point_spectrahedron(np.diag([0.4, -0.4]))
        assert np.allclose(y, np.diag([1.0, 0.0]), atol=1e-9)

    def test_zero_direction(self):
        y = support_point_spectrahedron(np.zeros((3, 3)))
        assert np.trace(y) == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(y)) >= -1e-12

    def test_maximizes_over_samples(self):
        rng = np.random.default_rng(40)
        c = symmetrize(rng.standard_normal((8, 8)))
        y = support_point_spectrahedron(c)
        val = frobenius_inner(c, y)
        for _ in range(1000):
            cand = random_feasible_spectra(rng, 8)
            assert val >= frobenius_inner(c, cand) - 1e-8
        # agrees with the dense-eigendecomposition oracle
        assert val == pytest.approx(np.max(np.linalg.eigvalsh(c)), abs=1e-9)


class TestInexactProjectSpectrahedron:
    def test_rank1_immediate_accept(self):
        res = inexact_project_spectrahedron(
            np.diag([2.0, 0.0]), np.diag([1.0, 0.0]), ForcingParams(),
            PHI1, p_start=1)
        assert res.rank_used == 1
        assert np.allclose(res.point, np.diag([1.0, 0.0]), atol=1e-10)
        assert res.certificate_gap <= 1e-10

    def test_feasible_input_needs_rank2(self):
        v = np.diag([0.6, 0.4, 0.0])
        res = inexact_project_spectrahedron(
            v, np.eye(3) / 3, ForcingParams(), PHI1, p_start=1)
        assert res.rank_used == 2
        assert np.allclose(res.point, v, atol=1e-9)

    def test_relative_tolerance_accepts_rank1(self):
        v = np.diag([0.6, 0.4, 0.0])
        u = np.zeros((3, 3))
        u[2, 2] = 1.0
        res = inexact_project_spectrahedron(
            v, u, ForcingParams(0.0, 0.0, 0.45), PHI4, p_start=1)
        assert res.rank_used == 1
        assert np.allclose(res.point, np.diag([1.0, 0.0, 0.0]), atol=1e-9)

    def test_gamma_zero_collapse(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(3, 31))
            v = symmetrize(rng.standard_normal((n, n)))
            u = random_feasible_spectra(rng, n)
            res = inexact_project_spectrahedron(v, u, ForcingParams(),
                                                PHI1, p_start=1)
            ref = exact_project_spectrahedron(v)
            assert frobenius_norm(res.point - ref) < 1e-7

    @pytest.mark.parametrize("p_start", [1, 2, 5, 12])
    def test_symmetrizes_a_nonsymmetric_input(self, p_start):
        # solver inputs are symmetric; a caller's V need not be
        rng = np.random.default_rng(23)
        v = rng.standard_normal((12, 12))
        assert np.max(np.abs(v - v.T)) > 1.0
        u = random_feasible_spectra(rng, 12)
        res = inexact_project_spectrahedron(v, u, ForcingParams(), PHI1,
                                            p_start=p_start)
        ref = exact_project_spectrahedron(symmetrize(v))
        assert np.max(np.abs(res.point - ref)) <= 1e-10

    def test_certificates_always_pass(self):
        rng = np.random.default_rng(78)
        s = Spectrahedron(8)
        for _ in range(40):
            v = symmetrize(rng.standard_normal((8, 8)))
            u = random_feasible_spectra(rng, 8)
            g = ForcingParams(float(rng.uniform(0, 1)),
                              float(rng.uniform(0, 0.49)),
                              float(rng.uniform(0, 0.49)))
            res = inexact_project_spectrahedron(v, u, g, PHI1, p_start=1)
            ok, gap = certify_inexact_projection(s, u, v, res.point, g, PHI1)
            assert ok, f"certificate gap {gap}"
            assert s.contains(res.point, feas_tol=1e-8)

    def test_monotone_effort_in_gamma(self):
        rng = np.random.default_rng(79)
        v = symmetrize(rng.standard_normal((12, 12)))
        u = random_feasible_spectra(rng, 12)
        for idx in range(3):
            ranks = []
            for t in np.linspace(0.0, 0.49, 6):
                g = [0.0, 0.0, 0.0]
                g[idx] = float(t) if idx else 4.0 * float(t)
                res = inexact_project_spectrahedron(v, u, ForcingParams(*g),
                                                    PHI1, p_start=1)
                ranks.append(res.rank_used)
            assert all(ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1)), \
                f"gamma{idx + 1} sweep gave ranks {ranks}"

    def test_warm_state_roundtrip(self):
        rng = np.random.default_rng(80)
        s = Spectrahedron(10)
        v = symmetrize(rng.standard_normal((10, 10)))
        u = random_feasible_spectra(rng, 10)
        res = s.inexact_project(v, u, ForcingParams(), PHI1, state=None)
        assert res.state == max(1, res.rank_used - 1)
        v2 = v + 1e-3 * symmetrize(rng.standard_normal((10, 10)))
        res2 = s.inexact_project(v2, res.point, ForcingParams(), PHI1,
                                 state=res.state)
        ref2 = exact_project_spectrahedron(v2)
        assert frobenius_norm(res2.point - ref2) < 1e-7

    def test_records_a_dense_fill_below_full_rank(self):
        # n <= 16: the first LAPACK fill computes every pair, although the
        # accepted rank is small
        n = 15
        rng = np.random.default_rng(83)
        v = symmetrize(rng.standard_normal((n, n)))
        res = inexact_project_spectrahedron(v, random_feasible_spectra(rng, n),
                                            ForcingParams(1.0, 0.4, 0.4),
                                            PHI1, p_start=1)
        assert res.dense_fill is True
        # the fill certifies all 15 pairs it computed
        assert (res.rank_used, res.fills, res.matvecs) == (1, 1, 15)

    def test_records_lapack_products(self):
        n = 120
        rng = np.random.default_rng(84)
        v = symmetrize(rng.standard_normal((n, n)))
        res = inexact_project_spectrahedron(v, np.eye(n) / n,
                                            ForcingParams(1.0, 0.4, 0.4),
                                            PHI1, p_start=1)
        assert res.dense_fill is True
        # one fill of 16 pairs, all certified when it computes them
        assert (res.rank_used, res.fills, res.matvecs) == (1, 1, 16)
        assert res.range_dim is None  # a dense input has no range basis

    @pytest.mark.parametrize("p_start", [1, 3])
    def test_records_the_ranks_tried(self, p_start):
        # eight equal top eigenvalues: a zero budget accepts only rank 8
        n = 60
        q, _ = np.linalg.qr(np.random.default_rng(85).standard_normal((n, n)))
        d = np.concatenate([np.full(8, 0.2), np.linspace(-1.0, 0.0, n - 8)])
        res = inexact_project_spectrahedron(symmetrize((q * d) @ q.T),
                                            np.eye(n) / n,
                                            ForcingParams(), PHI1,
                                            p_start=p_start)
        assert res.rank_used == 8
        assert res.ranks_tried == 8 - p_start + 1

    def test_exact_adapter_records_no_eigensolver_work(self):
        n = 10
        v = symmetrize(np.random.default_rng(86).standard_normal((n, n)))
        res = ExactProjectionAdapter(Spectrahedron(n)).inexact_project(
            v, np.eye(n) / n, ForcingParams(), PHI1)
        assert (res.ranks_tried, res.range_dim, res.matvecs) == (None,) * 3

    def test_p_start_bounds(self):
        with pytest.raises(ValueError):
            inexact_project_spectrahedron(np.eye(3), np.eye(3) / 3,
                                          ForcingParams(), PHI1, p_start=0)

    def test_dense_fallback_is_exact_projection(self):
        # a flat positive spectrum keeps every eigenvalue in the support of
        # the exact projection, so at zero tolerance each partial rank is
        # rejected until p = n, the full decomposition
        n = 20
        rng = np.random.default_rng(81)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v = (q * (0.05 + 1e-3 * np.arange(n))) @ q.T
        u = np.eye(n) / n
        res = inexact_project_spectrahedron(v, u, ForcingParams(), PHI1,
                                            p_start=1)
        assert res.rank_used == n
        assert frobenius_norm(res.point - exact_project_spectrahedron(v)) < 1e-12
        ok, gap = certify_inexact_projection(Spectrahedron(n), u, v, res.point,
                                             ForcingParams(), PHI1)
        assert ok, f"certificate gap {gap}"
        # the single state rule: restart at rank p - 1
        assert res.state == n - 1

    @pytest.mark.parametrize("seed", range(3))
    def test_phi_from_the_vectors_of_each_cache_fill(self, seed):
        # the tied pair 0.4, 0.4 straddles the ranks at which the cache
        # refills, and a refill may rotate it: q_i^T U q_i kept from the
        # earlier fill would misstate ||W_p - U||^2 and so phi4
        rng = np.random.default_rng(seed)
        n = 60
        spec = np.concatenate([[0.5, 0.4, 0.4, 0.3, 0.25, 0.2],
                               rng.uniform(-1.0, 0.0, n - 6)])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v = (q * spec) @ q.T
        u = random_feasible_spectra(rng, n)
        g = ForcingParams(0.0, 0.0, 1e-6)
        res = inexact_project_spectrahedron(v, u, g, PHI4, p_start=1)
        assert res.phi_value == pytest.approx(
            1e-6 * frobenius_norm(res.point - u) ** 2, rel=1e-9)

    def test_eigensolver_failure_carries_rank_context(self,
                                                      lapack_bad_residual):
        from ipgm.linalg import EigenSolverError

        rng = np.random.default_rng(44)
        v = symmetrize(rng.standard_normal((60, 60)))
        u = random_feasible_spectra(rng, 60)
        with pytest.raises(EigenSolverError,
                           match="rank p=3: LAPACK .* residual") as exc:
            inexact_project_spectrahedron(v, u, ForcingParams(), PHI1,
                                          p_start=3)
        assert np.isfinite(exc.value.best_residual)

    def test_failed_certificate_at_n120_keeps_rank_and_residual(
            self, range_fill_bad_residual):
        from ipgm.linalg import EigenSolverError, LowRank
        from ipgm.problems import generate_instance

        rng = np.random.default_rng(45)
        y = rng.standard_normal((120, 3))
        x = LowRank(y / np.linalg.norm(y))
        inst = generate_instance(120, 240, 5, seed=45)
        v = inst.value_and_gradient(x)[1].step(1.0 / inst.lipschitz_L)
        with pytest.raises(EigenSolverError, match=(
                "rank p=1: the range fill .* residual")) as exc:
            inexact_project_spectrahedron(v, x, ForcingParams(), PHI1,
                                          p_start=1)
        assert np.isfinite(exc.value.best_residual)


class TestCustomTolerance:
    def test_custom_named_like_canonical_is_honoured(self):
        # a custom phi is evaluated as itself whatever its name; evaluating
        # it as the canonical phi4 accepted rank 14 with a gap of 1.97e-2
        n = 30
        v = np.diag(np.linspace(0.2, 0.0, n))
        u = np.eye(n) / n
        g = ForcingParams(0.0, 0.0, 0.49)
        phi = ToleranceFn.custom(lambda g, vu, wv, wu: 0.0, name="phi4")
        res = inexact_project_spectrahedron(v, u, g, phi, p_start=1)
        ok, gap = certify_inexact_projection(Spectrahedron(n), u, v, res.point,
                                             g, phi)
        assert ok, f"certificate gap {gap} at rank {res.rank_used}"
        assert res.phi_value == 0.0

    def test_custom_sees_the_distances_of_the_candidate(self):
        rng = np.random.default_rng(82)
        n = 12
        v = symmetrize(rng.standard_normal((n, n)))
        u = random_feasible_spectra(rng, n)
        seen = []

        def fn(g, vu, wv, wu):
            seen.append((vu, wv, wu))
            return 0.3 * wu

        res = inexact_project_spectrahedron(v, u, ForcingParams(),
                                            ToleranceFn.custom(fn), p_start=1)
        w = res.point
        ref = [frobenius_norm(a - b) ** 2 for a, b in ((v, u), (w, v), (w, u))]
        assert np.allclose(seen[-1], ref, rtol=1e-9, atol=1e-12)


class TestCertificateGapProperty:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["phi1", "phi4"]),
           gammas=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 0.49),
                            st.floats(0.0, 0.49)),
           flat=st.booleans())
    def test_gap_matches_independent_certificate(self, n, seed, kind, gammas,
                                                 flat):
        # The projector takes its gap from the eigenpairs of V alone; the
        # reference forms W and finds the support point of V - W afresh.
        # A flat positive spectrum under a tiny tolerance rejects every
        # partial rank, so the projection ends on the full decomposition.
        rng = np.random.default_rng(seed)
        if flat:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v = (q * (0.05 + 1e-3 * rng.random(n))) @ q.T
            g = ForcingParams(*(1e-9 * gam for gam in gammas))
        else:
            v = symmetrize(rng.uniform(0.1, 10.0) * rng.standard_normal((n, n)))
            g = ForcingParams(*gammas)
        u = random_feasible_spectra(rng, n)
        phi = ToleranceFn.canonical(kind)
        res = inexact_project_spectrahedron(v, u, g, phi, p_start=1)
        if flat:
            assert res.rank_used == n
        ok, gap = certify_inexact_projection(Spectrahedron(n), u, v, res.point,
                                             g, phi)
        assert ok
        assert abs(res.certificate_gap - gap) <= 1e-8 * max(
            1.0, frobenius_norm(v) ** 2)


class TestSimpleSetCertificateProperty:
    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           spread=st.floats(0.01, 100.0),
           phi_kind=st.sampled_from(["phi1", "phi4"]),
           gammas=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 0.49),
                            st.floats(0.0, 0.49)))
    def test_gap_agrees_with_certify(self, dim, seed, spread, phi_kind,
                                     gammas):
        # the exact projection of a box carries its own certificate, from
        # ConvexSetOracle.inexact_project's default
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1.0, 0.0, dim)
        c_set = Box.make(lower, lower + rng.uniform(0.0, 2.0, dim))
        v = spread * rng.standard_normal(dim)
        u = c_set.exact_project(rng.standard_normal(dim))
        g = ForcingParams(*gammas)
        phi = ToleranceFn.canonical(phi_kind)
        res = c_set.inexact_project(v, u, g, phi)
        ok, gap = certify_inexact_projection(c_set, u, v, res.point, g, phi)
        w = res.point
        scale = max(1.0, *(frobenius_norm(a - b) ** 2
                           for a, b in ((v, u), (w, v), (w, u))))
        assert ok
        assert abs(res.certificate_gap - gap) <= 1e-12 * scale
        assert res.certificate_gap <= 1e-12 * scale


class TestCertify:
    def test_exact_projection_qualifies(self):
        rng = np.random.default_rng(90)
        s = Spectrahedron(6)
        for _ in range(20):
            v = symmetrize(rng.standard_normal((6, 6)))
            u = random_feasible_spectra(rng, 6)
            w = exact_project_spectrahedron(v)
            g = ForcingParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 0.4)),
                              float(rng.uniform(0, 0.4)))
            ok, gap = certify_inexact_projection(s, u, v, w, g, PHI1)
            assert ok
            assert gap <= 1e-9

    def test_bad_candidate_rejected(self):
        s = Spectrahedron(3)
        v = np.diag([0.6, 0.4, 0.0])
        w = np.diag([1.0, 0.0, 0.0])
        ok, gap = certify_inexact_projection(s, v, v, w, ForcingParams(),
                                             PHI1)
        assert not ok
        assert gap == pytest.approx(0.8, abs=1e-9)

    def test_self_projection(self):
        s = Spectrahedron(3)
        v = np.eye(3) / 3
        ok, gap = certify_inexact_projection(s, v, v, v, ForcingParams(),
                                             PHI1)
        assert ok
        assert gap == pytest.approx(0.0, abs=1e-10)


class TestProjectionContractBounds:
    """Distance and inner-product bounds implied by the projection contract."""

    def run_case(self, rng, n):
        v = symmetrize(rng.standard_normal((n, n))) * float(rng.uniform(0.2, 3))
        u = random_feasible_spectra(rng, n)
        g = ForcingParams(float(rng.uniform(0, 1.5)),
                          float(rng.uniform(0, 0.49)),
                          float(rng.uniform(0, 0.49)))
        res = inexact_project_spectrahedron(v, u, g, PHI1, p_start=1)
        return v, u, g, res.point

    def test_distance_bound(self):
        rng = np.random.default_rng(91)
        for _ in range(30):
            n = int(rng.integers(4, 16))
            v, u, g, w = self.run_case(rng, n)
            dvu = frobenius_norm(v - u) ** 2
            dwv = frobenius_norm(w - v) ** 2
            for _ in range(20):
                x = random_feasible_spectra(rng, n)
                lhs = frobenius_norm(w - x) ** 2
                rhs = (frobenius_norm(v - x) ** 2
                       + (2 * g.gamma1 + 2 * g.gamma3) / (1 - 2 * g.gamma3) * dvu
                       - (1 - 2 * g.gamma2) / (1 - 2 * g.gamma3) * dwv)
                scale = max(1.0, lhs, abs(rhs))
                assert lhs <= rhs + 1e-10 * scale

    def test_inner_product_bound(self):
        rng = np.random.default_rng(92)
        for _ in range(30):
            n = int(rng.integers(4, 16))
            v, u, g, w = self.run_case(rng, n)
            dvu = frobenius_norm(v - u) ** 2
            dwu = frobenius_norm(w - u) ** 2
            rhs = ((g.gamma1 + g.gamma2) / (1 - 2 * g.gamma2) * dvu
                   + (g.gamma3 - g.gamma2) / (1 - 2 * g.gamma2) * dwu)
            for _ in range(20):
                y = random_feasible_spectra(rng, n)
                lhs = frobenius_inner(v - w, y - w)
                scale = max(1.0, abs(lhs), abs(rhs))
                assert lhs <= rhs + 1e-10 * scale


class TestExactAdapter:
    def test_adapter_projects_exactly(self):
        s = ExactProjectionAdapter(Spectrahedron(5))
        rng = np.random.default_rng(93)
        v = symmetrize(rng.standard_normal((5, 5)))
        res = s.inexact_project(v, np.eye(5) / 5, ForcingParams(9.0, 0.4, 0.4),
                                PHI1)
        assert np.allclose(res.point, exact_project_spectrahedron(v), atol=1e-12)
        assert res.certificate_gap is None

    def test_adapter_delegates_the_other_oracles(self):
        inner = Box.make(np.zeros(4), np.ones(4))
        s = ExactProjectionAdapter(inner)
        assert s.name == "box-exact"
        c = np.array([0.5, -1.0, 2.0, -1e-9])
        assert np.array_equal(s.support_point(c), inner.support_point(c))
        assert np.array_equal(s.support_point(c), [1.0, 0.0, 1.0, 0.0])
        v = np.array([3.0, 0.1, -2.0, 0.4])
        assert np.array_equal(s.exact_project(v), inner.exact_project(v))
        assert s.contains(s.exact_project(v))
        assert not s.contains(v)
