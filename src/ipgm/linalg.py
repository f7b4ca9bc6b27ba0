"""Dense symmetric-matrix algebra and a partial eigensolver.

The projection oracles in this package repeatedly ask for a handful of
algebraically largest eigenpairs of dense symmetric matrices that change
slowly between calls.  ``IncrementalEigen`` is the one way to get them: a
cache over a fixed matrix, filled by ARPACK's implicitly restarted Lanczos
(``scipy.sparse.linalg.eigsh``) on the shifted matrix ``S + 2 max(1,
||S||_F) I``, warm-started from earlier eigenvectors, with every returned
pair certified by its residual and the returned vectors certified
orthonormal.  Each cache spends at most ``2 n`` matrix-vector products;
when they run out, or when ARPACK's Krylov basis would span the whole
space, one dense ``eigh`` fills the cache instead.
``largest_eigenpair`` is the single-pair call the support point makes.

Iterates of the spectrahedron solvers are low rank, and three types keep
them so: ``LowRank`` is a point X = Y Y^T held as its n x r factor Y,
``FactoredGradient`` is the gradient sym(P Y^T) - S of a quadratic at such
a point (P = H Y, S sparse), and ``StepOperator`` is the projection input
V = X - alpha G, which ``IncrementalEigen`` applies through its factors.
Scalars (norms, inner products, distances) come from r x r matrices; each
type forms its dense n x n matrix only through ``dense()`` (also reached by
``np.asarray``), and a ``StepOperator`` also through ``lower_fortran()``,
the one triangle a LAPACK eigensolver reads.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.sparse.linalg import LinearOperator, eigsh

__all__ = [
    "EigenSolverError",
    "frobenius_inner",
    "frobenius_norm",
    "symmetrize",
    "largest_eigenpair",
    "IncrementalEigen",
    "LowRank",
    "FactoredGradient",
    "StepOperator",
]

# Residual tolerance of every returned pair, relative to max(1, ||S||_F),
# and the tolerance on the orthonormality of the returned vectors.
EIG_TOL = 1e-9

# Products one cache may spend, per unit of n: of the order of one dense
# eigh, and above every warm solve on the benchmark (at most 1.22 n, n=300).
_PRODUCTS_PER_N = 2

# Norm of the random part of an ARPACK start vector whose warm part has unit
# norm: enough for every eigenvector to get a share above rounding.
_START_NOISE = 1e-2


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T)/2 as float64."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    s = m + m.T
    s *= 0.5
    return s


class EigenSolverError(RuntimeError):
    """The matrix is not finite, or ARPACK returned pairs that fail their
    residual or orthonormality certificate.

    ``best_residual`` is the largest residual of the returned pairs, or
    ``None`` when no pair was computed.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


def frobenius_inner(a, b) -> float:
    """Trace inner product tr(A^T B); the plain dot product for vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


class _DenseArithmetic(np.lib.mixins.NDArrayOperatorsMixin):
    """``np.asarray`` and numpy arithmetic (``w - x``, ``g * c``, ``w @ v``)
    act on the dense matrix that ``dense()`` forms."""

    def dense(self) -> np.ndarray:
        raise NotImplementedError

    def __array__(self, dtype=None, copy=None):
        out = self.dense()
        return out if dtype is None else out.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(a.dense() if isinstance(a, _DenseArithmetic) else a
                       for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def _stacked_core(a: "LowRank", b: "LowRank", with_q: bool = False):
    """(Q, R_a, R_b, M) with [Y_a, Y_b] = Q [R_a, R_b] and
    M = R_a R_a^T - R_b R_b^T, so that A - B = Q M Q^T with Q orthonormal.

    M is formed from the triangular factor, so its entries carry rounding of
    the order of eps ||A|| rather than the eps ||A||^2 / ||A - B|| a Gram
    expansion ||A||^2 - 2 <A, B> + ||B||^2 leaves in ||A - B||^2.
    """
    k = a.factor.shape[1]
    stacked = np.hstack([a.factor, b.factor])
    if with_q:
        q, r = np.linalg.qr(stacked)
    else:
        q, r = None, np.linalg.qr(stacked, mode="r")
    r_a, r_b = r[:, :k], r[:, k:]
    return q, r_a, r_b, r_a @ r_a.T - r_b @ r_b.T


class LowRank(_DenseArithmetic):
    """The symmetric positive semidefinite X = Y Y^T, kept as its n x r
    factor Y.

    ``gram`` is Y^T Y and ``sq_norm`` is ||X||_F^2 = ||Y^T Y||_F^2.
    ``dense()`` forms Y Y^T as one symmetric rank-r update (numpy calls
    ``syrk`` for ``y @ y.T``), so the matrix is exactly symmetric.
    """

    def __init__(self, factor):
        y = np.ascontiguousarray(factor, dtype=float)
        if y.ndim != 2:
            raise ValueError(f"expected an n x r factor, got shape {y.shape}")
        self.factor = y
        self.gram = y.T @ y
        self.sq_norm = float(np.vdot(self.gram, self.gram))

    @property
    def shape(self) -> tuple[int, int]:
        n = self.factor.shape[0]
        return (n, n)

    @property
    def rank(self) -> int:
        """Columns of the factor (an upper bound on the rank of X)."""
        return self.factor.shape[1]

    def sq_distance(self, other: "LowRank") -> float:
        """||X - Z||_F^2 for another factored Z, from the stacked factors."""
        m = _stacked_core(self, other)[3]
        return float(np.vdot(m, m))

    def dense(self) -> np.ndarray:
        return self.factor @ self.factor.T


class FactoredGradient(_DenseArithmetic):
    """G = sym(P Y^T) - S at the factored point X = Y Y^T, S sparse symmetric.

    This is the gradient of a quadratic 1/2 <X, H X> - <S, X> + c (H
    symmetric) at X, with P = H Y.  ``sq_norm`` (||G||_F^2), ``inner(W)``
    (<G, W> for a factored W) and ``secant`` come from r x r products, and
    ``step(alpha)`` is the projection input X - alpha G as an operator.
    ``s_sq_norm`` is ||S||_F^2 and ``sy`` is S Y when the caller has them.
    """

    def __init__(self, point: LowRank, p, s, s_sq_norm: float, sy=None):
        y = point.factor
        self.point = point
        self.p = np.asarray(p, dtype=float)
        self.s = s
        if sy is None:
            sy = s @ y
        yp = y.T @ self.p  # Y^T H Y
        # ||sym(P Y^T)||^2 = (<P^T P, Y^T Y> + tr((Y^T P)^2)) / 2 and
        # <sym(P Y^T), S> = <P, S Y>
        self.sq_norm = max(0.0, 0.5 * (float(np.vdot(self.p.T @ self.p,
                                                      point.gram))
                                       + float(np.vdot(yp, yp.T)))
                           - 2.0 * float(np.vdot(self.p, sy)) + s_sq_norm)
        # <G, X> = <Y^T Y, P^T Y> - <Y, S Y>
        self._inner_point = (float(np.vdot(point.gram, yp.T))
                             - float(np.vdot(y, sy)))

    def inner(self, w: LowRank) -> float:
        """<G, W> = <Y^T Z, P^T Z> - <Z, S Z> for W = Z Z^T."""
        if w is self.point:
            return self._inner_point
        z = w.factor
        return (float(np.vdot(self.point.factor.T @ z, self.p.T @ z))
                - float(np.vdot(z, self.s @ z)))

    def step(self, alpha: float) -> "StepOperator":
        """V = X - alpha G, with ||V||^2 and ||V - X||^2 = alpha^2 ||G||^2."""
        half = (0.5 * alpha) * self.p
        x = self.point
        sq_norm = max(0.0, x.sq_norm - 2.0 * alpha * self._inner_point
                      + alpha * alpha * self.sq_norm)
        return StepOperator(x, x.factor - half, half, alpha * self.s,
                            sq_norm=sq_norm,
                            sq_dist=alpha * alpha * self.sq_norm)

    def secant(self, prev: "FactoredGradient") -> tuple[float, float]:
        """(<s, s>, <s, y>) for s = X - X_prev and y = G - G_prev.

        With s = Q M Q^T from the stacked factors, <s, sym(P Y^T)> =
        <M, (Q^T P) R^T>, so neither product cancels the way a Gram
        expansion of four inner products would when s is small.
        """
        q, r_a, r_b, m = _stacked_core(self.point, prev.point, with_q=True)
        t = (q.T @ self.p) @ r_a.T - (q.T @ prev.p) @ r_b.T
        if self.s is not prev.s:
            t -= q.T @ (self.s @ q) - q.T @ (prev.s @ q)
        return float(np.vdot(m, m)), float(np.vdot(m, t))

    def dense(self) -> np.ndarray:
        return symmetrize(self.p @ self.point.factor.T) - self.s.toarray()


class StepOperator(_DenseArithmetic):
    """The projection input V = X - alpha G at a factored point X, applied
    through its factors.

    V = Z+ Z+^T - Z- Z-^T + S_alpha with Z+ = Y - (alpha/2) P,
    Z- = (alpha/2) P and S_alpha = alpha S sparse, so ``V @ x`` costs
    O(n r + nnz(S)).  ``anchor`` is X, ``sq_dist`` is ||V - X||_F^2 =
    alpha^2 ||G||_F^2 and ``sq_norm`` is ||V||_F^2.  ``dense()`` forms V
    exactly symmetric from S_alpha and two rank-r updates.
    """

    def __init__(self, anchor: LowRank, z_plus, z_minus, s, sq_norm: float,
                 sq_dist: float):
        self.anchor = anchor
        self._r = z_plus.shape[1]
        self._z = np.hstack([z_plus, z_minus])
        self._s = s
        self.sq_norm = sq_norm
        self.sq_dist = sq_dist

    @property
    def shape(self) -> tuple[int, int]:
        return self.anchor.shape

    def __matmul__(self, x):
        t = self._z.T @ x
        t[self._r:] *= -1.0
        out = self._z @ t
        out += self._s @ x
        return out

    def dense(self) -> np.ndarray:
        z_plus = np.ascontiguousarray(self._z[:, :self._r])
        z_minus = np.ascontiguousarray(self._z[:, self._r:])
        v = self._s.toarray()
        v += z_plus @ z_plus.T
        v -= z_minus @ z_minus.T
        return v

    def lower_fortran(self) -> np.ndarray:
        """V's lower triangle in a new Fortran-ordered array, for a LAPACK
        routine that reads one triangle and may overwrite its input.

        S_alpha fills the array and two ``dsyrk`` updates add Z+ Z+^T and
        -Z- Z-^T to its lower triangle in place, so no other n x n array is
        made; the upper triangle holds S_alpha alone.
        """
        out = self._s.toarray(order="F")
        for sign, z in ((1.0, self._z[:, :self._r]),
                        (-1.0, self._z[:, self._r:])):
            out = dsyrk(sign, z, beta=1.0, c=out, lower=1, overwrite_c=1)
        return out


class _BudgetExhausted(Exception):
    """Raised from inside ARPACK's reverse-communication loop."""


class IncrementalEigen:
    """Top-of-spectrum eigenpairs of a fixed matrix, computed on demand.

    ``top(k)`` returns the ``k`` algebraically largest eigenvalues, in
    non-increasing order, and their eigenvectors as columns.  A request
    beyond the cache refills it (``fills`` counts this; every cached vector
    is replaced) by ARPACK (``eigsh``) started from the cached pairs, or
    from the ``warm_start`` columns while the cache is empty.  ``matrix`` is
    a dense symmetric array or a ``StepOperator``, which ARPACK applies
    through its factors and which is formed densely only for a dense fill.
    Each pair has a residual of at most ``EIG_TOL max(1, ||S||_F)`` and the
    vectors are orthonormal to ``EIG_TOL``.  ARPACK runs only while its
    Krylov basis is smaller than ``n`` and the budget of ``2 n`` products
    (``matvecs_used``, certificates included) lasts; otherwise, or when the
    budget runs out partway, one dense ``eigh`` caches every pair and sets
    ``dense_fill``.  ``sq_norm`` holds ``||S||_F^2`` and ``scale`` holds
    ``max(1, ||S||_F)``; a matrix whose Frobenius norm is not finite
    raises :class:`EigenSolverError`.
    """

    def __init__(self, matrix, warm_start: np.ndarray | None = None):
        if isinstance(matrix, StepOperator):
            a = matrix
            self.sq_norm = matrix.sq_norm
        else:
            a = np.asarray(matrix, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(
                    f"expected a square matrix, got shape {a.shape}")
            # one pass gives ||S||_F^2; np.linalg.norm takes the root of the
            # same dot product, so the scale keeps its bits
            self.sq_norm = float(np.vdot(a, a))
        norm = float(np.sqrt(self.sq_norm))
        if not np.isfinite(norm):
            raise EigenSolverError(f"matrix has Frobenius norm {norm}")
        self._a = a
        self.n = a.shape[0]
        self.scale = max(1.0, norm)
        self.tol_abs = EIG_TOL * self.scale
        self._warm = (None if warm_start is None
                      else np.asarray(warm_start, dtype=float))
        self._vals = np.empty(0)
        self._vecs = np.empty((self.n, 0))
        self.matvecs_used = 0
        self.fills = 0
        self.dense_fill = False
        self._rng = np.random.default_rng(0x5EED1E55)

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= k <= self.n:
            raise ValueError(f"need 1 <= k <= {self.n}, got {k}")
        if k > self._vals.size:
            # Callers that need several pairs (the rank-p projector asks for
            # p+1, then p+2, ...) get one pair ahead, so the next request is
            # served from the cache.  A single largest pair gets none: the
            # extra pair could sit inside a degenerate top cluster, where
            # Lanczos converges a second copy only through rounding.
            want = k if k == 1 else min(k + 1, self.n)
            self._vals, self._vecs = self._solve(want)
            self.fills += 1
        return self._vals[:k], self._vecs[:, :k]

    def _solve(self, want: int) -> tuple[np.ndarray, np.ndarray]:
        a, n = self._a, self.n
        ncv = min(n, max(2 * want + 1, 20))
        # the last `want` products certify; Lanczos needs ncv to start
        stop = _PRODUCTS_PER_N * n - want
        if ncv >= n or stop - self.matvecs_used < ncv:
            return self._dense()
        # ARPACK stops on a residual relative to the Ritz value, which cannot
        # certify eigenvalues near zero; the shift maps the spectrum into
        # [scale, 3 scale], so tol * 3 scale = tol_abs / 10 is absolute.
        sigma = 2.0 * self.scale

        def shifted(x):
            if self.matvecs_used >= stop:
                raise _BudgetExhausted
            self.matvecs_used += 1
            return a @ x + sigma * x

        # The start mixes every cached (or warm) direction with a random
        # component, so each eigenvector has a nonzero share of it and a
        # misleading warm start cannot hide a larger eigenvalue.  All
        # randomness, ARPACK's restarts after a breakdown included, comes
        # from the seeded generator, so repeated calls are bit-identical.
        v0 = self._rng.standard_normal(n)
        v0 *= _START_NOISE / np.linalg.norm(v0)
        start = self._vecs if self._vecs.size else self._warm
        if start is not None and start.shape[1]:
            guess = start.sum(axis=1)
            norm = float(np.linalg.norm(guess))
            if norm > 0.0:
                v0 += guess / norm
        op = LinearOperator((n, n), matvec=shifted, dtype=float)
        # maxiter never binds before the product budget does
        try:
            _, q = eigsh(op, k=want, which="LA", v0=v0, ncv=ncv,
                         tol=self.tol_abs / (30.0 * self.scale),
                         maxiter=stop, rng=self._rng)
        except _BudgetExhausted:
            return self._dense()
        # certify: one block product gives every Rayleigh quotient and residual
        aq = a @ q
        self.matvecs_used += want
        vals = np.einsum("ij,ij->j", q, aq)
        worst = float(np.max(np.linalg.norm(aq - q * vals, axis=0)))
        if worst > self.tol_abs:
            raise EigenSolverError(
                f"ARPACK returned a pair with residual {worst:.3e} above the "
                f"tolerance {self.tol_abs:.3e}", best_residual=worst)
        # callers build scalar identities on Q, so Q^T Q = I is certified too
        drift = float(np.max(np.abs(q.T @ q - np.eye(want))))
        if drift > EIG_TOL:
            raise EigenSolverError(
                f"ARPACK returned vectors {drift:.3e} from orthonormal, above "
                f"the tolerance {EIG_TOL:.3e}", best_residual=worst)
        order = np.argsort(-vals, kind="stable")
        return vals[order], q[:, order]

    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        self.dense_fill = True
        a = self._a.dense() if isinstance(self._a, StepOperator) else self._a
        vals, vecs = np.linalg.eigh(a)
        return vals[::-1], vecs[:, ::-1]


def largest_eigenpair(matrix) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of a symmetric matrix and a unit eigenvector,
    under the residual certificate of ``IncrementalEigen``."""
    vals, vecs = IncrementalEigen(matrix).top(1)
    return float(vals[0]), vecs[:, 0]
