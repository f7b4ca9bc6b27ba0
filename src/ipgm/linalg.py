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
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

__all__ = [
    "EigenSolverError",
    "frobenius_inner",
    "frobenius_norm",
    "symmetrize",
    "largest_eigenpair",
    "IncrementalEigen",
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


class _BudgetExhausted(Exception):
    """Raised from inside ARPACK's reverse-communication loop."""


class IncrementalEigen:
    """Top-of-spectrum eigenpairs of a fixed matrix, computed on demand.

    ``top(k)`` returns the ``k`` algebraically largest eigenvalues, in
    non-increasing order, and their eigenvectors as columns.  A request
    beyond the cache refills it (``fills`` counts this; every cached vector
    is replaced) by ARPACK (``eigsh``) started from the cached pairs, or
    from the ``warm_start`` columns while the cache is empty.  Each pair has
    a residual of at most ``EIG_TOL max(1, ||S||_F)`` and the vectors are
    orthonormal to ``EIG_TOL``.  ARPACK runs only while its Krylov basis is
    smaller than ``n`` and the budget of ``2 n`` products (``matvecs_used``,
    certificates included) lasts; otherwise, or when the budget runs out
    partway, one dense ``eigh`` caches every pair.  A matrix whose
    Frobenius norm is not finite raises :class:`EigenSolverError`.
    """

    def __init__(self, matrix, warm_start: np.ndarray | None = None):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        norm = float(np.linalg.norm(a))
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
        vals, vecs = np.linalg.eigh(self._a)
        return vals[::-1], vecs[:, ::-1]


def largest_eigenpair(matrix) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of a symmetric matrix and a unit eigenvector,
    under the residual certificate of ``IncrementalEigen``."""
    vals, vecs = IncrementalEigen(matrix).top(1)
    return float(vals[0]), vecs[:, 0]
