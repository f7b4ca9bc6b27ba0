"""Dense symmetric-matrix algebra and a partial eigensolver.

The projection oracles in this package repeatedly ask for a handful of
algebraically largest eigenpairs of dense symmetric matrices that change
slowly between calls.  ``IncrementalEigen`` serves them from a cache over a
fixed matrix and fills it with ARPACK's implicitly restarted Lanczos
(``scipy.sparse.linalg.eigsh``) on the shifted matrix ``S + 2 max(1,
||S||_F) I``, warm-started from earlier eigenvectors, with every returned
pair certified by its residual and the returned vectors certified
orthonormal; near the whole spectrum it uses a dense ``eigh``.
``leading_eigenpairs`` and ``largest_eigenpair`` are one-shot front ends
to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

__all__ = [
    "SymMatrix",
    "EigenPair",
    "EigenSolverError",
    "frobenius_inner",
    "frobenius_norm",
    "symmetrize",
    "leading_eigenpairs",
    "largest_eigenpair",
    "IncrementalEigen",
]

DEFAULT_EIG_TOL = 1e-9

# Norm of the random part of an ARPACK start vector whose warm part has unit
# norm: enough for every eigenvector to get a share above rounding.
_START_NOISE = 1e-2


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T)/2 as float64."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric n-by-n matrix with value semantics.

    Construct via :meth:`from_array`, which symmetrizes a general square
    matrix (the antisymmetric part is discarded) and rejects non-finite
    entries.  The wrapped array is read-only.
    """

    array: np.ndarray

    @classmethod
    def from_array(cls, m) -> "SymMatrix":
        a = symmetrize(m)
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        a.setflags(write=False)
        return cls(array=a)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.array.astype(dtype)
        return self.array


class EigenPair(NamedTuple):
    """An (eigenvalue, unit eigenvector) pair."""

    value: float
    vector: np.ndarray


class EigenSolverError(RuntimeError):
    """Partial eigensolver ran out of budget before reaching its tolerance."""

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


def _as_dense_sym(matrix) -> np.ndarray:
    if isinstance(matrix, SymMatrix):
        return matrix.array
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


class _BudgetExhausted(Exception):
    """Raised from inside ARPACK's reverse-communication loop."""


class IncrementalEigen:
    """Top-of-spectrum eigenpairs of a fixed matrix, computed on demand.

    ``top(k)`` returns the ``k`` algebraically largest eigenpairs.  A request
    beyond the cached pairs runs ARPACK's implicitly restarted Lanczos
    (``scipy.sparse.linalg.eigsh``) started from the cached pairs, or from
    the warm-start directions (e.g. eigenvectors of a nearby matrix) while
    the cache is empty, and certifies every pair by its residual and the
    vectors as orthonormal, both to the tolerance.
    """

    def __init__(self, matrix, eig_tol: float = DEFAULT_EIG_TOL,
                 warm_start: np.ndarray | None = None,
                 max_matvecs: int | None = None):
        self._a = _as_dense_sym(matrix)
        self.n = self._a.shape[0]
        self.scale = max(1.0, float(np.linalg.norm(self._a)))
        self.eig_tol = float(eig_tol)
        self.tol_abs = self.eig_tol * self.scale
        self._per_pair = max_matvecs if max_matvecs is not None else 50 * self.n
        self._warm = (None if warm_start is None
                      else np.asarray(warm_start, dtype=float))
        self._vals = np.empty(0)
        self._vecs = np.empty((self.n, 0))
        self.matvecs_used = 0
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
        return self._vals[:k], self._vecs[:, :k]

    def _solve(self, want: int) -> tuple[np.ndarray, np.ndarray]:
        a, n = self._a, self.n
        if want >= n - 1:
            # eigsh needs want < n, and at want = n - 1 its basis spans the
            # whole space: one dense decomposition is cheaper
            vals, vecs = np.linalg.eigh(a)
            return vals[::-1], vecs[:, ::-1]
        # ARPACK stops on a residual relative to the Ritz value, which cannot
        # certify eigenvalues near zero; the shift maps the spectrum into
        # [scale, 3 scale], so tol * 3 scale = tol_abs / 10 is absolute.
        sigma = 2.0 * self.scale
        budget = self._per_pair * want
        used = 0

        def shifted(x):
            nonlocal used
            if used >= budget:
                raise _BudgetExhausted
            used += 1
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
            _, q = eigsh(op, k=want, which="LA", v0=v0,
                         ncv=min(n, max(2 * want + 1, 20)),
                         tol=self.tol_abs / (30.0 * self.scale),
                         maxiter=budget, rng=self._rng)
        except _BudgetExhausted:
            u = v0 / np.linalg.norm(v0)
            au = a @ u
            best = float(np.linalg.norm(au - (u @ au) * u))
            raise EigenSolverError(
                f"no convergence within {self._per_pair} matrix-vector "
                f"products per eigenpair ({want} pairs; start-vector "
                f"residual {best:.3e}, tolerance {self.tol_abs:.3e})",
                best_residual=best) from None
        finally:
            self.matvecs_used += used
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
        if drift > self.eig_tol:
            raise EigenSolverError(
                f"ARPACK returned vectors {drift:.3e} from orthonormal, above "
                f"the tolerance {self.eig_tol:.3e}", best_residual=worst)
        order = np.argsort(-vals, kind="stable")
        return vals[order], q[:, order]


def leading_eigenpairs(matrix, p: int, eig_tol: float = DEFAULT_EIG_TOL,
                       warm_start: np.ndarray | Sequence[np.ndarray] | None = None,
                       max_matvecs: int | None = None) -> list[EigenPair]:
    """Compute the ``p`` algebraically largest eigenpairs of a symmetric matrix.

    Parameters
    ----------
    matrix : SymMatrix or ndarray
        Dense symmetric matrix.
    p : int
        Number of pairs, ``1 <= p <= n``.
    eig_tol : float
        Residual tolerance relative to ``max(1, ||S||_F)``; every returned
        pair satisfies ``||S q - lam q|| <= eig_tol * max(1, ||S||_F)``.
    warm_start : array of shape (n, k), optional
        Starting directions (typically eigenvectors from a previous call on
        a nearby matrix), summed into the start vector.
    max_matvecs : int, optional
        Matrix-vector product budget per eigenpair; defaults to ``50 * n``.
        Exhausting it raises :class:`EigenSolverError` carrying the residual
        of the start vector as ``best_residual``.

    Returns
    -------
    list of EigenPair, eigenvalues non-increasing, eigenvectors orthonormal.
    """
    a = _as_dense_sym(matrix)
    n = a.shape[0]
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= {n}, got p={p}")
    if eig_tol <= 0:
        raise ValueError("eig_tol must be positive")
    if warm_start is not None and not isinstance(warm_start, np.ndarray):
        warm_start = np.column_stack(list(warm_start))
    cache = IncrementalEigen(a, eig_tol=eig_tol, warm_start=warm_start,
                             max_matvecs=max_matvecs)
    vals, vecs = cache.top(p)
    return [EigenPair(float(vals[i]), vecs[:, i].copy()) for i in range(p)]


def largest_eigenpair(matrix, eig_tol: float = DEFAULT_EIG_TOL,
                      warm_start: np.ndarray | None = None,
                      max_matvecs: int | None = None) -> EigenPair:
    """Largest eigenpair; same contract as ``leading_eigenpairs`` with p=1."""
    if warm_start is not None and warm_start.ndim == 1:
        warm_start = warm_start.reshape(-1, 1)
    return leading_eigenpairs(matrix, 1, eig_tol=eig_tol,
                              warm_start=warm_start,
                              max_matvecs=max_matvecs)[0]
