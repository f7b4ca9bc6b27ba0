"""Dense symmetric-matrix algebra and a partial eigensolver.

The projection oracles in this package repeatedly ask for a handful of
algebraically largest eigenpairs of dense symmetric matrices that change
slowly between calls.  ``leading_eigenpairs`` implements a deflated Lanczos
iteration with full reorthogonalization, residual certification and warm
starts; ``IncrementalEigen`` exposes the same machinery as a cache over a
fixed matrix that can be extended one eigenpair at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

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

# Full-reorthogonalization keeps basis vectors orthogonal to ~n*eps, so a
# beta below this scale-relative floor means the Krylov space is invariant.
_BREAKDOWN_REL = 1e-13


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


class _DeflatedLanczos:
    """Lanczos with locking: finds top eigenpairs of ``matvec`` one at a time.

    All randomness comes from a generator seeded at construction, so repeated
    runs on the same inputs are bit-identical.
    """

    def __init__(self, matvec: Callable[[np.ndarray], np.ndarray], n: int,
                 tol_abs: float, scale: float, matvecs_per_pair: int):
        self.matvec = matvec
        self.n = n
        self.tol_abs = tol_abs
        self.scale = scale
        self.matvecs_per_pair = matvecs_per_pair
        self.allowance = matvecs_per_pair
        self.used_matvecs = 0
        self.best_residual = np.inf
        self.locked_vals: list[float] = []
        self.locked = np.zeros((n, 0))
        # largest-of-complement value found by the most recent run; a locked
        # value below it was reached out of order (from a warm start that
        # converged to a non-dominant eigenvector)
        self.confirmed_floor = np.inf
        self._rng = np.random.default_rng(0x5EED1E55)

    # -- primitives ----------------------------------------------------

    def _mv(self, x: np.ndarray) -> np.ndarray:
        if self.used_matvecs >= self.allowance:
            raise EigenSolverError(
                f"no convergence within {self.matvecs_per_pair} matrix-vector "
                f"products per eigenpair (best residual "
                f"{self.best_residual:.3e}, tolerance {self.tol_abs:.3e})",
                best_residual=float(self.best_residual),
            )
        self.used_matvecs += 1
        return self.matvec(x)

    def _deflate(self, x: np.ndarray, extra: np.ndarray | None = None,
                 passes: int = 2) -> np.ndarray:
        for _ in range(passes):
            if self.locked.shape[1]:
                x = x - self.locked @ (self.locked.T @ x)
            if extra is not None and extra.shape[1]:
                x = x - extra @ (extra.T @ x)
        return x

    def _start_vector(self, warm: np.ndarray | None,
                      extra: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
        if warm is not None:
            v = self._deflate(np.asarray(warm, dtype=float).copy(), extra)
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                return v / nv, True
        while True:
            v = self._deflate(self._rng.standard_normal(self.n), extra)
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                return v / nv, False

    # -- one deflated run ----------------------------------------------

    def _run(self, v0: np.ndarray, extra: np.ndarray | None = None):
        """Converge the top Ritz pair of the operator deflated by the locked
        set (plus ``extra``), thick-restarting at v0 = best Ritz vector.

        The inner iteration aims an order of magnitude below the certified
        tolerance: residuals of locked pairs leak into every later pair
        (the deflating vectors are only eigenvectors up to their own
        residual), so locking well below ``tol_abs`` keeps that pollution
        floor harmless.  When restarts stop improving the raw residual, any
        value within ``tol_abs`` is accepted.

        Returns (theta, y, krylov_dim) of the top pair.
        """
        n_lock = self.locked.shape[1] + (extra.shape[1] if extra is not None else 0)
        n_free = self.n - n_lock
        m_cap = max(2, min(n_free, 36))
        target = 0.1 * self.tol_abs
        q0 = v0
        best = None  # (residual, theta, y, dim)
        prev_residual = np.inf
        t_buf = np.zeros((m_cap, m_cap))
        while True:
            basis = np.empty((self.n, m_cap))
            alphas = np.empty(m_cap)
            betas = np.empty(m_cap)
            q = q0
            basis[:, 0] = q
            ritz_coef = None
            j_used = 1
            broke_down = False
            for j in range(m_cap):
                u = self._mv(q)
                u = self._deflate(u, extra, passes=1)
                alphas[j] = float(q @ u)
                r = u - alphas[j] * q
                if j > 0:
                    r = r - betas[j - 1] * basis[:, j - 1]
                # two-pass reorthogonalization against the current basis
                for _ in range(2):
                    r = r - basis[:, : j + 1] @ (basis[:, : j + 1].T @ r)
                r = self._deflate(r, extra)
                beta = float(np.sqrt(r @ r))
                j_used = j + 1
                # Ritz extraction is bookkeeping, not progress: once the
                # basis has grown past a handful of vectors, check every
                # other step unless the recurrence broke down
                hit_break = beta <= _BREAKDOWN_REL * self.scale
                if j >= 8 and j % 2 == 1 and not hit_break and j + 1 < m_cap:
                    betas[j] = beta
                    q = r / beta
                    basis[:, j + 1] = q
                    continue
                t = t_buf[: j + 1, : j + 1]
                t[:] = 0.0
                t[np.arange(j + 1), np.arange(j + 1)] = alphas[: j + 1]
                if j > 0:
                    idx = np.arange(j)
                    t[idx, idx + 1] = betas[:j]
                    t[idx + 1, idx] = betas[:j]
                ritz_coef = np.linalg.eigh(t)[1][:, -1]
                resid_est = beta * abs(float(ritz_coef[-1]))
                if resid_est <= target or hit_break:
                    broke_down = hit_break
                    break
                betas[j] = beta
                q = r / beta
                if j + 1 < m_cap:
                    basis[:, j + 1] = q
            y = basis[:, :j_used] @ ritz_coef
            y = self._deflate(y, extra)
            ny = float(np.sqrt(y @ y))
            if ny <= 1e-10:
                q0, _ = self._start_vector(None, extra)
                continue
            y /= ny
            ay = self._mv(y)
            theta = float(y @ ay)
            rv = ay - theta * y
            residual = float(np.sqrt(rv @ rv))
            self.best_residual = min(self.best_residual, residual)
            if best is None or residual < best[0]:
                best = (residual, theta, y, j_used)
            if residual <= target or (broke_down and residual <= self.tol_abs):
                return theta, y, j_used
            stalled = residual > 0.9 * prev_residual
            if stalled and best[0] <= self.tol_abs:
                return best[1:]
            if stalled:
                # force deeper Krylov exploration before the next attempt
                target = 0.25 * target
            prev_residual = residual
            q0 = self._start_vector(None, extra)[0] if broke_down else y

    # -- public: lock the next pair -------------------------------------

    def _probe_max(self, extra: np.ndarray, steps: int = 8) -> float:
        """Cheap lower bound on the largest eigenvalue of the complement of
        locked + ``extra``: a few plain Lanczos steps from a random start."""
        v, _ = self._start_vector(None, extra)
        q_prev = None
        beta = 0.0
        alphas = []
        betas = []
        basis = [v]
        q = v
        for j in range(min(steps, max(1, self.n - self.locked.shape[1]
                                      - extra.shape[1]))):
            u = self._mv(q)
            u = self._deflate(u, extra, passes=1)
            a = float(q @ u)
            alphas.append(a)
            r = u - a * q
            if q_prev is not None:
                r = r - beta * q_prev
            for b in basis:
                r = r - b * float(b @ r)
            beta = float(np.sqrt(r @ r))
            if beta <= _BREAKDOWN_REL * self.scale:
                break
            betas.append(beta)
            q_prev = q
            q = r / beta
            basis.append(q)
        t = np.diag(alphas)
        k_off = min(len(betas), len(alphas) - 1)
        if k_off > 0:
            idx = np.arange(k_off)
            t[idx, idx + 1] = betas[:k_off]
            t[idx + 1, idx] = betas[:k_off]
        return float(np.linalg.eigvalsh(t)[-1])

    def extend(self, warm: np.ndarray | None = None) -> None:
        """Lock the largest eigenpair of the complement of the locked set."""
        if self.locked.shape[1] >= self.n:
            raise ValueError("all eigenpairs already locked")
        self.allowance = self.used_matvecs + self.matvecs_per_pair
        v0, used_warm = self._start_vector(warm)
        theta, y, dim = self._run(v0)
        margin = max(self.tol_abs, 1e-14 * self.scale)
        prev_min = min(self.locked_vals) if self.locked_vals else np.inf
        contiguous = theta >= prev_min - margin
        if (used_warm and dim <= 2 and not contiguous
                and self.locked.shape[1] + 1 < self.n):
            # A caller-supplied start that converges almost instantly is an
            # eigenvector, but not necessarily the dominant one left; probe
            # the complement of locked + candidate for anything larger and
            # only then pay for a fully converged replacement run.
            cand = y.reshape(-1, 1)
            if self._probe_max(cand) > theta + margin:
                v1, _ = self._start_vector(None, extra=cand)
                theta2, y2, _ = self._run(v1, extra=cand)
                if theta2 > theta + margin:
                    theta, y = theta2, y2
        self.locked_vals.append(theta)
        self.locked = np.hstack([self.locked, y.reshape(-1, 1)])
        self.confirmed_floor = theta

    def pairs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top ``k`` locked pairs sorted by descending eigenvalue."""
        vals = np.asarray(self.locked_vals)
        order = np.argsort(-vals, kind="stable")
        return vals[order][:k], self.locked[:, order][:, :k]


class IncrementalEigen:
    """Lazily extended top-of-spectrum eigendecomposition of a fixed matrix.

    ``top(k)`` returns the ``k`` algebraically largest eigenpairs, locking
    additional pairs on demand and reusing everything already computed.
    Warm-start directions (e.g. eigenvectors of a nearby matrix) are consumed
    in order as each new pair is requested.
    """

    def __init__(self, matrix, eig_tol: float = DEFAULT_EIG_TOL,
                 warm_start: np.ndarray | None = None,
                 max_matvecs: int | None = None):
        a = _as_dense_sym(matrix)
        self.n = a.shape[0]
        self.scale = max(1.0, float(np.linalg.norm(a)))
        self.tol_abs = float(eig_tol) * self.scale
        budget = max_matvecs if max_matvecs is not None else 50 * self.n
        self._engine = _DeflatedLanczos(
            lambda x: a @ x, self.n, self.tol_abs, self.scale,
            matvecs_per_pair=budget)
        self._warm = [] if warm_start is None else [
            np.asarray(warm_start[:, i], dtype=float)
            for i in range(warm_start.shape[1])
        ]

    @property
    def matvecs_used(self) -> int:
        return self._engine.used_matvecs

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= k <= self.n:
            raise ValueError(f"need 1 <= k <= {self.n}, got {k}")
        eng = self._engine
        while len(eng.locked_vals) < k:
            i = len(eng.locked_vals)
            warm = self._warm[i] if i < len(self._warm) else None
            eng.extend(warm)
        # a warm start can lock a pair below a larger eigenvalue still in the
        # complement; keep pulling the top of the complement until it
        # confirms the k-th value
        margin = 2.0 * self.tol_abs
        while len(eng.locked_vals) < self.n:
            kth = eng.pairs(k)[0][k - 1]
            if eng.confirmed_floor <= kth + margin:
                break
            eng.extend(None)
        return eng.pairs(k)


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
        a nearby matrix), consumed in order.
    max_matvecs : int, optional
        Matrix-vector product budget per eigenpair; defaults to ``50 * n``.
        Exhausting it raises :class:`EigenSolverError` carrying the best
        residual reached.

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
