"""Dense symmetric-matrix algebra and a partial eigensolver.

The projection oracles in this package repeatedly ask for a handful of
algebraically largest eigenpairs of symmetric matrices.
``IncrementalEigen`` is the one way to get them: a cache over a fixed
matrix, with every returned pair certified by its residual and the returned
vectors certified orthonormal.  It is filled in one of two ways.  A
``StepOperator`` whose range has a known basis of fewer than n columns gets
a range fill: one ``eigh`` of V restricted to that basis gives V's whole
nonzero spectrum.  Every other request gets a LAPACK fill:
``subset_eigh`` computes the top m pairs of the dense matrix with LAPACK's
MRRR driver ``evr`` (a full ``eigh`` when ``evr`` fails or returns fewer
than m), m doubling on each refill.  ``subset_eigh`` takes only a count,
so every LAPACK subset call, the exact spectrahedron projection's too, can
check what it gets.  ``largest_eigenpair`` is the single-pair call the
support point makes.

Iterates of the spectrahedron solvers are low rank, and three types keep
them so: ``LowRank`` is a point X = Y Y^T held as its n x r factor Y,
``FactoredGradient`` is the gradient sym(P Y^T) - S of a quadratic at such
a point (P = H Y, S sparse), and ``StepOperator`` is the projection input
V = X - alpha G, which ``IncrementalEigen`` applies through its factors.
With X = Y Y^T the step is V = Z+ Z+^T - Z- Z-^T + alpha S, so range(V) lies
in the span of S's range (a basis the objective supplies) and the 2 r
columns of Z+ and Z-.
Scalars (norms, inner products, distances) come from r x r matrices; each
type forms its dense n x n matrix only through ``dense()`` (also reached by
``np.asarray``), and a ``StepOperator`` also through ``lower_fortran()``,
the one triangle a LAPACK eigensolver reads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dgeqrf, dorgqr

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
    "subset_eigh",
]

# Residual tolerance of every returned pair, relative to max(1, ||S||_F),
# and the tolerance on the orthonormality of the returned vectors.
EIG_TOL = 1e-9

# Pairs the first LAPACK fill of a cache computes, at least.
_FIRST_FILL = 16

# A column of Q_Z with a component above this along Q_S is projected again.
_PAD_TOL = 1e-12


def _qr(a: np.ndarray, want_q: bool = True, want_r: bool = True):
    """Householder QR of the m x n ``a`` straight from LAPACK's ``geqrf``
    and ``orgqr``: (Q, R) with Q m x k orthonormal and R k x n upper
    triangular, k = min(m, n); a factor not wanted is ``None``.

    These are the routines ``np.linalg.qr`` calls for its reduced and
    ``"r"`` modes, without its wrapper's cost, which dominates at the
    widths the solvers use (300 x 10, 2-core VM, OpenBLAS 1 thread: Q alone
    about 50 against 20 us, R alone 32 against 18 us).
    """
    qr, tau, _, info = dgeqrf(a)
    if info < 0:
        raise ValueError(f"geqrf rejected argument {-info}")
    k = min(a.shape)
    r = np.triu(qr[:k]) if want_r else None
    if not want_q:
        return None, r
    q, _, info = dorgqr(qr[:, :k], tau, overwrite_a=1)
    if info < 0:
        raise ValueError(f"orgqr rejected argument {-info}")
    return q, r


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T)/2 as float64."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    s = m + m.T
    s *= 0.5
    return s


class EigenSolverError(RuntimeError):
    """The matrix is not finite, or a fill of ``IncrementalEigen`` returned
    pairs that fail their residual or orthonormality certificate.

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
    q, r = _qr(stacked, want_q=with_q)
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
    ``s_range``, when given, is S's range as (Q_S, mu), S = Q_S diag(mu)
    Q_S^T with Q_S orthonormal; ``step(alpha)`` hands it, S itself and
    alpha to the step operator, so a step copies no sparse matrix.
    """

    def __init__(self, point: LowRank, p, s, s_sq_norm: float, sy=None,
                 s_range=None):
        y = point.factor
        self.point = point
        self.p = np.asarray(p, dtype=float)
        self.s = s
        self.s_range = s_range
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
        return StepOperator(x, x.factor - half, half, self.s, alpha,
                            sq_norm=sq_norm,
                            sq_dist=alpha * alpha * self.sq_norm,
                            s_range=self.s_range)

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

    V = Z+ Z+^T - Z- Z-^T + alpha S with Z+ = Y - (alpha/2) P and
    Z- = (alpha/2) P, S sparse and kept unscaled, so ``V @ x`` costs
    O(n r + nnz(S)).  ``anchor`` is X, ``sq_dist`` is ||V - X||_F^2 =
    alpha^2 ||G||_F^2 and ``sq_norm`` is ||V||_F^2.  ``dense()`` forms V
    exactly symmetric from alpha S and two rank-r updates.  ``s_range``,
    when given, is S's range as (Q_S, mu), S = Q_S diag(mu) Q_S^T;
    ``range_ritz()`` then takes V's spectrum from V's range.
    """

    def __init__(self, anchor: LowRank, z_plus, z_minus, s, alpha: float,
                 sq_norm: float, sq_dist: float, s_range=None):
        self.anchor = anchor
        self._r = z_plus.shape[1]
        self._z = np.hstack([z_plus, z_minus])
        self._s = s
        self._alpha = alpha
        self.s_range = s_range
        self.sq_norm = sq_norm
        self.sq_dist = sq_dist

    @property
    def shape(self) -> tuple[int, int]:
        return self.anchor.shape

    def __matmul__(self, x):
        t = self._z.T @ x
        t[self._r:] *= -1.0
        out = self._z @ t
        sx = self._s @ x
        sx *= self._alpha
        out += sx
        return out

    def _alpha_s(self, order: str) -> np.ndarray:
        """alpha S as a new dense array; scaling S's entries after
        ``toarray`` gives the bits of ``(alpha * S).toarray()``."""
        out = self._s.toarray(order=order)
        out *= self._alpha
        return out

    def dense(self) -> np.ndarray:
        z_plus = np.ascontiguousarray(self._z[:, :self._r])
        z_minus = np.ascontiguousarray(self._z[:, self._r:])
        v = self._alpha_s("C")
        v += z_plus @ z_plus.T
        v -= z_minus @ z_minus.T
        return v

    def lower_fortran(self) -> np.ndarray:
        """V's lower triangle in a new Fortran-ordered array, for a LAPACK
        routine that reads one triangle and may overwrite its input.

        alpha S fills the array and two ``dsyrk`` updates add Z+ Z+^T and
        -Z- Z-^T to its lower triangle in place, so no other n x n array is
        made; the upper triangle holds alpha S alone.
        """
        out = self._alpha_s("F")
        for sign, z in ((1.0, self._z[:, :self._r]),
                        (-1.0, self._z[:, self._r:])):
            out = dsyrk(sign, z, beta=1.0, c=out, lower=1, overwrite_c=1)
        return out

    def range_ritz(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """V's nonzero spectrum from an orthonormal basis Q of its range.

        range(V) lies in span(Q_S, Z) with Z = [Z+, Z-], so with
        Q = [Q_S, Q_Z] orthonormal, Q_Z spanning Z's part outside Q_S, V =
        Q T Q^T for the k x k T = (Q^T Z) diag(+1, -1) (Q^T Z)^T +
        diag(mu, 0), k = rank S + 2 r.  Returns (vals, Q, U) with
        T = U diag(vals) U^T, vals non-increasing: the eigenpairs of V are
        (vals, Q U) together with n - k zeros.  ``None`` when S's range is
        unknown or k >= n, where Q could not be orthonormal.
        """
        if self.s_range is None:
            return None
        q_s, mu = self.s_range
        z, r = self._z, self._r
        if q_s.shape[1] + z.shape[1] >= z.shape[0]:
            return None
        # Z's part outside range(S); the second pass removes what rounding
        # leaves of the first
        rest = z - q_s @ (q_s.T @ z)
        rest -= q_s @ (q_s.T @ rest)
        q_z = _qr(rest, want_r=False)[0]
        # where Z's part outside Q_S is numerically rank-deficient, a column
        # of Q_Z with a tiny |R_ii| is mostly rounding, which may lean on Q_S,
        # and so may the columns after it.  This is common, not an edge case:
        # an Armijo trial stacks two factors, and on the constant-step inputs
        # of an n=300 bench pass the median min/max |R_ii| is 1e-5 (about 370
        # of the pass's 634 range fills take this branch).  The projection of
        # those columns still spans Z's part outside Q_S
        c = q_s.T @ q_z
        pad = np.max(np.abs(c), axis=0, initial=0.0) > _PAD_TOL
        if pad.any():
            q_z = _qr(np.hstack([q_z[:, ~pad],
                                 q_z[:, pad] - q_s @ c[:, pad]]),
                      want_r=False)[0]
        q = np.hstack([q_s, q_z])
        w = q.T @ z
        t = w[:, :r] @ w[:, :r].T
        t -= w[:, r:] @ w[:, r:].T
        rank_s = mu.size
        t[np.arange(rank_s), np.arange(rank_s)] += self._alpha * mu
        vals, u = np.linalg.eigh(t)
        return vals[::-1], q, u[:, ::-1]


def subset_eigh(a, m: int) -> tuple[np.ndarray, np.ndarray]:
    """At least the top ``m`` eigenpairs of the symmetric ``a`` (an array or
    a ``StepOperator``), values non-increasing and vectors as columns.

    LAPACK's MRRR driver ``evr`` (``scipy.linalg.eigh`` with
    ``subset_by_index``) computes exactly the top m pairs from the lower
    triangle of a new Fortran-ordered copy (``lower_fortran()`` for an
    operator), which it may overwrite.  On some inputs with a large
    eigenvalue cluster it raises ``LinAlgError`` (an n=400 cold start whose
    cluster sits at 0.01/n) or returns fewer pairs than it was asked for
    (none, for the top pair of a 20-fold top cluster).  One full
    ``np.linalg.eigh`` of a second copy then returns all n pairs.
    """
    def lower():
        return (a.lower_fortran() if isinstance(a, StepOperator)
                else a.copy(order="F"))

    n = a.shape[0]
    try:
        vals, vecs = scipy.linalg.eigh(lower(), lower=True, overwrite_a=True,
                                       driver="evr",
                                       subset_by_index=(n - m, n - 1))
    except np.linalg.LinAlgError:
        vals = None
    if vals is None or vals.size != m:
        vals, vecs = np.linalg.eigh(lower(), UPLO="L")
    return vals[::-1], vecs[:, ::-1]


class IncrementalEigen:
    """Top-of-spectrum eigenpairs of a fixed matrix, computed on demand.

    ``top(k)`` returns the ``k`` algebraically largest eigenvalues, in
    non-increasing order, and their eigenvectors as columns.  ``matrix`` is
    a dense symmetric array or a ``StepOperator``.  Each pair has a
    residual of at most ``EIG_TOL max(1, ||S||_F)`` and the vectors are
    orthonormal to ``EIG_TOL``; ``matvecs_used`` counts the products these
    certificates spend.  A request that adds pairs also certifies and caches
    pair k + 1 when the fill serves it, so ``top(k)`` then ``top(k + 1)``
    makes one certificate call.

    The pairs come from one of two fills, each one decomposition whose
    vectors every request certifies as it adds them; ``fills`` counts them.
    A ``StepOperator`` whose ``range_ritz()`` gives a basis of fewer than n
    columns is served by a range fill: one ``eigh`` of the matrix V takes
    on that basis.  ``range_dim`` is then the basis' width.  It serves
    ``top(k)`` only while the k-th largest value is above the residual
    tolerance, since V's other eigenvalues are zeros; the first request it
    does not serve ends it, and ``range_dim`` returns to ``None``.

    Every other request refills the cache (every cached vector is replaced)
    by a LAPACK fill, which sets ``dense_fill``: ``subset_eigh`` computes the
    top m pairs of the dense matrix, m = max(k, 16) on the first LAPACK fill
    (m = 1 when it is for one pair) and at least twice the last m on each
    refill, at most n.  ``sq_norm`` holds ``||S||_F^2`` and ``scale`` holds
    ``max(1, ||S||_F)``; a matrix whose Frobenius norm is not finite raises
    :class:`EigenSolverError`.
    """

    def __init__(self, matrix):
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
        self._vals = np.empty(0)
        self._vecs = np.empty((self.n, 0))
        self.matvecs_used = 0
        self.fills = 0
        self.dense_fill = False
        self.range_dim = None
        # the fill that serves the cache: its values (non-increasing), its
        # vectors i:j as a function, the value the k-th one must exceed to
        # serve top(k), and its name for the certificate's errors
        self._fill = (np.empty(0), None, np.inf, "")
        self._pairs = 0  # pairs of the last LAPACK fill
        ritz = a.range_ritz() if isinstance(a, StepOperator) else None
        if ritz is not None:
            vals, q, u = ritz
            self._fill = (vals, lambda i, j: q @ u[:, i:j], self.tol_abs,
                          "the range fill")
            self.fills, self.range_dim = 1, q.shape[1]

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= k <= self.n:
            raise ValueError(f"need 1 <= k <= {self.n}, got {k}")
        done = self._vals.size
        if k > done:
            vals, vectors, bound, source = self._fill
            if k > vals.size or vals[k - 1] <= bound:
                self._lapack_fill(k)
                (vals, vectors, bound, source), done = self._fill, 0
            # one pair ahead when the fill serves it: the rank-p projector
            # asks for p + 1 pairs, then p + 2, so every second request is
            # served from the cache with no certificate call of its own
            end = k + 1 if k < vals.size and vals[k] > bound else k
            new = vectors(done, end)
            self._certify(new, vals[done:end], source)
            self._vals = vals[:end]
            self._vecs = np.hstack([self._vecs, new])
        return self._vals[:k], self._vecs[:, :k]

    def _lapack_fill(self, k: int) -> None:
        """Replace the fill, and every cached vector, by the top m pairs
        of the dense matrix.

        The floor of 16 pairs lets the rank-p projector, which asks for
        p + 1 pairs, then p + 2, ..., take its first ranks from one fill
        (an instance's two first projections at n=300, summed, 2-core VM,
        OpenBLAS 1 thread: floors of 0, 8, 16 and 32 pairs took 22.4, 17.8,
        14.7 and 18.8 ms).  A request for one pair, the support point's,
        computes only that pair.
        """
        n = self.n
        m = min(n, max(k, 2 * self._pairs, _FIRST_FILL if k > 1 else 1))
        vals, vecs = subset_eigh(self._a, m)
        self._fill = (vals, lambda i, j: vecs[:, i:j], -np.inf, "LAPACK")
        self._pairs = vals.size
        self._vals, self._vecs = np.empty(0), np.empty((n, 0))
        self.fills += 1
        self.dense_fill = True
        self.range_dim = None

    def _certify(self, q: np.ndarray, vals: np.ndarray, source: str) -> None:
        """Certify the new cached vectors ``q`` and their values.

        One block product gives every residual; ``q`` must be orthonormal
        and orthogonal to the vectors already cached.
        """
        aq = self._a @ q
        self.matvecs_used += q.shape[1]
        worst = float(np.max(np.linalg.norm(aq - q * vals, axis=0)))
        if worst > self.tol_abs:
            raise EigenSolverError(
                f"{source} returned a pair with residual {worst:.3e} above "
                f"the tolerance {self.tol_abs:.3e}", best_residual=worst)
        # callers build scalar identities on Q, so Q^T Q = I is certified too
        gram = np.hstack([self._vecs, q]).T @ q
        gram[self._vecs.shape[1]:] -= np.eye(q.shape[1])
        drift = float(np.max(np.abs(gram)))
        if drift > EIG_TOL:
            raise EigenSolverError(
                f"{source} returned vectors {drift:.3e} from orthonormal, "
                f"above the tolerance {EIG_TOL:.3e}", best_residual=worst)


def largest_eigenpair(matrix) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of a symmetric matrix and a unit eigenvector,
    from a one-pair LAPACK fill under the residual certificate of
    ``IncrementalEigen``."""
    vals, vecs = IncrementalEigen(matrix).top(1)
    return float(vals[0]), vecs[:, 0]
