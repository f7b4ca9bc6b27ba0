"""Dense symmetric-matrix algebra and a partial eigensolver.

The projection oracles in this package repeatedly ask for a handful of
algebraically largest eigenpairs of symmetric matrices.
``IncrementalEigen`` is the one way to get them: a cache over a fixed
matrix, with every returned pair certified by its residual and the returned
vectors certified orthonormal.  It is filled in one of three ways, and
the input alone picks which, when the cache is built.  A ``StepOperator``
whose range basis has k < n columns gets a range fill, for every request:
V restricted to that basis is a k x k matrix T, whose tridiagonal form
(LAPACK ``sytrd``) gives all of V's nonzero eigenvalues (``sterf``), and
inverse iteration on it (``stein``, back-transformed by ``ormqr``) only
the eigenvectors a request needs; one ``eigh`` of T serves when inverse
iteration does not converge.  V's other n - k eigenvalues are exact
zeros, with an orthonormal complement of the basis as their vectors, so
the fill knows V's whole spectrum.  A ``StepOperator`` at a shifted
anchor (the first projection input of a solve, at a shifted start), which
has no range basis, gets a Krylov fill: ``scipy.sparse.linalg.eigsh``
computes its top m pairs from products with the operator, under a product
budget, m at most the number of its eigenvalues that can lie above the
start's shift (the operator's ``above_shift``).  Every other input, and
every request after a Krylov miss or past the Krylov fill, gets a LAPACK
fill: ``subset_eigh`` computes the top m pairs of the dense matrix with
LAPACK's MRRR driver ``evr`` (a full ``eigh`` when ``evr`` fails or
returns fewer than m).  Every refill is sized from the block it replaces,
whichever fill made it: at least twice its pairs.  Only this module
decides which fill a request gets.
``subset_eigh`` takes only a count, so every LAPACK subset call, the exact
spectrahedron projection's too, can check what it gets.
``largest_eigenpair`` is the single-pair call the support point makes.

Iterates of the spectrahedron solvers are low rank, and three types keep
them so: ``LowRank`` is a point X = c I + Y Y^T held as its shift c and its
n x r factor Y (c = 0 at every iterate; a solve's start X0 = (1 - beta)/n
I + beta e1 e1^T has c = (1 - beta)/n), ``FactoredGradient`` is the
gradient sym(P Y^T) - S of a quadratic at such a point (P = H Y, S sparse;
at a shifted point S also carries -c H), and ``StepOperator`` is the
projection input V = X - alpha G, which ``IncrementalEigen`` applies
through its factors.  Which path a point takes is decided by its shift,
never by how it was built.
At every such point the step has one form, V = c I + alpha S + sym(B Y^T)
with B = Y - alpha P, in which no term is of order alpha^2.  At c = 0,
range(V) lies in the span of S's range (a basis the objective supplies at
every point) and the 2 r columns of Y and B; at a shifted point c I and
the -c H in S leave no such basis.
Scalars (norms, inner products, distances) come from r x r matrices; each
type forms its dense n x n matrix only through ``dense()`` (also reached by
``np.asarray``), and a ``StepOperator`` also through ``lower_fortran()``,
the one triangle a LAPACK eigensolver reads.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyr2k
from scipy.linalg.lapack import (dgeqrf, dorgqr, dormqr, dstein, dsterf,
                                 dsytrd)

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

# Pairs a LAPACK or Krylov fill of a cache computes, at least.
_FIRST_FILL = 16

# Products a Krylov fill may spend per pair it asks for (16 pairs at
# least), and the seed of its start vector (and of ARPACK's restarts), so
# that repeated fills agree bit for bit.
_KRYLOV_PRODUCTS = 8
_KRYLOV_SEED = 0


@lru_cache(maxsize=64)
def _strictly_lower(k: int, n: int) -> np.ndarray:
    """The read-only k x n boolean mask of the entries below the diagonal."""
    mask = np.tri(k, n, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _qr(a: np.ndarray, want_q: bool = True, want_r: bool = True):
    """Householder QR of the m x n ``a`` straight from LAPACK's ``geqrf``
    and ``orgqr``: (Q, R) with Q m x k orthonormal and R k x n upper
    triangular, k = min(m, n); a factor not wanted is ``None``.

    These are the routines ``np.linalg.qr`` calls for its reduced and
    ``"r"`` modes, without its wrapper's cost, which dominates at the
    widths the solvers use (300 x 10, 2-core VM, OpenBLAS 1 thread: Q alone
    about 50 against 20 us, R alone 32 against 18 us).  R is
    ``np.triu(qr[:k])`` bit for bit: the same ``np.where`` over a strictly
    lower mask, which is cached per shape instead of rebuilt on each call.
    """
    qr, tau, _, info = dgeqrf(a)
    if info < 0:
        raise ValueError(f"geqrf rejected argument {-info}")
    k = min(a.shape)
    r = None
    if want_r:
        r = np.where(_strictly_lower(k, a.shape[1]), 0.0, qr[:k])
    if not want_q:
        return None, r
    q, _, info = dorgqr(qr[:, :k], tau, overwrite_a=1)
    if info < 0:
        raise ValueError(f"orgqr rejected argument {-info}")
    return q, r


def _complement(q: np.ndarray, z: int) -> np.ndarray:
    """z orthonormal columns orthogonal to the n x d orthonormal ``q``: the
    last z of the first d + z columns of the orthogonal factor of q's
    Householder QR (``geqrf``, then ``orgqr`` for d + z columns)."""
    n, d = q.shape
    qr, tau, _, info = dgeqrf(q)
    if info < 0:
        raise ValueError(f"geqrf rejected argument {-info}")
    # orgqr reads only the reflectors, in the first d columns
    a = np.empty((n, d + z), order="F")
    a[:, :d] = qr
    out, _, info = dorgqr(a, tau, overwrite_a=1)
    if info < 0:
        raise ValueError(f"orgqr rejected argument {-info}")
    return out[:, d:]


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


def _stacked_core(a: "LowRank", b: "LowRank",
                  with_q: bool = False):
    """(Q, R_a, R_b, M) with [Y_a, Y_b] = Q [R_a, R_b] and
    M = R_a R_a^T - R_b R_b^T, so that Y_a Y_a^T - Y_b Y_b^T = Q M Q^T with
    Q orthonormal (n x k, k = min(n, r_a + r_b)).

    M is formed from the triangular factor, so its entries carry rounding of
    the order of eps ||A|| rather than the eps ||A||^2 / ||A - B|| a Gram
    expansion ||A||^2 - 2 <A, B> + ||B||^2 leaves in ||A - B||^2.
    """
    k = a.factor.shape[1]
    q, r = _qr(np.concatenate([a.factor, b.factor], axis=1), want_q=with_q)
    r_a, r_b = r[:, :k], r[:, k:]
    return q, r_a, r_b, r_a @ r_a.T - r_b @ r_b.T


def _shifted_sq_norm(m: np.ndarray, d: float, n: int) -> float:
    """||Q M Q^T + d I||_F^2 for an n x k orthonormal Q: the parts on
    range(Q) and on its complement are orthogonal, so it is
    ||M + d I_k||^2 + d^2 (n - k), a sum of squares that cancels nothing.
    ``m`` is overwritten."""
    if d == 0.0:
        return float(np.vdot(m, m))
    k = m.shape[0]
    m[np.diag_indices(k)] += d
    return float(np.vdot(m, m)) + d * d * (n - k)


class LowRank(_DenseArithmetic):
    """The symmetric X = c I + Y Y^T, kept as its n x r factor Y and its
    shift c (0 unless given); positive semidefinite for c >= 0.

    The solvers' iterates have c = 0; a solve's start X0(beta) = (1 -
    beta)/n I + beta e1 e1^T has c = (1 - beta)/n and Y = sqrt(beta) e1 (no
    column at beta = 0).  ``gram`` is Y^T Y, ``trace`` is c n + tr(Y^T Y)
    and ``sq_norm`` is ||X||_F^2 = c^2 n + 2 c tr(Y^T Y) + ||Y^T Y||_F^2.
    ``dense()`` forms Y Y^T as one symmetric rank-r update (numpy calls
    ``syrk`` for ``y @ y.T``) and adds c to its diagonal, so the matrix is
    exactly symmetric.
    """

    def __init__(self, factor, shift: float = 0.0):
        y = np.ascontiguousarray(factor, dtype=float)
        if y.ndim != 2:
            raise ValueError(f"expected an n x r factor, got shape {y.shape}")
        self.shift = float(shift)
        self.factor = y
        self.shape = (y.shape[0], y.shape[0])
        self.gram = y.T @ y
        self.sq_norm = float(np.vdot(self.gram, self.gram))
        if self.shift:
            self.sq_norm += self.shift * (self.shift * y.shape[0]
                                          + 2.0 * float(np.trace(self.gram)))

    @property
    def rank(self) -> int:
        """Columns of the factor (an upper bound on the rank of Y Y^T)."""
        return self.factor.shape[1]

    @property
    def trace(self) -> float:
        return self.shift * self.shape[0] + float(np.trace(self.gram))

    def sq_distance(self, other: "LowRank") -> float:
        """||X - Z||_F^2 for another factored Z, from the stacked factors:
        X - Z = Q M Q^T + (c_X - c_Z) I."""
        return _shifted_sq_norm(_stacked_core(self, other)[3],
                                self.shift - other.shift, self.shape[0])

    def quad_diag(self, q: np.ndarray) -> np.ndarray:
        """q_i^T X q_i for the columns q_i of ``q``: ||Y^T q_i||^2 plus
        c ||q_i||^2."""
        t = self.factor.T @ q
        out = np.einsum("ij,ij->j", t, t)
        if self.shift:
            out += self.shift * np.einsum("ij,ij->j", q, q)
        return out

    def dense(self) -> np.ndarray:
        out = self.factor @ self.factor.T
        if self.shift:
            out.flat[::out.shape[0] + 1] += self.shift
        return out


class FactoredGradient(_DenseArithmetic):
    """G = sym(P Y^T) - S at the factored point X = c I + Y Y^T, S sparse
    symmetric.

    This is the gradient of a quadratic 1/2 <X, H X> - <S0, X> + const (H
    symmetric) at X, with P = H Y and S = S0 - c H (S0 itself at c = 0).
    ``sq_norm`` (||G||_F^2), ``inner(W)`` (<G, W> for a ``LowRank`` W) and
    ``secant`` come from r x r products, and ``step(alpha)`` is the
    projection input X - alpha G as an operator.
    ``s_sq_norm`` is ||S||_F^2, ``sy`` is S Y and ``s_range`` is S0's
    range as (Q_S, mu), S0 = Q_S diag(mu) Q_S^T with Q_S orthonormal, at
    every point (at a shifted one S = S0 - c H has no low-rank range);
    ``step(alpha)`` hands the range, S itself and alpha to the step
    operator, so a step copies no sparse matrix.
    """

    def __init__(self, point: LowRank, p, s, s_sq_norm: float, sy,
                 s_range):
        y = point.factor
        self.point = point
        self.p = np.asarray(p, dtype=float)
        self.s = s
        self.s_range = s_range
        yp = y.T @ self.p  # Y^T H Y
        # ||sym(P Y^T)||^2 = (<P^T P, Y^T Y> + tr((Y^T P)^2)) / 2 and
        # <sym(P Y^T), S> = <P, S Y>
        self.sq_norm = max(0.0, 0.5 * (float(np.vdot(self.p.T @ self.p,
                                                      point.gram))
                                       + float(np.vdot(yp, yp.T)))
                           - 2.0 * float(np.vdot(self.p, sy)) + s_sq_norm)
        # <G, X> = <Y^T Y, P^T Y> - <Y, S Y> + c tr G
        self._inner_point = (float(np.vdot(point.gram, yp.T))
                             - float(np.vdot(y, sy)))
        if point.shift:
            self._inner_point += point.shift * self.trace

    @cached_property
    def trace(self) -> float:
        """tr G = <P, Y> - tr S."""
        return (float(np.vdot(self.p, self.point.factor))
                - float(self.s.diagonal().sum()))

    def inner(self, w: LowRank) -> float:
        """<G, W> = <Y^T Z, P^T Z> - <Z, S Z> + c_W tr G for W = c_W I +
        Z Z^T."""
        if w is self.point:
            return self._inner_point
        z = w.factor
        out = (float(np.vdot(self.point.factor.T @ z, self.p.T @ z))
               - float(np.vdot(z, self.s @ z)))
        if w.shift:
            out += w.shift * self.trace
        return out

    def step(self, alpha: float) -> "StepOperator":
        """V = X - alpha G = c I + alpha S + sym(B Y^T) with B = Y - alpha P,
        with ||V||^2 and ||V - X||^2 = alpha^2 ||G||^2."""
        x = self.point
        sq_norm = max(0.0, x.sq_norm - 2.0 * alpha * self._inner_point
                      + alpha * alpha * self.sq_norm)
        return StepOperator(x, x.factor, x.factor - alpha * self.p, self.s,
                            alpha, sq_norm=sq_norm,
                            sq_dist=alpha * alpha * self.sq_norm,
                            s_range=self.s_range)

    def secant(self, prev: "FactoredGradient") -> tuple[float, float]:
        """(<s, s>, <s, y>) for s = X - X_prev and y = G - G_prev.

        With s = Q M Q^T + d I from the stacked factors (d the difference
        of the shifts), <Q M Q^T, sym(P Y^T)> = <M, (Q^T P) R^T>, so neither
        product cancels the way a Gram expansion of four inner products
        would when s is small; the shifts add d (tr G - tr G_prev).
        """
        q, r_a, r_b, m = _stacked_core(self.point, prev.point, with_q=True)
        t = (q.T @ self.p) @ r_a.T - (q.T @ prev.p) @ r_b.T
        if self.s is not prev.s:
            t -= q.T @ (self.s @ q) - q.T @ (prev.s @ q)
        sy = float(np.vdot(m, t))
        d = self.point.shift - prev.point.shift
        if d:
            sy += d * (self.trace - prev.trace)
        return _shifted_sq_norm(m, d, self.point.shape[0]), sy

    def dense(self) -> np.ndarray:
        return symmetrize(self.p @ self.point.factor.T) - self.s.toarray()


class StepOperator(_DenseArithmetic):
    """The projection input V = X - alpha G at a factored point X = c I +
    Y Y^T, applied through its factors.

    V = c I + alpha S + sym(B Y^T) with B = Y - alpha P and c the anchor's
    shift, S sparse and kept unscaled.  No term is of order alpha^2, so the
    Armijo rule's first step (alpha = 1e10) cancels nothing, and ``V @ x``
    costs O(n r + nnz(S)).  ``anchor`` is X, ``sq_dist`` is ||V - X||_F^2 =
    alpha^2 ||G||_F^2 and ``sq_norm`` is ||V||_F^2.  ``dense()`` forms V
    exactly symmetric.  ``s_range`` is S0's range as (Q_S, mu), S0 = Q_S
    diag(mu) Q_S^T, with S = S0 - c H.  At c = 0 ``range_ritz()`` takes V's
    spectrum from it; at a shifted anchor S holds -c H and c I has no
    low-rank range, so ``IncrementalEigen`` gives the operator a Krylov fill
    of at most ``above_shift`` pairs.
    """

    def __init__(self, anchor: LowRank, y, b, s, alpha: float,
                 sq_norm: float, sq_dist: float, s_range):
        self.anchor = anchor
        self.shape = anchor.shape
        self._r = y.shape[1]
        self._z = np.concatenate([y, b], axis=1)
        # sym(B Y^T) x = [B, Y] [Y^T x; B^T x] / 2 = W Z^T x
        self._w = np.concatenate([b, y], axis=1)
        self._w *= 0.5
        self._s = s
        self._alpha = alpha
        self.s_range = s_range
        self.sq_norm = sq_norm
        self.sq_dist = sq_dist

    @property
    def above_shift(self) -> int | None:
        """At a shifted anchor, a bound on V's eigenvalues above c for every
        alpha > 0, H positive semidefinite: V = c (I - alpha H) + (alpha S0
        + sym(B Y^T)) has at most as many as the second term has positive
        ones, S0's positive mu plus r.  ``None`` at c = 0."""
        if not self.anchor.shift:
            return None
        return int(np.count_nonzero(self.s_range[1] > 0.0)) + self._r

    def __matmul__(self, x):
        out = self._w @ (self._z.T @ x)
        sx = self._s @ x
        sx *= self._alpha
        out += sx
        if self.anchor.shift:
            out += self.anchor.shift * x
        return out

    def _alpha_s(self, order: str) -> np.ndarray:
        """alpha S plus c I as a new dense array; scaling S's entries after
        ``toarray`` gives the bits of ``(alpha * S).toarray()``."""
        out = self._s.toarray(order=order)
        out *= self._alpha
        if self.anchor.shift:
            out.flat[::out.shape[0] + 1] += self.anchor.shift
        return out

    def dense(self) -> np.ndarray:
        r = self._r
        v = symmetrize(self._z[:, r:] @ self._z[:, :r].T)
        v += self._alpha_s("C")
        return v

    def lower_fortran(self) -> np.ndarray:
        """V's lower triangle in a new Fortran-ordered array, for a LAPACK
        routine that reads one triangle and may overwrite its input.

        alpha S + c I fills the array and one ``dsyr2k`` update adds
        (B Y^T + Y B^T)/2 to its lower triangle in place, so no other
        n x n array is made; the upper triangle holds alpha S + c I alone.
        """
        r = self._r
        return dsyr2k(0.5, self._z[:, r:], self._z[:, :r], beta=1.0,
                      c=self._alpha_s("F"), lower=1, overwrite_c=1)

    def range_ritz(self) -> tuple[np.ndarray, np.ndarray,
                                  Callable[[int], np.ndarray]] | None:
        """V's whole spectrum from an orthonormal basis Q of its range.

        range(V) lies in span(Q_S, Z) with Z = [Y, B], so with
        Q = [Q_S, Q_Z] orthonormal, Q_Z spanning Z's part outside Q_S, V =
        Q T Q^T for the k x k T = sym(B_q Y_q^T) + diag(alpha mu, 0), with
        Y_q = Q^T Y and B_q = Q^T B, k = rank S + 2 r.  Returns (vals, Q,
        vectors): vals are all k eigenvalues of T, non-increasing, taken
        from its tridiagonal form, and ``vectors(m)`` gives at least T's
        top m eigenvectors U_m as columns (``_tridiagonal_eigen``).  The
        eigenpairs of V are (vals, Q U) together with n - k exact zeros,
        whose eigenvectors are any orthonormal complement of Q, so every
        value is known while only the vectors asked for are computed.
        ``None`` when k >= n, where Q could not be orthonormal, or at a
        shifted anchor, where S is not Q_S diag(mu) Q_S^T.
        """
        if self.anchor.shift:
            return None
        q_s, mu = self.s_range
        z, r = self._z, self._r
        if q_s.shape[1] + z.shape[1] >= z.shape[0]:
            return None
        # Q_Z from Z's part outside range(S), orthogonalized twice ("twice is
        # enough", Parlett 1980).  Where that part is numerically
        # rank-deficient (common: an Armijo trial stacks two factors, and
        # most constant-step inputs of an n=300 bench pass are close), the
        # first QR pads with columns that may lean on Q_S; the second pass
        # takes them off it
        q_z = _qr(z - q_s @ (q_s.T @ z), want_r=False)[0]
        q_z = _qr(q_z - q_s @ (q_s.T @ q_z), want_r=False)[0]
        q = np.concatenate([q_s, q_z], axis=1)
        w = q.T @ z
        t = symmetrize(w[:, r:] @ w[:, :r].T)
        rank_s = mu.size
        t[np.arange(rank_s), np.arange(rank_s)] += self._alpha * mu
        vals, vectors = _tridiagonal_eigen(t)
        return vals, q, vectors


def _tridiagonal_eigen(
        t: np.ndarray) -> tuple[np.ndarray, Callable[[int], np.ndarray]]:
    """Every eigenvalue of the symmetric k x k ``t``, non-increasing, and
    ``vectors(m)``, at least the top m eigenvectors of ``t`` as columns in
    the order of the values.

    ``dsytrd`` reduces a copy of t's lower triangle to a tridiagonal T_d =
    Q_T^T t Q_T and ``dsterf`` takes all k values from it.  Each call of
    ``vectors(m)`` computes the top m eigenvectors of T_d by inverse
    iteration, in one ``dstein`` call, so that the vectors of a cluster
    are orthogonalized against each other, and applies Q_T with
    ``dormqr``: for a lower-triangle reduction Q_T = diag(1, Q'), Q' the
    product of the reflectors stored below t's subdiagonal, which is what
    LAPACK's ``dormtr`` does.  Where ``dstein`` (or ``dsterf``) does not
    converge, one ``np.linalg.eigh(t)`` gives all k vectors; t is kept
    intact for it.
    """
    def full():
        vals, u = np.linalg.eigh(t)
        return vals[::-1], u[:, ::-1]

    k = t.shape[0]
    if k == 1:  # the wrappers take no empty off-diagonal
        return t[0].copy(), lambda m: np.ones((1, 1))
    c, d, e, tau, info = dsytrd(t, lower=1)
    if info < 0:
        raise ValueError(f"sytrd rejected argument {-info}")
    vals, info = dsterf(d, e)  # ascending
    if info:
        vals, u = full()
        return vals, lambda m: u
    # one unreduced block: no split of T_d, every value in block 1
    block = np.empty(k, dtype=np.int32)
    block.fill(1)
    split = np.zeros(k, dtype=np.int32)
    split[0] = k

    def vectors(m):
        z, info = dstein(d, e, vals[k - m:], block, split)
        if info > 0:
            return full()[1]
        if info < 0:
            raise ValueError(f"stein rejected argument {-info}")
        z[1:], _, info = dormqr("L", "N", c[1:, :-1], tau, z[1:], m)
        if info < 0:
            raise ValueError(f"ormqr rejected argument {-info}")
        return z[:, ::-1]

    return vals[::-1], vectors


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


class _BudgetExhausted(Exception):
    """A Krylov fill spent its product budget."""


class IncrementalEigen:
    """Top-of-spectrum eigenpairs of a fixed matrix, computed on demand.

    ``top(k)`` returns the ``k`` algebraically largest eigenvalues, in
    non-increasing order, and their eigenvectors as columns.  ``matrix`` is
    a dense symmetric array or a ``StepOperator``.  Each pair has a
    residual of at most ``EIG_TOL max(1, ||S||_F)`` and the vectors are
    orthonormal to ``EIG_TOL``.  A fill certifies every pair it can serve,
    once and as one block, when it computes them, and the cache is exactly
    that block: a request within it makes no certificate call, and one
    past it gets a new block.  ``matvecs_used`` counts the products the
    certificates spend, pairs nobody has asked for yet included, and those
    of Krylov fills.

    The blocks come from three fills, and the input alone picks them when
    the cache is built: a range basis gets the range fill, a shifted anchor
    the Krylov fill (and LAPACK after a miss), anything else LAPACK.
    ``fills`` counts them, a Krylov fill that missed included.
    A ``StepOperator`` whose ``range_ritz()`` gives a basis Q of d < n
    columns is served by the range fill for every request: V = Q T Q^T has
    T's d eigenvalues and n - d exact zeros, listed as T's values above 0,
    the zeros, then T's other values.  The zeros' vectors are an
    orthonormal complement of Q (``_complement``), on which V vanishes
    since range(V) lies in span(Q).  A request for j pairs past the m'
    pairs cached before (none at first) makes a new block: V's top
    max(j + 1, 2 m') pairs, at most n, in that order.  The vectors of T a
    block needs come from one call, so those of an eigenvalue cluster
    never come from two, and each block replaces the cache; it is still
    the same fill.  ``range_dim`` is the basis' width.

    A ``StepOperator`` at a shifted anchor (c != 0: the step from a
    shifted start X0 = c I + Y Y^T, which has no range basis) takes one
    Krylov fill, at every n where ARPACK can run: ``eigsh(which="LA")``
    computes the top m = max(k, 16) pairs from products with the operator,
    from a fixed seeded start vector, m capped at the operator's
    ``above_shift``.  It serves ``top(k)`` only while the k-th value is
    above c plus the residual tolerance, and certifies only those pairs:
    V0 = c (I - alpha H) + (alpha S0 + sym(B Y^T)) with H positive
    semidefinite has at most as many eigenvalues above c as the second term
    has positive ones (at most ``above_shift``, S0's positive eigenvalues
    plus r; a request beyond it skips the Krylov fill), and at c itself sits
    a multiple eigenvalue (directions that H, S0 and Y all miss), which
    Lanczos from one start vector cannot resolve.  That the pairs above c
    are the top ones rests on Lanczos from a random start (Saad, Numerical
    Methods for Large Eigenvalue Problems, 2011).  A miss (ARPACK fails,
    the budget of 8 products per pair asked for, 16 pairs at least, runs
    out, the fill's k-th value is not above c, or its block fails the
    certificate), and every request the fill does not serve, goes to a
    LAPACK fill.  Given products enough, ARPACK does return pairs below c,
    certified yet with values off by 5e-6 at n=200 (too few copies of c):
    hence the bound.

    A LAPACK fill, every other input's and a shifted anchor's after a
    miss, sets ``dense_fill`` and certifies every pair it returns:
    ``subset_eigh`` computes the top m = max(k, 2 m', 16) pairs of the
    dense matrix, m' the pairs cached before (none at first or after a
    Krylov miss), at most n, and m = 1 for a one-pair request; all n after
    ``subset_eigh`` falls back to a full ``eigh``.
    ``range_dim`` set means a range fill served the pairs, ``dense_fill`` a
    LAPACK fill, and neither a Krylov fill.
    ``sq_norm`` holds ``||S||_F^2`` and ``scale`` holds ``max(1,
    ||S||_F)``; a matrix whose Frobenius norm is not finite raises
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
        norm = math.sqrt(self.sq_norm)
        if not math.isfinite(norm):
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
        self._krylov = isinstance(a, StepOperator) and bool(a.anchor.shift)
        # the range fill's (vals, Q, vectors), the count of T's values above
        # 0 and T's vectors from its last vectors() call
        self._ritz = a.range_ritz() if isinstance(a, StepOperator) else None
        self._u = None
        if self._ritz is not None:
            vals, q, _ = self._ritz
            self._pos = int(np.count_nonzero(vals > 0.0))
            self.fills, self.range_dim = 1, q.shape[1]

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= k <= self.n:
            raise ValueError(f"need 1 <= k <= {self.n}, got {k}")
        if k > self._vals.size:
            if self._ritz is not None:
                self._range_fill(k)
            elif not (self._krylov and self._krylov_fill(k)):
                self._lapack_fill(k)
        return self._vals[:k], self._vecs[:, :k]

    def _range_fill(self, k: int) -> None:
        """Certify a block of V's top pairs, T's vectors lifted by Q and
        zeros from Q's complement, as the cache.

        The block is V's top max(k + 1, 2 m') pairs, m' the pairs cached
        before, at most n, in V's order: T's values above 0, then up to
        n - d zeros, then T's other values.  One pair ahead: the
        rank-p projector asks for p + 1 pairs, then p + 2, so the second
        request is served with no call of its own.  T's vectors are
        computed again only for a block that needs more than the last call
        gave, all of them in one call (``dstein`` starts each vector from
        those before it, so the count fixes the bits of all of them).
        """
        vals, q, vectors = self._ritz
        pos = self._pos
        size = min(self.n, max(k + 1, 2 * self._vals.size))
        zeros = min(self.n - vals.size, size - pos) if size > pos else 0
        m = size - zeros
        # where inverse iteration fails all of T's vectors come back, and
        # they are kept for the fill's later blocks
        u = self._u
        if m and (u is None or u.shape[1] < m):
            u = self._u = vectors(m)
        vecs = q @ u[:, :m] if m else q[:, :0]
        if zeros:
            vecs = np.concatenate([vecs[:, :pos], _complement(q, zeros),
                                   vecs[:, pos:]], axis=1)
            vals = np.concatenate([vals[:pos], np.zeros(zeros), vals[pos:m]])
        self._certify(vecs, vals[:size], "the range fill")

    def _krylov_fill(self, k: int) -> bool:
        """Certify the top m pairs that ``eigsh`` finds from products with
        the operator, those above the anchor's shift c, as the cache; False,
        with the cache untouched, on a miss.

        m is max(k, 16), at most the operator's ``above_shift`` (V's
        eigenvalues above c, at most; with k above it the fill is not
        tried) and below n - 1 (ARPACK's limit).  The products go
        through a counter that stops the fill after 8 max(m, 16) of them;
        ``matvecs_used`` adds the ones spent.  On the 16 first projections
        of the n=300 bench solves (8 instances, both step rules; medians of
        5 rounds, 2-core VM, OpenBLAS 1 thread) first counts of 16 and 32
        took 1.9 and 15.8 ms a projection: 32 pairs reach the multiple
        eigenvalue at c, spend the budget and end in a LAPACK fill.  Below
        16, ARPACK keeps 20 Lanczos vectors for fewer pairs and converges
        slower: 8 took 3.4 ms (some misses) and k itself 8.6 ms.  A cache
        takes one Krylov fill: the n=800 constant-step first projections of
        3 bench-like instances need 20 pairs and have 20 values above c,
        and a second Krylov fill of 32 pairs ran into c, spending its whole
        budget (17-22 ms each) before the LAPACK fill that served anyway.
        With omega 8 and 10 at n=120-300 (3 seeds each, beta 0, 0.5 and
        0.99, both step rules' first alpha) V0 has at most 8-11 values
        above c: a count of 16 reached c and missed in all 72 first
        projections, which took a median of 10.0 ms with the LAPACK fill
        after the miss; the capped count served 65 of 72 (median 2.5 ms).
        ARPACK keeps at least 20 Lanczos vectors, so a budget of 8 m
        products (64-88 for 8-11 pairs) ran out in the other 7, which
        wanted 75-136; the floor of 16 pairs (128 products) serves 71 of
        72.  The one it misses (n=120, seed 2, beta 0.5, the Armijo rule)
        wants 136 products.  The bench counts of 16 keep their budget.
        """
        # imported here, not with the module: scipy.sparse.linalg adds about
        # 2 MB of resident memory, which a run that takes no Krylov fill
        # (exact projections, dense inputs) need not pay
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        self._krylov = False
        n = self.n
        bound = self._a.above_shift
        m = min(max(k, _FIRST_FILL), bound)
        if k > bound or m >= n - 1:
            return False
        self.fills += 1
        budget = _KRYLOV_PRODUCTS * max(m, _FIRST_FILL)
        used = 0

        def matvec(x):
            nonlocal used
            if used == budget:
                raise _BudgetExhausted
            used += 1
            return self._a @ x

        rng = np.random.default_rng(_KRYLOV_SEED)
        try:
            vals, vecs = eigsh(LinearOperator((n, n), matvec=matvec,
                                              dtype=float),
                               k=m, which="LA", v0=rng.standard_normal(n),
                               rng=rng)
        except (ArpackError, _BudgetExhausted):
            return False
        finally:
            self.matvecs_used += used
        order = np.argsort(vals)[::-1]
        vals = vals[order]
        bound = self._a.anchor.shift + self.tol_abs
        if vals[k - 1] <= bound:
            return False
        served = int(np.count_nonzero(vals > bound))
        try:
            self._certify(np.ascontiguousarray(vecs[:, order[:served]]),
                          vals[:served], "the Krylov fill")
        except EigenSolverError:
            return False
        return True

    def _lapack_fill(self, k: int) -> None:
        """Certify the top m pairs of the dense matrix as the cache, m =
        max(k, 2 m', 16) with m' the pairs cached before, at most n.

        The floor of 16 pairs lets the rank-p projector, which asks for
        p + 1 pairs, then p + 2, ..., take its first ranks from one fill.
        The solvers' starts take the Krylov fill, so this fill's cold
        callers are dense inputs; on the 24 dense cold projections of
        ``project-cold`` (4 instances at n=400, beta 0, 0.5 and 0.99, both
        step rules' forcing parameters, ranks 2-18; medians of 5 rounds,
        2-core VM, OpenBLAS 1 thread) floors of 0, 8, 16 and 32 pairs took
        27.3, 15.7, 11.8 and 11.7 ms a projection.  A request for one pair,
        the support point's, computes only that pair.
        """
        m = min(self.n, max(k, 2 * self._vals.size,
                            _FIRST_FILL if k > 1 else 1))
        vals, vecs = subset_eigh(self._a, m)
        self.fills += 1
        self.dense_fill = True
        self._certify(np.ascontiguousarray(vecs), vals, "LAPACK")

    def _certify(self, q: np.ndarray, vals: np.ndarray, source: str) -> None:
        """Certify one fill's block of pairs (``vals``, ``q``) and make it
        the cache.

        One block product gives every residual; the largest is the square
        root of the largest column sum of squares of A Q - Q diag(vals).
        Q^T Q, with 1 taken off its diagonal, must be within the tolerance
        of zero.
        """
        aq = self._a @ q
        m = q.shape[1]
        self.matvecs_used += m
        aq -= q * vals
        worst = math.sqrt(np.einsum("ij,ij->j", aq, aq).max())
        if worst > self.tol_abs:
            raise EigenSolverError(
                f"{source} returned a pair with residual {worst:.3e} above "
                f"the tolerance {self.tol_abs:.3e}", best_residual=worst)
        # callers build scalar identities on Q, so Q^T Q = I is certified too
        gram = q.T @ q
        gram.flat[::m + 1] -= 1.0
        drift = float(abs(gram).max())
        if drift > EIG_TOL:
            raise EigenSolverError(
                f"{source} returned vectors {drift:.3e} from orthonormal, "
                f"above the tolerance {EIG_TOL:.3e}", best_residual=worst)
        self._vals, self._vecs = vals, q


def largest_eigenpair(matrix) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of a symmetric matrix and a unit eigenvector,
    from a one-pair LAPACK fill under the residual certificate of
    ``IncrementalEigen``."""
    vals, vecs = IncrementalEigen(matrix).top(1)
    return float(vals[0]), vecs[:, 0]
