"""Convex-set oracles: exact projections, support points, and the feasible
inexact projection with its acceptance certificate.

A point ``w`` in the set C is accepted as an inexact projection of ``v``
relative to an anchor ``u`` when

    <v - w, y - w>  <=  phi(gamma, u, v, w)   for all y in C,

which is decidable because the left side is maximized at a support point of
C in direction ``v - w``.  Every set here has a support point, so every
projection is certified.  A box projects exactly; the spectrahedron
(unit-trace PSD matrices) projects exactly through ``project_simplex`` on
its eigenvalues, and also offers an adaptive rank-p inexact projector
that raises p until the certificate above accepts, so low-rank partial
eigendecompositions replace the full one whenever the tolerance allows.

Both spectrahedron projections return their point factored, as a
``LowRank`` W = Y Y^T with Y = Q sqrt(lam) from the eigenpairs they used;
``np.asarray`` forms the dense matrix for a caller that needs it.  The
rank-p projector also takes a factored input: a ``StepOperator`` V (the
solvers' X - alpha grad f(X)), whose top eigenpairs come from a basis of its
range for every rank (the eigensolver's range fill: V's whole spectrum,
its nonzero eigenvalues from the tridiagonal form of a small matrix and
n - k zeros whose vectors complete the basis, eigenvectors only for the
pairs asked for), from products with V when it is the step from a shifted
point c I + Y Y^T and has no range basis (its Krylov fill, and LAPACK
after a miss), or else from LAPACK on V's lower triangle (its LAPACK
fill), and a factored anchor U (a ``LowRank``, shifted or not), whose
||U||^2 and q^T U q come from its factor and shift.  A dense V takes the
LAPACK fill.  The input alone picks the fill.
The exact projection of a ``StepOperator`` at an unshifted anchor asks
LAPACK for V's top m pairs, m one more than the anchor's rank and doubled
until the m-th pair gets no simplex weight.  A dense V, and the step from a
shifted point, are fully decomposed: the first exact projection of a solve
from a start with c != 0 keeps most of the n pairs.
Both projections take their LAPACK pairs from ``subset_eigh``, which falls
back to a full ``eigh`` when LAPACK fails or returns too few pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.linalg.lapack import dpotrf

from .linalg import (
    EigenSolverError,
    IncrementalEigen,
    LowRank,
    StepOperator,
    frobenius_inner,
    largest_eigenpair,
    subset_eigh,
    symmetrize,
)
from .schedules import ForcingParams, ToleranceFn, _squares

__all__ = [
    "ConvexSetOracle",
    "InexactProjection",
    "Box",
    "Spectrahedron",
    "ExactProjectionAdapter",
    "project_simplex",
    "exact_project_box",
    "exact_project_spectrahedron",
    "support_point_spectrahedron",
    "inexact_project_spectrahedron",
    "certify_inexact_projection",
]

DEFAULT_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class InexactProjection:
    """Result of an inexact projection.

    ``certificate_gap`` is ``<v - w, y* - w> - phi(gamma, u, v, w)`` for the
    support point y* used in the acceptance test; nonpositive means ``w``
    satisfies the inexact-projection contract.  ``None`` marks projections
    produced by an exact oracle, which qualify without a certificate.
    ``state`` carries the rank the next call on a nearby input starts
    from.  ``point`` is a ``LowRank`` for the spectrahedron projections and
    an array otherwise.  The rank-p projector also records the eigensolver's
    work: ``matvecs`` (the products its Krylov fills spent and one
    certificate product per pair a fill computed and can serve, asked for
    or not), ``fills`` (cache fills), ``dense_fill`` (whether a LAPACK fill
    of the dense matrix served it), ``ranks_tried`` (p_used - p_start + 1)
    and ``range_dim`` (the dimension k of the range fill that served the
    pairs, ``None`` otherwise).  The fill that served the accepted pairs is
    the range fill when ``range_dim`` is set, a LAPACK fill when
    ``dense_fill`` is true (``fills`` 2 after a Krylov miss, or once the
    rank outgrew the Krylov fill), and the Krylov fill when neither holds.
    """

    point: np.ndarray | LowRank
    rank_used: int | None = None
    certificate_gap: float | None = None
    phi_value: float | None = None
    state: Any = None
    matvecs: int | None = None
    fills: int | None = None
    dense_fill: bool | None = None
    ranks_tried: int | None = None
    range_dim: int | None = None


class ConvexSetOracle:
    """Capabilities of a closed convex set C.

    Subclasses implement ``contains``, ``support_point`` and
    ``exact_project``.  ``inexact_project`` defaults to the exact projection
    (which always satisfies the contract) with its certificate gap; sets
    with a cheaper relaxed projection override it.
    """

    name = "convex-set"

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        raise NotImplementedError

    def support_point(self, c) -> np.ndarray:
        """A maximizer of <c, y> over y in C."""
        raise NotImplementedError

    def exact_project(self, v) -> np.ndarray:
        raise NotImplementedError

    def inexact_project(self, v, u, gamma: ForcingParams, phi: ToleranceFn,
                        state: Any = None) -> InexactProjection:
        w = self.exact_project(v)
        d = np.asarray(v, dtype=float) - w
        gap = float(frobenius_inner(d, self.support_point(d) - w))
        phi_val = phi(gamma, u, v, w)
        return InexactProjection(point=w, certificate_gap=gap - phi_val,
                                 phi_value=phi_val, state=state)


# ---------------------------------------------------------------------------
# simplex


def project_simplex(d) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold in O(p log p): with the entries u sorted decreasingly
    and their partial sums c, the unique threshold theta satisfying
    sum(max(d - theta, 0)) = 1 is (c_k - 1)/k for the last k with
    u_k > (c_k - 1)/k.  The rank-p projector calls this twice a step on
    a few values, so it uses ndarray methods and no numpy wrappers.  Raises
    ``ValueError`` on an empty or non-finite input.
    """
    d = np.asarray(d, dtype=float).ravel()
    p = d.size
    if p == 0:
        raise ValueError("cannot project an empty vector")
    u = d.copy()
    u.sort()
    u = u[::-1]
    # the sort puts NaN first and +inf next (descending), -inf last
    for end in (u[0], u[-1]):
        if not math.isfinite(end):
            raise ValueError(
                f"cannot project a vector with a non-finite entry ({end})")
    css = u.cumsum()
    bound = css - 1.0
    bound /= np.arange(1, p + 1)
    k = int((u > bound).nonzero()[0][-1]) + 1
    theta = (css[k - 1] - 1.0) / k
    return np.maximum(d - theta, 0.0)


# ---------------------------------------------------------------------------
# box


def exact_project_box(v, lower, upper) -> np.ndarray:
    return np.clip(np.asarray(v, dtype=float), lower, upper)


@dataclass(frozen=True)
class Box(ConvexSetOracle):
    lower: np.ndarray
    upper: np.ndarray
    name = "box"

    @classmethod
    def make(cls, lower, upper) -> "Box":
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("invalid box bounds")
        return cls(lower=lo, upper=hi)

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - feas_tol)
                    and np.all(x <= self.upper + feas_tol))

    def support_point(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        return np.where(c >= 0, self.upper, self.lower).astype(float)

    def exact_project(self, v) -> np.ndarray:
        return exact_project_box(v, self.lower, self.upper)


# ---------------------------------------------------------------------------
# spectrahedron


def _positive_factor(vals: np.ndarray, vecs: np.ndarray,
                     lam: np.ndarray) -> LowRank:
    """Q sqrt(lam) over the pairs with a positive simplex weight.

    The weights are max(vals - threshold, 0) in the order of ``vals``, so
    the positive ones are a run and only those eigenvectors contribute.
    """
    keep = lam > 0.0
    return LowRank(vecs[:, keep] * np.sqrt(lam[keep]))


def exact_project_spectrahedron(v) -> LowRank:
    """Exact projection onto {W symmetric PSD, tr W = 1}.

    The eigenvalues of the symmetric part of V are projected onto the
    simplex, and the result is factored over the positive weights.  A dense
    V is symmetrized and fully decomposed.  For a ``StepOperator`` only the
    top m pairs are computed, m = (rank of the anchor) + 1 and doubled until
    the m-th pair gets weight 0 or m = n.  The simplex threshold is
    max_j (lam_1 + ... + lam_j - 1)/j and the weights are positive on a
    prefix of the sorted eigenvalues (Condat, Math. Prog. 2016), so a zero
    m-th weight means every positive weight is among the m pairs, and the
    threshold and W are those of the full decomposition.  On the exact
    solvers' path the anchor is the last projection, factored over its
    positive weights, so one LAPACK call usually suffices.  The step from a
    shifted point (a ``StepOperator`` whose anchor has a nonzero shift) is
    fully decomposed from its lower triangle, like a dense V: a start's W
    keeps 193-284 of 300 pairs on the bench instances.  An anchor with
    shift 0 takes the count path however it was built.
    """
    if isinstance(v, StepOperator) and not v.anchor.shift:
        n = v.shape[0]
        m = min(n, v.anchor.rank + 1)
        while True:
            evals, evecs = subset_eigh(v, m)
            lam = project_simplex(evals)
            if lam[-1] == 0.0 or evals.size == n:
                break
            m = min(n, 2 * m)
    else:
        a = (v.lower_fortran() if isinstance(v, StepOperator)
             else symmetrize(np.asarray(v, dtype=float)))
        evals, evecs = np.linalg.eigh(a, UPLO="L")
        lam = project_simplex(evals)
    return _positive_factor(evals, evecs, lam)


def support_point_spectrahedron(c) -> np.ndarray:
    """Maximizer q q^T of <c, Y> over the spectrahedron."""
    cs = symmetrize(np.asarray(c, dtype=float))
    _, q = largest_eigenpair(cs)
    return np.outer(q, q)


def _squared_norm(a: np.ndarray) -> float:
    return float(np.vdot(a, a))


def inexact_project_spectrahedron(v, u, gamma: ForcingParams, phi: ToleranceFn,
                                  p_start: int = 1) -> InexactProjection:
    """Adaptive rank-p inexact projection onto the spectrahedron.

    For p = p_start, p_start + 1, ... the rank-p candidate

        W_p = sum_i lam_i q_i q_i^T,   lam = simplex projection of the p
                                       largest eigenvalues of V,

    is tested against the certificate <W_p - V, Y_p - W_p> >= -phi with
    Y_p the support point in direction V - W_p;  the first accepted W_p is
    returned together with the rank used and the signed certificate gap.
    At p = n the candidate is the exact projection and always accepted.

    Every term of the certificate comes from the eigenpairs of V, which
    ``IncrementalEigen`` certifies by residual and orthonormality: on the
    span of q_1..q_p, V - W_p has the eigenvalues vals[:p] - lam, and on its
    complement it acts as V, whose largest remaining eigenvalue is vals[p].
    phi, custom forms included, is evaluated from the squared distances
    ||V - U||^2, ||W_p - V||^2 and ||W_p - U||^2 taken from the same pairs.

    A dense V is symmetrized first.  A ``StepOperator`` V is symmetric by
    construction and is applied through its factors; when U is its anchor,
    ||V - U||^2 is the operator's ``sq_dist``.  A ``LowRank`` U gives
    ||U||^2 and q^T U q from its factor and shift.  The accepted W_p is
    returned as the ``LowRank`` factor Q_p sqrt(lam).

    The pairs come from one ``IncrementalEigen`` per call, and the input
    alone picks its fill.  For a ``StepOperator`` whose range basis has
    k < n columns one range fill serves every rank (``range_dim`` records
    k): V's nonzero eigenvalues are those of a k x k matrix, from its
    tridiagonal form, and its other n - k are zeros, whose vectors complete
    the basis; eigenvectors are computed only for the top pairs asked for
    so far, again in one call when a rank reaches past them.  A rank past
    V's positive values reads zeros, whose vectors enter W_p only when the
    simplex threshold is negative.  The step from a shifted point takes a
    Krylov fill: ``eigsh`` finds its top 16 pairs (fewer when V has
    fewer eigenvalues that can lie above the shift) from products with V,
    under a product budget.  Otherwise, after a Krylov miss, and for ranks
    beyond the Krylov fill, LAPACK computes the top pairs of the dense V,
    at least 16.  Every refill, whichever fill made the block it replaces,
    holds at least twice that block's pairs.
    The returned state is the rank the next call starts from, p - 1 (at
    least 1), and ``ranks_tried`` is p - p_start + 1.
    """
    if isinstance(v, StepOperator):
        vs = v
    else:
        vs = symmetrize(np.asarray(v, dtype=float))
    n = vs.shape[0]
    if not 1 <= p_start <= n:
        raise ValueError(f"need 1 <= p_start <= {n}, got {p_start}")
    cache = IncrementalEigen(vs)
    slack = 1e-12 * cache.scale ** 2  # cache.scale = max(1, ||V||_F)
    norm_v_sq = cache.sq_norm
    if isinstance(u, LowRank):
        norm_u_sq = u.sq_norm
        u_diag = u.quad_diag
    else:
        u_arr = np.asarray(u, dtype=float)
        norm_u_sq = _squared_norm(u_arr)

        def u_diag(q):
            return np.einsum("ij,ij->j", q, u_arr @ q)
    if isinstance(v, StepOperator) and u is v.anchor:
        sq_vu = v.sq_dist
    else:
        sq_vu = _squared_norm(np.asarray(vs) - np.asarray(u, dtype=float))
    p = p_start
    while True:
        try:
            vals, vecs = cache.top(min(p + 1, n))
        except EigenSolverError as exc:
            raise EigenSolverError(
                f"partial eigendecomposition failed at rank p={p}: {exc}",
                best_residual=exc.best_residual) from exc
        uq = u_diag(vecs[:, :p])  # q_i^T U q_i
        lam = project_simplex(vals[:p])
        # scalar identities on the eigenbasis; W_p is kept factored
        w_norm_sq = float(lam @ lam)
        inner_vw = float(lam @ vals[:p])
        inner_uw = float(lam @ uq)
        sq_wv = max(0.0, norm_v_sq - 2.0 * inner_vw + w_norm_sq)
        sq_wu = max(0.0, norm_u_sq - 2.0 * inner_uw + w_norm_sq)
        # largest eigenvalue of V - W_p
        theta = float((vals[:p] - lam).max())
        if p < n:
            theta = max(theta, float(vals[p]))
        # <W_p - V, Y_p - W_p> = <V - W_p, W_p> - theta with Y_p = y y^T
        lhs = (inner_vw - w_norm_sq) - theta
        phi_val = phi.from_squares(gamma, sq_vu, sq_wv, sq_wu)
        if lhs >= -phi_val - slack or p == n:
            break
        p += 1
    point = _positive_factor(vals[:p], vecs[:, :p], lam)
    return InexactProjection(point=point, rank_used=p,
                             certificate_gap=float(-lhs - phi_val),
                             phi_value=phi_val,
                             state=max(1, p - 1),
                             matvecs=cache.matvecs_used, fills=cache.fills,
                             dense_fill=cache.dense_fill,
                             ranks_tried=p - p_start + 1,
                             range_dim=cache.range_dim)


@dataclass(frozen=True)
class Spectrahedron(ConvexSetOracle):
    """Unit-trace positive semidefinite matrices in S^n."""

    n: int
    name = "spectrahedron"

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        """Unit trace and positive semidefinite within ``feas_tol``.

        A factored X = c I + Y Y^T (a ``LowRank``) is symmetric by
        construction and its smallest eigenvalue is at least c, so
        c >= -feas_tol and its trace decide it.  A dense X is checked for
        symmetry and factored by Cholesky.
        """
        if isinstance(x, LowRank):
            return (x.shape == (self.n, self.n)
                    and bool(np.all(np.isfinite(x.gram)))
                    and x.shift >= -feas_tol
                    and abs(x.trace - 1.0) <= feas_tol)
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.n):
            return False
        norm = float(np.linalg.norm(x))
        if not np.isfinite(norm):
            return False
        if float(np.linalg.norm(x - x.T)) > feas_tol * max(1.0, norm):
            return False
        if abs(float(np.trace(x)) - 1.0) > feas_tol:
            return False
        # lambda_min(sym x) >= -feas_tol iff sym x + feas_tol I is positive
        # semidefinite, which a Cholesky factorization decides (up to
        # rounding at the boundary) in a quarter of the time of eigvalsh.
        # The shifted matrix is exactly symmetric, so its transpose is the
        # Fortran-ordered array LAPACK factors in place
        shifted = symmetrize(x)
        shifted.flat[::self.n + 1] += feas_tol
        return dpotrf(shifted.T, lower=1, clean=0, overwrite_a=1)[1] == 0

    def support_point(self, c) -> np.ndarray:
        return support_point_spectrahedron(c)

    def exact_project(self, v) -> np.ndarray:
        return exact_project_spectrahedron(v)

    def inexact_project(self, v, u, gamma: ForcingParams, phi: ToleranceFn,
                        state: int | None = None) -> InexactProjection:
        p_start = 1 if state is None else min(state, self.n)
        return inexact_project_spectrahedron(v, u, gamma, phi, p_start=p_start)


class ExactProjectionAdapter(ConvexSetOracle):
    """Wrap a set so that every inexact projection is the exact one.

    Used by the benchmark harness for the "exact" solver variants; no
    certificate is computed (the exact projection always qualifies).
    """

    def __init__(self, inner: ConvexSetOracle):
        self.inner = inner
        self.name = f"{inner.name}-exact"

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        return self.inner.contains(x, feas_tol)

    def support_point(self, c) -> np.ndarray:
        return self.inner.support_point(c)

    def exact_project(self, v) -> np.ndarray:
        return self.inner.exact_project(v)

    def inexact_project(self, v, u, gamma, phi, state=None) -> InexactProjection:
        return InexactProjection(point=self.inner.exact_project(v), state=state)


def certify_inexact_projection(c_set: ConvexSetOracle, u, v, w,
                               g: ForcingParams, phi: ToleranceFn,
                               rel_slack: float = 1e-10) -> tuple[bool, float]:
    """Decide w in P_C(phi_g, u, v) and return (verdict, signed gap).

    The quantifier over C reduces to the support point y* in direction
    v - w:  the contract holds iff <v - w, y* - w> <= phi(g, u, v, w).
    The verdict allows ``rel_slack`` times a problem-size scale on top.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    y_star = c_set.support_point(v - w)
    lhs = frobenius_inner(v - w, y_star - w)
    squares = _squares(u, v, w)
    gap = lhs - phi.from_squares(g, *squares)
    scale = max(1.0, *squares, abs(lhs))
    return gap <= rel_slack * scale, float(gap)
