"""Convex-set oracles: exact projections, support points, and the feasible
inexact projection with its acceptance certificate.

A point ``w`` in the set C is accepted as an inexact projection of ``v``
relative to an anchor ``u`` when

    <v - w, y - w>  <=  phi(gamma, u, v, w)   for all y in C,

which is decidable because the left side is maximized at a support point of
C in direction ``v - w``.  Simple sets (box, ball, simplex, Lorentz cone)
project exactly; the spectrahedron (unit-trace PSD matrices) additionally
offers an adaptive rank-p inexact projector that raises p until the
certificate above accepts, so low-rank partial eigendecompositions replace
the full one whenever the tolerance allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import (
    EigenSolverError,
    IncrementalEigen,
    frobenius_inner,
    frobenius_norm,
    largest_eigenpair,
    symmetrize,
)
from .schedules import ForcingParams, ToleranceFn

__all__ = [
    "ConvexSetOracle",
    "InexactProjection",
    "UnsupportedOracleCapability",
    "Box",
    "Ball",
    "SimplexSet",
    "LorentzCone",
    "Spectrahedron",
    "SpectrahedronState",
    "ExactProjectionAdapter",
    "project_simplex",
    "exact_project_box",
    "exact_project_ball",
    "exact_project_lorentz",
    "exact_project_spectrahedron",
    "support_point_spectrahedron",
    "inexact_project_spectrahedron",
    "certify_inexact_projection",
]

DEFAULT_FEAS_TOL = 1e-9


class UnsupportedOracleCapability(NotImplementedError):
    """The set oracle does not implement the requested capability."""


@dataclass(frozen=True)
class InexactProjection:
    """Result of an inexact projection.

    ``certificate_gap`` is ``<v - w, y* - w> - phi(gamma, u, v, w)`` for the
    support point y* used in the acceptance test; nonpositive means ``w``
    satisfies the inexact-projection contract.  ``None`` marks projections
    produced by an exact oracle, which qualify without a certificate.
    ``state`` carries warm-start data for the next call on a nearby input.
    """

    point: np.ndarray
    rank_used: int | None = None
    certificate_gap: float | None = None
    phi_value: float | None = None
    state: Any = None


class ConvexSetOracle:
    """Capabilities of a closed convex set C.

    Subclasses implement ``contains`` and whichever of ``support_point`` /
    ``exact_project`` the set admits.  ``inexact_project`` defaults to the
    exact projection (which always satisfies the contract); sets with a
    cheaper relaxed projection override it.
    """

    name = "convex-set"

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        raise NotImplementedError

    def support_point(self, c) -> np.ndarray:
        """A maximizer of <c, y> over y in C."""
        raise UnsupportedOracleCapability(
            f"{self.name} has no support-point oracle")

    def exact_project(self, v) -> np.ndarray:
        raise UnsupportedOracleCapability(
            f"{self.name} has no exact projection")

    def inexact_project(self, v, u, gamma: ForcingParams, phi: ToleranceFn,
                        state: Any = None) -> InexactProjection:
        w = self.exact_project(v)
        try:
            y = self.support_point(np.asarray(v, dtype=float) - w)
            gap = float(frobenius_inner(np.asarray(v, dtype=float) - w, y - w))
            phi_val = phi(gamma, u, v, w)
            return InexactProjection(point=w, certificate_gap=gap - phi_val,
                                     phi_value=phi_val, state=state)
        except UnsupportedOracleCapability:
            return InexactProjection(point=w, state=state)


# ---------------------------------------------------------------------------
# simplex


def project_simplex(d) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold in O(p log p): with the entries sorted decreasingly,
    the unique threshold theta satisfying sum(max(d - theta, 0)) = 1 is found
    among the partial-sum candidates.
    """
    d = np.asarray(d, dtype=float).ravel()
    p = d.size
    if p == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(d)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, p + 1)
    support = u - (css - 1.0) / ks > 0
    k = int(np.nonzero(support)[0][-1]) + 1
    theta = (css[k - 1] - 1.0) / k
    return np.maximum(d - theta, 0.0)


@dataclass(frozen=True)
class SimplexSet(ConvexSetOracle):
    """Probability simplex in R^p."""

    p: int
    name = "simplex"

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return (x.size == self.p and np.all(x >= -feas_tol)
                and abs(float(np.sum(x)) - 1.0) <= feas_tol)

    def support_point(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        y = np.zeros(self.p)
        y[int(np.argmax(c))] = 1.0
        return y

    def exact_project(self, v) -> np.ndarray:
        return project_simplex(v)


# ---------------------------------------------------------------------------
# box, ball, Lorentz cone


def exact_project_box(v, lower, upper) -> np.ndarray:
    return np.clip(np.asarray(v, dtype=float), lower, upper)


def exact_project_ball(v, center, radius: float) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    center = np.asarray(center, dtype=float)
    d = v - center
    nd = np.linalg.norm(d)
    if nd <= radius:
        return v.copy()
    return center + (radius / nd) * d


def exact_project_lorentz(v) -> np.ndarray:
    """Projection onto {(x, t): ||x|| <= t}, with t the last coordinate."""
    v = np.asarray(v, dtype=float).ravel()
    x, t = v[:-1], v[-1]
    nx = np.linalg.norm(x)
    if nx <= t:
        return v.copy()
    if nx <= -t:
        return np.zeros_like(v)
    coef = 0.5 * (1.0 + t / nx)
    out = np.empty_like(v)
    out[:-1] = coef * x
    out[-1] = 0.5 * (nx + t)
    return out


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


@dataclass(frozen=True)
class Ball(ConvexSetOracle):
    center: np.ndarray
    radius: float
    name = "ball"

    @classmethod
    def make(cls, center, radius: float) -> "Ball":
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls(center=np.asarray(center, dtype=float), radius=float(radius))

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - self.center) <= self.radius + feas_tol

    def support_point(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        nc = np.linalg.norm(c)
        if nc == 0.0:
            return self.center.copy()
        return self.center + (self.radius / nc) * c

    def exact_project(self, v) -> np.ndarray:
        return exact_project_ball(v, self.center, self.radius)


@dataclass(frozen=True)
class LorentzCone(ConvexSetOracle):
    """Second-order cone; unbounded, so it has no support-point oracle."""

    dim: int
    name = "lorentz"

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float).ravel()
        return x.size == self.dim and np.linalg.norm(x[:-1]) <= x[-1] + feas_tol

    def exact_project(self, v) -> np.ndarray:
        return exact_project_lorentz(v)


# ---------------------------------------------------------------------------
# spectrahedron


def exact_project_spectrahedron(v) -> np.ndarray:
    """Exact projection onto {W symmetric PSD, tr W = 1}.

    Full eigendecomposition of the symmetric part, then projection of the
    eigenvalues onto the simplex.
    """
    evals, evecs = np.linalg.eigh(symmetrize(np.asarray(v, dtype=float)))
    lam = project_simplex(evals)
    # the weights are max(evals - threshold, 0) with evals ascending, so the
    # positive ones are a tail and only those eigenvectors contribute
    tail = evals.size - int(np.count_nonzero(lam))
    q = evecs[:, tail:]
    return (q * lam[tail:]) @ q.T


def support_point_spectrahedron(c) -> np.ndarray:
    """Maximizer q q^T of <c, Y> over the spectrahedron."""
    cs = symmetrize(np.asarray(c, dtype=float))
    _, q = largest_eigenpair(cs)
    return np.outer(q, q)


@dataclass(frozen=True)
class SpectrahedronState:
    """Warm-start data carried between successive inexact projections."""

    p_start: int = 1
    vectors: np.ndarray | None = None


def _squared_norm(a: np.ndarray) -> float:
    return float(np.vdot(a, a))


def inexact_project_spectrahedron(v, u, gamma: ForcingParams, phi: ToleranceFn,
                                  p_start: int = 1,
                                  warm_vectors: np.ndarray | None = None
                                  ) -> InexactProjection:
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

    The pairs come from one ``IncrementalEigen`` per call, whose product
    budget bounds the cost: once it is spent, a dense eigendecomposition
    serves every later rank.  The returned state restarts the next call at
    rank p - 1 from the first p + 1 vectors.
    """
    vs = symmetrize(np.asarray(v, dtype=float))
    u_arr = np.asarray(u, dtype=float)
    n = vs.shape[0]
    if not 1 <= p_start <= n:
        raise ValueError(f"need 1 <= p_start <= {n}, got {p_start}")
    cache = IncrementalEigen(vs, warm_start=warm_vectors)
    slack = 1e-12 * cache.scale ** 2  # cache.scale = max(1, ||V||_F)
    norm_v_sq = _squared_norm(vs)
    norm_u_sq = _squared_norm(u_arr)
    sq_vu = _squared_norm(vs - u_arr)
    fill, uq = 0, np.empty(0)  # q_i^T U q_i of the current fill's vectors
    p = p_start
    while True:
        try:
            vals, vecs = cache.top(min(p + 1, n))
        except EigenSolverError as exc:
            raise EigenSolverError(
                f"partial eigendecomposition failed at rank p={p}: {exc}",
                best_residual=exc.best_residual) from exc
        if cache.fills != fill:  # a refill replaces every cached vector
            fill, uq = cache.fills, np.empty(0)
        q_new = vecs[:, uq.size:p]
        uq = np.append(uq, np.einsum("ij,ij->j", q_new, u_arr @ q_new))
        lam = project_simplex(vals[:p])
        # scalar identities on the eigenbasis; W_p is only formed on accept
        w_norm_sq = float(lam @ lam)
        inner_vw = float(lam @ vals[:p])
        inner_uw = float(lam @ uq)
        sq_wv = max(0.0, norm_v_sq - 2.0 * inner_vw + w_norm_sq)
        sq_wu = max(0.0, norm_u_sq - 2.0 * inner_uw + w_norm_sq)
        # largest eigenvalue of V - W_p
        theta = float(np.max(vals[:p] - lam))
        if p < n:
            theta = max(theta, float(vals[p]))
        # <W_p - V, Y_p - W_p> = <V - W_p, W_p> - theta with Y_p = y y^T
        lhs = (inner_vw - w_norm_sq) - theta
        phi_val = phi.from_squares(gamma, sq_vu, sq_wv, sq_wu)
        if lhs >= -phi_val - slack or p == n:
            break
        p += 1
    q_p = vecs[:, :p]
    w_p = symmetrize((q_p * lam) @ q_p.T)
    state = SpectrahedronState(p_start=max(1, p - 1),
                               vectors=vecs[:, :min(p + 1, n)].copy())
    return InexactProjection(point=w_p, rank_used=p,
                             certificate_gap=float(-lhs - phi_val),
                             phi_value=phi_val, state=state)


@dataclass(frozen=True)
class Spectrahedron(ConvexSetOracle):
    """Unit-trace positive semidefinite matrices in S^n."""

    n: int
    name = "spectrahedron"

    def contains(self, x, feas_tol: float = DEFAULT_FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.n):
            return False
        scale = max(1.0, float(np.linalg.norm(x)))
        if float(np.linalg.norm(x - x.T)) > feas_tol * scale:
            return False
        if abs(float(np.trace(x)) - 1.0) > feas_tol:
            return False
        return float(np.linalg.eigvalsh(symmetrize(x))[0]) >= -feas_tol

    def support_point(self, c) -> np.ndarray:
        return support_point_spectrahedron(c)

    def exact_project(self, v) -> np.ndarray:
        return exact_project_spectrahedron(v)

    def inexact_project(self, v, u, gamma: ForcingParams, phi: ToleranceFn,
                        state: SpectrahedronState | None = None) -> InexactProjection:
        if state is None:
            state = SpectrahedronState()
        return inexact_project_spectrahedron(
            v, u, gamma, phi, p_start=min(state.p_start, self.n),
            warm_vectors=state.vectors)


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
    phi_val = phi(g, u, v, w)
    gap = lhs - phi_val
    scale = max(1.0,
                frobenius_norm(v - u) ** 2,
                frobenius_norm(w - v) ** 2,
                frobenius_norm(w - u) ** 2,
                abs(lhs))
    return gap <= rel_slack * scale, float(gap)
