"""Benchmark problem generators.

``SpectrahedronLSQ`` is the least-squares family min 0.5 ||A X - B||_F^2
over unit-trace PSD matrices: A is sparse (m x n, m >= n) with uniform
entries, the planted matrix Xbar is a sum of omega rank-one terms
g g^T with g carrying a (cos, sin) pair at two random positions, and
B = A Xbar.  Since tr(Xbar) = omega > 1, Xbar is infeasible and the
instances generically have a nonzero residue.  Xbar has at most 4 omega
nonzeros, so Xbar and B are kept as CSR and generation costs O(nnz(A) +
omega) plus the sparse A^T A behind ``lipschitz_L``.

``BoxQP`` is a strongly convex quadratic over a box with a closed-form
minimizer, used to exercise the contraction and fixed-point guarantees.

Both offer ``value_and_gradient``, which at a dense point returns f and
grad f from one residual A X - B (one product Q x for the box QP);
``objective()`` hands it to the solvers as the only objective callable.
At a factored point X = Y Y^T (a ``LowRank``, which the spectrahedron
projections return) ``SpectrahedronLSQ`` evaluates without an n x n pass.
With H = A^T A and S = sym(A^T B), both sparse, and P = H Y,

    f = 1/2 <Y^T P, Y^T Y> - <Y, S Y> + 1/2 ||B||^2,
    grad f = sym(P Y^T) - S   (a ``FactoredGradient``).

A solve's start X0(beta) = (1 - beta)/n I + beta e1 e1^T is also held
factored, as the ``LowRank`` c I + Y Y^T that ``structured_start`` returns
(c = (1 - beta)/n, Y = sqrt(beta) e1; c = 0 at beta = 1), like the
Armijo trials from it.  With tr H = ||A||_F^2,

    f = 1/2 (c^2 tr H + 2 c <Y, P> + <Y^T P, Y^T Y>) - c tr S - <Y, S Y>
        + 1/2 ||B||^2,
    grad f = sym(P Y^T) - (S - c H),

which stays sparse plus factored; one evaluation serves both forms, the
terms in c only at c != 0.  A dense point takes the residual path above;
``starting_point`` returns the dense matrix of that same start.  ``value``
and ``gradient`` are the two halves of ``value_and_gradient`` at the dense
matrix of their argument, so they always take the residual path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import FactoredGradient, LowRank, symmetrize
from .sets import Box, Spectrahedron
from .solver import ObjectiveOracle

__all__ = [
    "SpectrahedronLSQ",
    "BoxQP",
    "generate_instance",
    "starting_point",
    "structured_start",
    "make_boxqp",
    "default_density",
]

def default_density(n: int, m: int) -> float:
    """Sparse density for A: four expected nonzeros per column, floored at 1e-4.

    What shapes these instances is how much of X the operator observes.  At
    very low column coverage two degeneracies appear: the residual can be
    zeroed inside the feasible set (trivial instances), and low-rank iterates
    can drift into directions A is blind to, stalling the relative-change
    stopping rule.  Keeping density * m around 4 avoids both at desk scale
    while staying extremely sparse.  With fewer than four rows the default is
    a dense A (density 1).
    """
    return min(1.0, max(1e-4, 4.0 / m))


@dataclass
class SpectrahedronLSQ:
    """Instance of the least-squares problem over the spectrahedron.

    RNG streams (PCG64 children of the seed, in order): A's support and
    values; positions of the planted vectors g_i; their angles theta_i.
    ``b_mat`` is CSR, since B = A Xbar is almost empty, and the residual
    subtracts only its nonzeros.  Generation costs O(nnz(A) + omega) plus
    the sparse H = A^T A, whose entries give ``lipschitz_L`` = ||H||_F and
    which the factored evaluation reuses; no n x n array is formed.  Xbar
    is kept as the CSR ``x_bar_csr``, at most 4 omega stored entries;
    ``x_bar`` forms its dense matrix, a new n x n array on every access, so
    a caller who reads it twice should keep the array.

    ``value_and_gradient`` takes a dense X through the residual A X - B and
    a ``LowRank`` X = c I + Y Y^T through P = H Y (see the module
    docstring), at O(nnz(H) r + n r^2) for a rank-r factor.  S = sym(A^T B),
    ||B||^2 and an orthonormal basis of S's range are formed on the first
    factored evaluation.
    """

    a: sp.csr_matrix
    b_mat: sp.csr_matrix
    n: int
    m: int
    omega: int
    density: float
    seed: int
    x_bar_csr: sp.csr_matrix
    lipschitz_L: float = field(init=False)

    def __post_init__(self):
        self._h = (self.a.T @ self.a).tocsr()
        # ||H||_F from H's stored entries; no n x n array is formed
        self.lipschitz_L = float(np.linalg.norm(self._h.data))
        self._trace_h = float(np.vdot(self.a.data, self.a.data))
        # A^T built once (a.T on every call costs about 0.07 ms at n=300);
        # as CSR its products keep the accumulation order of a.T @ r
        self._a_t = self.a.T.tocsr()
        # B's nonzeros as (row, col, value); CSR holds no duplicates and the
        # other entries are +0.0, so subtracting these gives A X - B exactly
        b = self.b_mat.tocoo()
        self._b_rows, self._b_cols, self._b_vals = b.row, b.col, b.data

    @property
    def x_bar(self) -> np.ndarray:
        return self.x_bar_csr.toarray()

    @cached_property
    def _linear_term(self) -> tuple[sp.csr_matrix, float, float,
                                    tuple[np.ndarray, np.ndarray]]:
        """(S, ||S||_F^2, ||B||_F^2 / 2, (Q_S, mu)) with S = sym(A^T B),
        exactly symmetric: entry (i, j) and (j, i) both hold
        (D_ij + D_ji) / 2 for D = A^T B.

        (Q_S, mu) is S's range: S = Q_S diag(mu) Q_S^T, Q_S orthonormal
        (n x rank S).  Only the columns J of B that hold nonzeros reach D,
        so S = (D_J E_J^T + E_J D_J^T)/2 with D_J = D[:, J] and
        E_J = I[:, J].  With [D_J, E_J] = Q R (Householder), S = Q C Q^T
        for the square core C of order min(n, 2|J|), whose eigenpairs give
        Q_S and mu; eigenvalues at rounding level (|mu| <= 1e-13 max |mu|)
        are dropped.  rank S is at most 2|J| (38-40 on the benchmark
        instances, against |J| of 31-39); a range fill takes the basis
        while rank S + 2r < n.
        """
        d = self._a_t @ self.b_mat
        s = ((d + d.T) * 0.5).tocsr()
        cols = np.unique(self._b_cols)
        j = cols.size
        e_j = np.zeros((self.n, j))
        e_j[cols, np.arange(j)] = 1.0
        q, r = np.linalg.qr(np.hstack([d[:, cols].toarray(), e_j]))
        c = r[:, :j] @ r[:, j:].T
        mu, w = np.linalg.eigh(0.5 * (c + c.T))
        keep = np.abs(mu) > 1e-13 * np.max(np.abs(mu), initial=0.0)
        return (s, float(np.vdot(s.data, s.data)),
                0.5 * float(np.vdot(self._b_vals, self._b_vals)),
                (q @ w[:, keep], mu[keep]))

    @cached_property
    def _h_over_s(self) -> sp.csr_matrix:
        """The 2n x n CSR [H; S], formed once, with S from
        ``_linear_term``: one product with it gives H Y and S Y."""
        return sp.vstack([self._h, self._linear_term[0]], format="csr")

    def _factored_value_and_gradient(self, x: LowRank
                                     ) -> tuple[float, FactoredGradient]:
        """f and grad f at X = c I + Y Y^T with no n x n array (see the
        module docstring); at c != 0 the gradient's sparse part S - c H
        costs O(nnz H) and has no low-rank range, and the gradient carries
        S's range at every point.

        P = H Y and S Y are the two halves of one sparse product [H; S] Y,
        one scipy dispatch instead of two.  Each row of a CSR product is
        summed on its own, in the order of the row's stored entries, which
        stacking keeps, so both halves hold the bits of ``h @ y`` and
        ``s @ y``."""
        s, s_sq_norm, half_b_sq, s_range = self._linear_term
        c, y = x.shift, x.factor
        p_sy = self._h_over_s @ y
        p, sy = p_sy[:self.n], p_sy[self.n:]
        quad = float(np.vdot(y.T @ p, x.gram))
        lin = float(np.vdot(y, sy))
        shift_lin = 0.0
        if c:
            quad = (c * c * self._trace_h + 2.0 * c * float(np.vdot(y, p))
                    + quad)
            shift_lin = c * float(s.diagonal().sum())
            s = (s - c * self._h).tocsr()
            s_sq_norm = float(np.vdot(s.data, s.data))
            sy = sy - c * p
        value = 0.5 * quad - shift_lin - lin + half_b_sq
        return value, FactoredGradient(x, p, s, s_sq_norm, sy=sy,
                                       s_range=s_range)

    def value(self, x) -> float:
        return self.value_and_gradient(np.asarray(x))[0]

    def gradient(self, x) -> np.ndarray:
        return self.value_and_gradient(np.asarray(x))[1]

    def value_and_gradient(self, x
                           ) -> tuple[float, np.ndarray | FactoredGradient]:
        """(f, grad f) from one residual A X - B; a ``LowRank`` x is
        evaluated from its factor and gets a ``FactoredGradient``."""
        if isinstance(x, LowRank):
            return self._factored_value_and_gradient(x)
        r = self.a @ np.asarray(x, dtype=float)
        r[self._b_rows, self._b_cols] -= self._b_vals
        return 0.5 * float(np.vdot(r, r)), symmetrize(self._a_t @ r)

    def objective(self) -> ObjectiveOracle:
        return ObjectiveOracle(self.value_and_gradient,
                               lipschitz_L=self.lipschitz_L)

    def feasible_set(self) -> Spectrahedron:
        return Spectrahedron(self.n)


def generate_instance(n: int, m: int, omega: int, density: float | None = None,
                      seed: int = 0) -> SpectrahedronLSQ:
    """Generate a seeded instance; deterministic bit-for-bit given the seed."""
    if not (isinstance(n, (int, np.integer)) and isinstance(m, (int, np.integer))):
        raise ValueError("n and m must be integers")
    if not m >= n >= 2:
        raise ValueError(f"need m >= n >= 2, got n={n}, m={m}")
    if not omega > 1:
        raise ValueError(f"need omega > 1, got {omega}")
    if density is None:
        density = default_density(n, m)
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    ss_a, ss_pos, ss_theta = np.random.SeedSequence(seed).spawn(3)
    rng_a = np.random.default_rng(ss_a)
    rng_pos = np.random.default_rng(ss_pos)
    rng_theta = np.random.default_rng(ss_theta)

    nnz = max(1, int(round(density * m * n)))
    flat = rng_a.choice(m * n, size=nnz, replace=False)
    vals = rng_a.uniform(-1.0, 1.0, size=nnz)
    rows, cols = np.divmod(flat, n)
    a = sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()
    a.sort_indices()
    if a.count_nonzero() == 0:
        raise ValueError("generated A is identically zero; raise the density")

    planted = np.empty((omega, 2), dtype=np.intp)
    terms = np.empty((omega, 2))
    for i in range(omega):
        planted[i] = rng_pos.choice(n, size=2, replace=False)
        theta = rng_theta.uniform(0.0, 2.0 * np.pi)
        terms[i] = np.cos(theta), np.sin(theta)
    # each g g^T touches only its 2 x 2 block, so Xbar is summed on the
    # sorted union U of the planted positions, each entry's terms in the
    # order a dense n x n sum adds them, with no n x n array
    union, local = np.unique(planted, return_inverse=True)
    local = local.reshape(omega, 2)
    u = union.size
    block = np.zeros((u, u))
    for pos, g in zip(local, terms):
        block[np.ix_(pos, pos)] += np.outer(g, g)
    # Xbar as CSR on the union of those blocks (U is sorted, so the local
    # order of the entries is their global order).  The sparse product adds
    # each entry's nonzero terms in the order the dense a @ Xbar does and
    # stores no entry that sums to zero, so B holds the dense product's bits.
    rows, cols = np.divmod(
        np.unique(local[:, :, None] * u + local[:, None, :]), u)
    x_bar = sp.csr_matrix((block[rows, cols], (union[rows], union[cols])),
                          shape=(n, n))
    return SpectrahedronLSQ(a=a, b_mat=a @ x_bar, n=int(n), m=int(m),
                            omega=int(omega), density=float(density),
                            seed=int(seed), x_bar_csr=x_bar)


def structured_start(beta: float, n: int) -> LowRank:
    """The feasible start (1 - beta) (1/n) I + beta e1 e1^T held as the
    ``LowRank`` c I + Y Y^T with c = (1 - beta)/n and Y = sqrt(beta) e1 (no
    column at beta = 0), so the solvers evaluate it and take its first
    projection without n x n arrays.  At beta = 1 the shift is exactly 0,
    so its steps take the range fill and the exact projection's count path
    like any factored iterate."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    y = np.zeros((n, 1 if beta > 0.0 else 0))
    if beta > 0.0:
        y[0, 0] = np.sqrt(beta)
    return LowRank(y, (1.0 - beta) / n)


def starting_point(beta: float, n: int) -> np.ndarray:
    """The dense matrix of ``structured_start(beta, n)``."""
    return structured_start(beta, n).dense()


# ---------------------------------------------------------------------------
# box-constrained strongly convex quadratic


@dataclass
class BoxQP:
    """f(x) = 0.5 x^T Q x - b^T x over a box, Q symmetric positive definite.

    ``x_star`` is the constrained minimizer when known in closed form
    (unconstrained minimizer interior, or n = 1).
    """

    q_mat: np.ndarray
    b_vec: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    mu: float
    lipschitz_L: float
    x_star: np.ndarray | None = None

    def value(self, x) -> float:
        return self.value_and_gradient(np.asarray(x))[0]

    def gradient(self, x) -> np.ndarray:
        return self.value_and_gradient(np.asarray(x))[1]

    def value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """(f, grad f) from one product Q x."""
        x = np.asarray(x, dtype=float)
        qx = self.q_mat @ x
        return 0.5 * float(x @ qx) - float(self.b_vec @ x), qx - self.b_vec

    def objective(self) -> ObjectiveOracle:
        f_star = self.value(self.x_star) if self.x_star is not None else None
        return ObjectiveOracle(self.value_and_gradient,
                               lipschitz_L=self.lipschitz_L,
                               opt_value_hint=f_star)

    def feasible_set(self) -> Box:
        return Box.make(self.lower, self.upper)


def make_boxqp(n: int, mu: float, lipschitz_L: float, seed: int = 0) -> BoxQP:
    """Random QP with spectrum spanning [mu, L] on the unit box.

    The unconstrained minimizer is placed inside the box, so the constrained
    solution is known exactly.
    """
    if not 0.0 < mu <= lipschitz_L:
        raise ValueError("need 0 < mu <= L")
    rng = np.random.default_rng(seed)
    if n == 1:
        q = np.array([[mu]])
        target = np.array([rng.uniform(0.2, 0.8)])
    else:
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = np.linspace(mu, lipschitz_L, n)
        q = symmetrize((basis * spectrum) @ basis.T)
        target = rng.uniform(0.2, 0.8, size=n)
    b = q @ target
    return BoxQP(q_mat=q, b_vec=b, lower=np.zeros(n), upper=np.ones(n),
                 mu=mu, lipschitz_L=(mu if n == 1 else lipschitz_L),
                 x_star=target)
