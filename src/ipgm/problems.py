"""Benchmark problem generators.

``SpectrahedronLSQ`` is the least-squares family min 0.5 ||A X - B||_F^2
over unit-trace PSD matrices: A is sparse (m x n, m >= n) with uniform
entries, the planted matrix Xbar is a sum of omega rank-one terms
g g^T with g carrying a (cos, sin) pair at two random positions, and
B = A Xbar.  Since tr(Xbar) = omega > 1, Xbar is infeasible and the
instances generically have a nonzero residue.

``BoxQP`` is a strongly convex quadratic over a box with a closed-form
minimizer, used to exercise the contraction and fixed-point guarantees.

Both offer ``value_and_gradient``, which returns ``(value(x),
gradient(x))`` bit for bit from one residual A X - B (one product Q x for
the box QP); ``objective()`` hands it to the solvers as the only objective
callable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import symmetrize
from .sets import Box, Spectrahedron
from .solver import ObjectiveOracle

__all__ = [
    "SpectrahedronLSQ",
    "BoxQP",
    "generate_instance",
    "starting_point",
    "make_boxqp",
    "save_instance",
    "load_instance",
    "default_density",
]

_MAGIC = b"SLSQINS1"
_FORMAT_VERSION = 1


def default_density(n: int, m: int) -> float:
    """Sparse density for A: four expected nonzeros per column, floored at 1e-4.

    What shapes these instances is how much of X the operator observes.  At
    very low column coverage two degeneracies appear: the residual can be
    zeroed inside the feasible set (trivial instances), and low-rank iterates
    can drift into directions A is blind to, stalling the relative-change
    stopping rule.  Keeping density * m around 4 avoids both at desk scale
    while staying extremely sparse.
    """
    return max(1e-4, 4.0 / m)


@dataclass
class SpectrahedronLSQ:
    """Instance of the least-squares problem over the spectrahedron.

    RNG streams (PCG64 children of the seed, in order): A's support and
    values; positions of the planted vectors g_i; their angles theta_i.
    """

    a: sp.csr_matrix
    b_mat: np.ndarray
    n: int
    m: int
    omega: int
    density: float
    seed: int
    x_bar: np.ndarray | None = None
    lipschitz_L: float = field(init=False)

    def __post_init__(self):
        ata = (self.a.T @ self.a).toarray()
        self.lipschitz_L = float(np.linalg.norm(ata))
        # A^T built once (a.T on every call costs about 0.07 ms at n=300);
        # as CSR its products keep the accumulation order of a.T @ r
        self._a_t = self.a.T.tocsr()

    def _residual(self, x) -> np.ndarray:
        return self.a @ np.asarray(x, dtype=float) - self.b_mat

    def _gradient_from(self, r: np.ndarray) -> np.ndarray:
        return symmetrize(self._a_t @ r)

    def value(self, x: np.ndarray) -> float:
        r = self._residual(x)
        return 0.5 * float(np.vdot(r, r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradient_from(self._residual(x))

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(value(x), gradient(x)) from one residual A X - B."""
        r = self._residual(x)
        return 0.5 * float(np.vdot(r, r)), self._gradient_from(r)

    def objective(self) -> ObjectiveOracle:
        return ObjectiveOracle(self.value_and_gradient,
                               lipschitz_L=self.lipschitz_L)

    def feasible_set(self) -> Spectrahedron:
        return Spectrahedron(self.n)

    @property
    def metadata(self) -> dict:
        return {"n": self.n, "m": self.m, "omega": self.omega,
                "density": self.density, "seed": self.seed}


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

    x_bar = np.zeros((n, n))
    for _ in range(omega):
        pos = rng_pos.choice(n, size=2, replace=False)
        theta = rng_theta.uniform(0.0, 2.0 * np.pi)
        g = np.zeros(n)
        g[pos[0]] = np.cos(theta)
        g[pos[1]] = np.sin(theta)
        x_bar += np.outer(g, g)
    b_mat = a @ x_bar
    return SpectrahedronLSQ(a=a, b_mat=b_mat, n=int(n), m=int(m),
                            omega=int(omega), density=float(density),
                            seed=int(seed), x_bar=x_bar)


def starting_point(beta: float, n: int) -> np.ndarray:
    """Feasible start (1 - beta) (1/n) I + beta e1 e1^T."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    x0 = (1.0 - beta) / n * np.eye(n)
    x0[0, 0] += beta
    return x0


# ---------------------------------------------------------------------------
# instance container: little-endian header + COO triplets + row-major B


def save_instance(inst: SpectrahedronLSQ, path) -> None:
    coo = inst.a.tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows = coo.row[order].astype("<i8")
    cols = coo.col[order].astype("<i8")
    vals = coo.data[order].astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQQQ", _FORMAT_VERSION, inst.n, inst.m,
                             inst.omega))
        fh.write(struct.pack("<dQQ", inst.density, inst.seed, rows.size))
        fh.write(rows.tobytes())
        fh.write(cols.tobytes())
        fh.write(vals.tobytes())
        fh.write(np.ascontiguousarray(inst.b_mat, dtype="<f8").tobytes())


def load_instance(path) -> SpectrahedronLSQ:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"not an instance file (magic {magic!r})")
        version, n, m, omega = struct.unpack("<QQQQ", fh.read(32))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        density, seed, nnz = struct.unpack("<dQQ", fh.read(24))
        rows = np.frombuffer(fh.read(8 * nnz), dtype="<i8")
        cols = np.frombuffer(fh.read(8 * nnz), dtype="<i8")
        vals = np.frombuffer(fh.read(8 * nnz), dtype="<f8")
        b_mat = np.frombuffer(fh.read(8 * m * n), dtype="<f8").reshape(m, n)
    a = sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()
    a.sort_indices()
    return SpectrahedronLSQ(a=a, b_mat=b_mat.copy(), n=int(n), m=int(m),
                            omega=int(omega), density=float(density),
                            seed=int(seed), x_bar=None)


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
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ (self.q_mat @ x)) - float(self.b_vec @ x)

    def gradient(self, x) -> np.ndarray:
        return self.q_mat @ np.asarray(x, dtype=float) - self.b_vec

    def value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """(value(x), gradient(x)) from one product Q x."""
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
