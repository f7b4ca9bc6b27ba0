import numpy as np
import pytest
import scipy.sparse.linalg

import ipgm.linalg


def _random_unit(n):
    x = np.random.default_rng(0).standard_normal(n)
    return x / np.linalg.norm(x)


@pytest.fixture
def lapack_bad_residual(monkeypatch):
    """A LAPACK fill whose top vector is swapped for a random unit vector,
    so the residual certificate of ``IncrementalEigen`` fails."""
    real = ipgm.linalg.subset_eigh

    def perturbed(*args, **kwargs):
        vals, q = real(*args, **kwargs)
        q = q.copy()
        q[:, 0] = _random_unit(q.shape[0])  # the top pair
        return vals, q

    monkeypatch.setattr(ipgm.linalg, "subset_eigh", perturbed)


@pytest.fixture
def range_fill_bad_residual(monkeypatch):
    """A range fill whose top vector is swapped for a random unit vector of
    the range basis, so the residual certificate fails."""
    real = ipgm.linalg.StepOperator.range_ritz

    def perturbed(self):
        ritz = real(self)
        if ritz is None:
            return None
        vals, q, vectors = ritz

        def swapped(m):
            u = vectors(m).copy()
            u[:, 0] = _random_unit(u.shape[0])
            return u

        return vals, q, swapped

    monkeypatch.setattr(ipgm.linalg.StepOperator, "range_ritz", perturbed)


class KrylovSpy:
    """What the Krylov fills of ``IncrementalEigen`` asked ``eigsh`` for:
    ``calls`` holds (pairs asked for, products spent) per call.  Setting
    ``fault`` makes every fill miss: ``"no-convergence"`` raises ARPACK's
    ``ArpackNoConvergence`` after the real call, ``"random-top"`` swaps the
    top vector for a random unit vector, so the residual certificate
    fails."""

    def __init__(self):
        self.calls = []
        self.fault = None


@pytest.fixture
def krylov_spy(monkeypatch):
    spy = KrylovSpy()
    real = scipy.sparse.linalg.eigsh

    def spying(a, k, **kwargs):
        products = [0]

        def matvec(x):
            out = a.matvec(x)
            products[0] += 1
            return out

        counted = scipy.sparse.linalg.LinearOperator(a.shape, matvec=matvec,
                                                     dtype=a.dtype)
        try:
            vals, vecs = real(counted, k, **kwargs)
        finally:
            spy.calls.append((k, products[0]))
        if spy.fault == "no-convergence":
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "forced", vals, vecs)
        if spy.fault == "random-top":
            vecs = vecs.copy()
            vecs[:, np.argmax(vals)] = _random_unit(vecs.shape[0])
        return vals, vecs

    # the Krylov fill imports eigsh from scipy.sparse.linalg when it runs
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spying)
    return spy
