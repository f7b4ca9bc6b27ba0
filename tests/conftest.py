import numpy as np
import pytest

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
        vals, q, u = ritz
        u = u.copy()
        u[:, 0] = _random_unit(u.shape[0])
        return vals, q, u

    monkeypatch.setattr(ipgm.linalg.StepOperator, "range_ritz", perturbed)
