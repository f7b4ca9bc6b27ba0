import numpy as np
import pytest

import ipgm.linalg


@pytest.fixture
def eigsh_bad_residual(monkeypatch):
    """ARPACK whose first returned vector is swapped for a random unit
    vector, so the residual certificate of ``IncrementalEigen`` fails."""
    real_eigsh = ipgm.linalg.eigsh

    def perturbed(*args, **kwargs):
        vals, q = real_eigsh(*args, **kwargs)
        x = np.random.default_rng(0).standard_normal(q.shape[0])
        q = q.copy()
        q[:, 0] = x / np.linalg.norm(x)
        return vals, q

    monkeypatch.setattr(ipgm.linalg, "eigsh", perturbed)
