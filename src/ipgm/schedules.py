"""Error-tolerance functions, forcing parameters and summable step budgets.

The inexact projection accepts a candidate ``w`` for the projection of ``v``
relative to an anchor ``u`` whenever the supremum of ``<v - w, y - w>`` over
the feasible set stays below a tolerance ``phi(gamma, u, v, w)``.  Every
admissible tolerance is dominated by the weighted sum

    gamma1 ||v - u||^2 + gamma2 ||w - v||^2 + gamma3 ||w - u||^2,

so ``ToleranceFn`` holds each tolerance as one function of these three
squared distances: a caller with points gets them computed, and the rank-p
projector, which knows them from eigenvalues, passes them directly.  The
constant-step solver spends a summable per-iteration budget ``a_k``
on the first two weights so that the accumulated projection error stays
finite.  ``SummableSchedule``, a name and a scale, defines a_k and the
tail bounds b_k once: the solver reads a_k and the monitors b_k from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import frobenius_norm

__all__ = [
    "ForcingParams",
    "ToleranceFn",
    "SummableSchedule",
    "forcing_for_iteration",
]


@dataclass(frozen=True)
class ForcingParams:
    """Nonnegative weights (gamma1, gamma2, gamma3) of the error tolerance."""

    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0

    def __post_init__(self):
        for name, v in (("gamma1", self.gamma1), ("gamma2", self.gamma2),
                        ("gamma3", self.gamma3)):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

    @classmethod
    def zero(cls) -> "ForcingParams":
        return cls(0.0, 0.0, 0.0)


def _squares(u, v, w) -> tuple[float, float, float]:
    """||v - u||^2, ||w - v||^2, ||w - u||^2."""
    u, v, w = (np.asarray(a, dtype=float) for a in (u, v, w))
    dists = [frobenius_norm(a - b) for a, b in ((v, u), (w, v), (w, u))]
    return tuple(d * d for d in dists)


# canonical tolerance forms over the three squared distances
# ||v - u||^2, ||w - v||^2, ||w - u||^2
_FORMS = {
    "phi1": lambda g, vu, wv, wu: g.gamma1 * vu + g.gamma2 * wv + g.gamma3 * wu,
    "phi2": lambda g, vu, wv, wu: g.gamma1 * vu,
    "phi3": lambda g, vu, wv, wu: g.gamma2 * wv,
    "phi4": lambda g, vu, wv, wu: g.gamma3 * wu,
    "phi5": lambda g, vu, wv, wu: g.gamma1 * g.gamma2 * g.gamma3 * vu * wv * wu,
}


@dataclass(frozen=True)
class ToleranceFn:
    """Error-tolerance function phi(gamma, u, v, w) -> nonnegative real.

    ``fn(gamma, sq_vu, sq_wv, sq_wu)`` is a function of the three squared
    distances ||v - u||^2, ||w - v||^2 and ||w - u||^2, the quantities the
    paper's defining bound is written in.  Five canonical forms are provided
    (``phi1`` is the full three-term sum, ``phi2``/``phi3``/``phi4`` are the
    single terms, ``phi5`` the product form) plus a hook for custom
    callables of the same signature.  The canonical forms are continuous in
    (gamma3, u, w), as the feasible-direction solver requires; custom hooks
    are trusted to be.
    """

    kind: str
    fn: Callable[[ForcingParams, float, float, float], float] = field(repr=False)

    def __call__(self, gamma: ForcingParams, u, v, w) -> float:
        return self.from_squares(gamma, *_squares(u, v, w))

    def from_squares(self, gamma: ForcingParams, sq_vu: float, sq_wv: float,
                     sq_wu: float) -> float:
        """Evaluate phi from ||v - u||^2, ||w - v||^2 and ||w - u||^2."""
        val = float(self.fn(gamma, sq_vu, sq_wv, sq_wu))
        if val < 0.0 or not math.isfinite(val):
            raise ValueError(f"tolerance function returned {val}")
        return val

    @classmethod
    def canonical(cls, kind: str) -> "ToleranceFn":
        if kind not in _FORMS:
            raise ValueError(f"unknown tolerance kind {kind!r}; "
                             f"choose from {sorted(_FORMS)}")
        return cls(kind=kind, fn=_FORMS[kind])

    @classmethod
    def custom(cls, fn: Callable, name: str = "custom") -> "ToleranceFn":
        """Wrap ``fn(gamma, sq_vu, sq_wv, sq_wu)``; ``name`` is a label only."""
        return cls(kind=name, fn=fn)


@dataclass(frozen=True)
class SummableSchedule:
    """Budget pair (a_k, b_k) with 0 <= a_k <= b_{k-1} - b_k and b_k -> 0.

    ``name`` picks the tail bound b_k and ``bbar`` scales it: ``harmonic``
    b_k = bbar/k and ``logarithmic`` b_k = bbar/ln(k+1) for k >= 1, both
    with b_{-1} = 3 bbar and b_0 = 2 bbar, spend a_k = b_{k-1} - b_k;
    ``zero`` has b_k = bbar/(k+2), b_{-1} = bbar and a_k = 0.  The partial
    sums of a_k telescope below ``b_minus1``, which caps the total budget.
    """

    name: str
    bbar: float

    def __post_init__(self):
        names = ("harmonic", "logarithmic", "zero")
        if self.name not in names:
            raise ValueError(f"unknown schedule {self.name!r}; "
                             f"choose from {sorted(names)}")
        if not self.bbar > 0:
            raise ValueError("bbar must be positive")

    @property
    def b_minus1(self) -> float:
        return self.bbar if self.name == "zero" else 3.0 * self.bbar

    def b(self, k: int) -> float:
        """The tail bound b_k for k >= 0."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if self.name == "zero":
            return self.bbar / (k + 2)
        if k == 0:
            return 2.0 * self.bbar
        if self.name == "harmonic":
            return self.bbar / k
        return self.bbar / math.log(k + 1)

    def b_at(self, k: int) -> float:
        """b_k extended to k = -1."""
        return self.b_minus1 if k == -1 else self.b(k)

    def a(self, k: int) -> float:
        """The per-iteration budget a_k for k >= 0."""
        b_k = self.b(k)  # rejects k < 0
        return 0.0 if self.name == "zero" else self.b_at(k - 1) - b_k

    @classmethod
    def harmonic(cls, bbar: float) -> "SummableSchedule":
        return cls("harmonic", bbar)

    @classmethod
    def logarithmic(cls, bbar: float) -> "SummableSchedule":
        return cls("logarithmic", bbar)

    @classmethod
    def zero_budget(cls, bbar: float = 1.0) -> "SummableSchedule":
        """a_k = 0 for all k: forces gamma1 = gamma2 = 0 every iteration."""
        return cls("zero", bbar)

    @classmethod
    def by_name(cls, name: str, bbar: float) -> "SummableSchedule":
        return cls(name, bbar)


def forcing_for_iteration(grad_norm_sq: float, a_k: float, gamma2_cap: float,
                          gamma3_bar: float) -> ForcingParams:
    """Split the budget a_k into (gamma1, gamma2) and pin gamma3 at its cap.

    gamma2 = min(a_k / (2 grad_norm_sq), gamma2_cap) and gamma1 takes the
    remainder of a_k / grad_norm_sq, so (gamma1 + gamma2) grad_norm_sq = a_k.
    A vanishing gradient is the solver's stationarity stop, not handled here.
    """
    if grad_norm_sq <= 0:
        raise ValueError("grad_norm_sq must be positive")
    if a_k < 0:
        raise ValueError("a_k must be nonnegative")
    if not 0.0 <= gamma3_bar < 0.5:
        raise ValueError("gamma3_bar must lie in [0, 1/2)")
    if not 0.0 <= gamma2_cap < 0.5:
        raise ValueError("gamma2_cap must lie in [0, 1/2)")
    budget = a_k / grad_norm_sq
    gamma2 = min(0.5 * budget, gamma2_cap)
    gamma1 = budget - gamma2
    return ForcingParams(gamma1=gamma1, gamma2=gamma2, gamma3=gamma3_bar)
