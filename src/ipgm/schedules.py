"""Error-tolerance functions, forcing parameters and summable step budgets.

The inexact projection accepts a candidate ``w`` for the projection of ``v``
relative to an anchor ``u`` whenever the supremum of ``<v - w, y - w>`` over
the feasible set stays below a tolerance ``phi(gamma, u, v, w)``.  Every
admissible tolerance is dominated by the weighted sum

    gamma1 ||v - u||^2 + gamma2 ||w - v||^2 + gamma3 ||w - u||^2,

and the constant-step solver spends a summable per-iteration budget ``a_k``
on the first two weights so that the accumulated projection error stays
finite.
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
    "schedule_values",
    "forcing_for_iteration",
    "tolerance_bound_check",
]


@dataclass(frozen=True)
class ForcingParams:
    """Nonnegative weights (gamma1, gamma2, gamma3) of the error tolerance."""

    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma3"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

    def require_contractive(self):
        """Check gamma2 < 1/2 and gamma3 < 1/2, required by the solver paths."""
        if self.gamma2 >= 0.5 or self.gamma3 >= 0.5:
            raise ValueError(
                f"gamma2 and gamma3 must be < 1/2, got ({self.gamma2}, {self.gamma3})")
        return self

    @classmethod
    def zero(cls) -> "ForcingParams":
        return cls(0.0, 0.0, 0.0)


def _sq(a, b) -> float:
    d = frobenius_norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return d * d


# canonical tolerance forms over the three squared distances
# ||v - u||^2, ||w - v||^2, ||w - u||^2
_FORMS = {
    "phi1": lambda g, vu, wv, wu: g.gamma1 * vu + g.gamma2 * wv + g.gamma3 * wu,
    "phi2": lambda g, vu, wv, wu: g.gamma1 * vu,
    "phi3": lambda g, vu, wv, wu: g.gamma2 * wv,
    "phi4": lambda g, vu, wv, wu: g.gamma3 * wu,
    "phi5": lambda g, vu, wv, wu: g.gamma1 * g.gamma2 * g.gamma3 * vu * wv * wu,
}


def _on_points(form):
    def fn(g: ForcingParams, u, v, w) -> float:
        return form(g, _sq(v, u), _sq(w, v), _sq(w, u))
    return fn


# built once so that equal kinds compare equal as ToleranceFn values
_CANONICAL = {kind: _on_points(form) for kind, form in _FORMS.items()}


@dataclass(frozen=True)
class ToleranceFn:
    """Error-tolerance function phi(gamma, u, v, w) -> nonnegative real.

    Five canonical forms are provided (``phi1`` is the full three-term sum,
    ``phi2``/``phi3``/``phi4`` are the single terms, ``phi5`` the product
    form) plus a hook for custom callables.  The canonical forms are
    continuous in (gamma3, u, w), as the feasible-direction solver requires;
    custom hooks are trusted to be.
    """

    kind: str
    fn: Callable[[ForcingParams, object, object, object], float] = field(repr=False)

    def __call__(self, gamma: ForcingParams, u, v, w) -> float:
        val = float(self.fn(gamma, u, v, w))
        if val < 0.0 or not np.isfinite(val):
            raise ValueError(f"tolerance function returned {val}")
        return val

    @classmethod
    def canonical(cls, kind: str) -> "ToleranceFn":
        if kind not in _CANONICAL:
            raise ValueError(f"unknown tolerance kind {kind!r}; "
                             f"choose from {sorted(_CANONICAL)}")
        return cls(kind=kind, fn=_CANONICAL[kind])

    @classmethod
    def custom(cls, fn: Callable, name: str = "custom") -> "ToleranceFn":
        return cls(kind=name, fn=fn)

    @property
    def is_canonical(self) -> bool:
        return self.kind in _CANONICAL

    def from_squares(self, g: ForcingParams, sq_vu: float, sq_wv: float,
                     sq_wu: float) -> float:
        """Evaluate a canonical form from the three squared distances.

        Equivalent to ``self(g, u, v, w)``; lets callers that already know
        the distances skip the matrix arithmetic.  Canonical kinds only.
        """
        if self.kind not in _FORMS:
            raise ValueError(f"{self.kind!r} has no squared-distance form")
        return _FORMS[self.kind](g, sq_vu, sq_wv, sq_wu)


def tolerance_bound_check(phi: ToleranceFn, g: ForcingParams, u, v, w) -> bool:
    """True iff phi stays below its defining three-term bound at (u, v, w)."""
    bound = _CANONICAL["phi1"](g, u, v, w)
    val = phi(g, u, v, w)
    return val <= bound + 1e-12 * max(1.0, bound)


@dataclass(frozen=True)
class SummableSchedule:
    """Budget pair (a_k, b_k) with 0 <= a_k <= b_{k-1} - b_k and b_k -> 0.

    ``b`` maps k >= 0 to the tail bound, ``a`` maps k >= 0 to the
    per-iteration budget; ``b_minus1 > b(0)`` caps the total budget, since
    the partial sums of a_k telescope below ``b_minus1``.
    """

    name: str
    b_minus1: float
    a: Callable[[int], float] = field(repr=False)
    b: Callable[[int], float] = field(repr=False)

    def b_at(self, k: int) -> float:
        """b_k extended to k = -1."""
        return self.b_minus1 if k < 0 else self.b(k)

    @classmethod
    def harmonic(cls, bbar: float) -> "SummableSchedule":
        """b_k = bbar/k with endpoints b_{-1} = 3 bbar, b_0 = 2 bbar."""
        if bbar <= 0:
            raise ValueError("bbar must be positive")

        def b(k: int) -> float:
            return 2.0 * bbar if k == 0 else bbar / k

        def a(k: int) -> float:
            return (3.0 * bbar if k == 0 else b(k - 1)) - b(k)

        return cls(name="harmonic", b_minus1=3.0 * bbar, a=a, b=b)

    @classmethod
    def logarithmic(cls, bbar: float) -> "SummableSchedule":
        """b_k = bbar/ln(k+1) for k >= 1, with the same explicit endpoints."""
        if bbar <= 0:
            raise ValueError("bbar must be positive")

        def b(k: int) -> float:
            return 2.0 * bbar if k == 0 else bbar / math.log(k + 1)

        def a(k: int) -> float:
            return (3.0 * bbar if k == 0 else b(k - 1)) - b(k)

        return cls(name="logarithmic", b_minus1=3.0 * bbar, a=a, b=b)

    @classmethod
    def zero_budget(cls, bbar: float = 1.0) -> "SummableSchedule":
        """a_k = 0 for all k: forces gamma1 = gamma2 = 0 every iteration."""
        if bbar <= 0:
            raise ValueError("bbar must be positive")
        return cls(name="zero", b_minus1=bbar,
                   a=lambda k: 0.0, b=lambda k: bbar / (k + 2))

    @classmethod
    def by_name(cls, name: str, bbar: float) -> "SummableSchedule":
        table = {"harmonic": cls.harmonic, "logarithmic": cls.logarithmic,
                 "zero": cls.zero_budget}
        if name not in table:
            raise ValueError(f"unknown schedule {name!r}; choose from {sorted(table)}")
        return table[name](bbar)


def schedule_values(s: SummableSchedule, k: int) -> tuple[float, float]:
    """Return (a_k, b_k) for iteration k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(s.a(k)), float(s.b(k))


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
