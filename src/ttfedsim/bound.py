"""Convergence-bound evaluator.

Evaluates the closed-form upper bound on the optimality gap after K
global rounds, given user-supplied smoothness/convexity/drift constants
(none of which are estimated here), and checks the sufficient conditions
under which the bound contracts. The bound has the shape

    contraction^K * gap0 + asymptote * (1 - contraction^K)

so K = 0 returns the initial gap and K -> inf tends to the asymptote
whenever the contraction factor lies in (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

_NONNEGATIVE = (
    "grad_offset",
    "grad_slope",
    "drift_inner",
    "drift_norm",
    "local_ratio",
    "local_gap",
    "initial_gap",
)


class ConstantError(ValueError):
    """A bound constant outside its range; `field` names it."""

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


@dataclass(frozen=True)
class BoundConstants:
    """Inputs to the bound; names follow the roles, not symbols.

    smoothness and strong_convexity describe the loss (L, mu > 0).
    grad_offset/grad_slope bound each user's gradient norm by
    offset + slope * global-gradient-norm. drift_inner/drift_norm bound
    the inner-product and norm drift of stale models; local_ratio and
    local_gap bound the local-vs-global model divergence.
    median_const is the interval constant in (0, num_tiers).
    failure_fractions holds each tier's failed-data share, length M.
    """

    smoothness: float
    strong_convexity: float
    grad_offset: float  # chi
    grad_slope: float  # nu
    drift_inner: float  # delta
    drift_norm: float  # epsilon
    local_ratio: float  # beta
    local_gap: float  # phi
    initial_gap: float
    num_tiers: int
    median_const: float | None = None  # default M/2
    failure_fractions: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        """Reject each constant outside its range; NaN and infinity are outside every range."""
        for name in ("smoothness", "strong_convexity"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConstantError(name, f"must be positive and finite, got {value}")
        for name in _NONNEGATIVE:
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConstantError(name, f"must be >= 0 and finite, got {value}")
        if isinstance(self.num_tiers, bool) or not isinstance(self.num_tiers, Integral):
            raise ConstantError("num_tiers", f"must be an integer, got {self.num_tiers!r}")
        if self.num_tiers < 1:
            raise ConstantError("num_tiers", f"must be >= 1, got {self.num_tiers}")
        if self.median_const is not None and not 0 < self.median_const < self.num_tiers:
            raise ConstantError(
                "median_const", f"must lie in (0, {self.num_tiers}), got {self.median_const}"
            )
        fractions = self.failure_fractions or (0.0,) * self.num_tiers
        if len(fractions) != self.num_tiers:
            raise ConstantError(
                "failure_fractions",
                f"holds {len(fractions)} failure fractions for {self.num_tiers} tiers",
            )
        for f in fractions:
            if not 0.0 <= f <= 1.0:
                raise ConstantError(
                    "failure_fractions", f"must hold failure fractions in [0, 1], got {f}"
                )
        object.__setattr__(self, "failure_fractions", tuple(fractions))

    @property
    def xi(self) -> float:
        return self.median_const if self.median_const is not None else self.num_tiers / 2.0


def _staleness_terms(c: BoundConstants) -> list[float]:
    """(1 + (1+beta)^2 * failure_fraction) per tier."""
    amp = (1.0 + c.local_ratio) ** 2
    return [1.0 + amp * f for f in c.failure_fractions]


def delta1(c: BoundConstants) -> float:
    """Additive error floor: mean over tiers of drift plus failure terms."""
    L = c.smoothness
    terms = _staleness_terms(c)
    total = 0.0
    for t in terms:
        total += L * c.drift_norm**2 + (3.0 / (4.0 * L)) * (c.local_gap**2 + c.grad_offset * t)
    return total / c.num_tiers


def delta2(c: BoundConstants) -> float:
    """Contraction quality: mean over tiers of 1 minus the loss terms."""
    L = c.smoothness
    terms = _staleness_terms(c)
    total = 0.0
    for t in terms:
        total += 1.0 - 4.0 * c.drift_inner * L - 3.0 * c.grad_slope * t
    return total / c.num_tiers


def contraction_factor(c: BoundConstants) -> float:
    """Per-round multiplier 1 - (mu*xi / 2L) * delta2."""
    return 1.0 - (c.strong_convexity * c.xi / (2.0 * c.smoothness)) * delta2(c)


def convergence_bound(c: BoundConstants, rounds: int) -> float:
    """Optimality-gap bound after `rounds` global aggregations."""
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if rounds == 0:
        return c.initial_gap
    asymptote = asymptotic_bound(c)
    decay = contraction_factor(c) ** rounds
    return decay * c.initial_gap + asymptote * (1.0 - decay)


def asymptotic_bound(c: BoundConstants) -> float:
    """K -> inf limit, meaningful when the contraction factor is in (0,1)."""
    d2 = delta2(c)
    if d2 == 0.0:
        raise ZeroDivisionError("delta2 is zero; the asymptote 2*delta1*L/(mu*delta2) diverges")
    return 2.0 * delta1(c) * c.smoothness / (c.strong_convexity * d2)


def check_conditions(c: BoundConstants) -> tuple[bool, list[str]]:
    """Sufficient convergence conditions; reasons name what failed.

    Condition 1: 0 <= mu/(2L) <= 1/M ("tier-count bound").
    Condition 2: 0 <= 4*delta*L + 3*nu*(1+(1+beta)^2) <= 1 ("drift bound").
    Both inequalities are closed (boundaries pass).
    """
    reasons: list[str] = []
    ratio = c.strong_convexity / (2.0 * c.smoothness)
    if not 0.0 <= ratio <= 1.0 / c.num_tiers + 1e-15:
        reasons.append(
            f"tier-count bound violated: mu/(2L) = {ratio:.6g} > 1/M = {1.0 / c.num_tiers:.6g}"
        )
    drift = 4.0 * c.drift_inner * c.smoothness + 3.0 * c.grad_slope * (
        1.0 + (1.0 + c.local_ratio) ** 2
    )
    if not 0.0 <= drift <= 1.0 + 1e-15:
        reasons.append(f"drift bound violated: 4*delta*L + 3*nu*(1+(1+beta)^2) = {drift:.6g} > 1")
    return (not reasons, reasons)


def bound_table(c: BoundConstants, round_values: list[int]) -> list[tuple[int, float]]:
    """(K, bound) rows for a list of round counts."""
    return [(k, convergence_bound(c, k)) for k in round_values]
