"""The four model-merging rules and the tier-weight scheme.

Synchronous averaging merges every upload at once; the asynchronous rule
mixes one arrival into the running global model; the tiered rule keeps one
model per tier and merges them under a simplex weighting; the
time-triggered rule combines due tiers' intra-tier means with the previous
global model under per-round weights derived from cumulative update
counts. Weight arithmetic is exact (integer numerators over a common
denominator) before any float conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Upload = tuple[float, np.ndarray]  # (data size, parameter vector)

_WEIGHT_SUM_TOL = 1e-12


class EmptyUploadError(ValueError):
    """An aggregation rule received no uploads to merge."""


@dataclass(frozen=True)
class TierSchedule:
    """Static tier structure: who is in which tier, and the round interval.

    Tier ids are 1-based; tier m uploads at global rounds k with k % m == 0
    and needs m rounds for one local cycle.
    """

    num_tiers: int
    tier_of: Mapping[int, int]  # user_id -> tier
    delta_t: float  # seconds per global round
    round_time: float  # T, the slowest user's single-cycle time

    def __post_init__(self) -> None:
        if self.num_tiers < 1:
            raise ValueError(f"num_tiers must be >= 1, got {self.num_tiers}")
        if not self.delta_t > 0.0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")
        bad = {u: m for u, m in self.tier_of.items() if not 1 <= m <= self.num_tiers}
        if bad:
            raise ValueError(f"tier assignments outside 1..{self.num_tiers}: {bad}")

    def users_in(self, tier: int) -> list[int]:
        return sorted(u for u, m in self.tier_of.items() if m == tier)

    def due_tiers(self, k: int) -> list[int]:
        """Tiers whose upload lands exactly on round k."""
        return [m for m in range(1, self.num_tiers + 1) if k % m == 0]


def _weighted_mean(uploads: Iterable[Upload], empty_message: str) -> np.ndarray:
    """Size-weighted mean, folded in one pass over the uploads in order.

    The uploads may be produced lazily, so that a caller never holds more
    than the one being folded.
    """
    acc = None
    total = 0.0
    for size, w in uploads:
        if size < 0:
            raise ValueError(f"negative data size {size}")
        if acc is None:
            acc = np.zeros_like(w)
        acc += size * w
        total += size
    if acc is None:
        raise EmptyUploadError(empty_message)
    if total <= 0:
        raise ValueError("upload data sizes sum to zero")
    return acc / total


def fedavg_aggregate(uploads: Iterable[Upload]) -> np.ndarray:
    """Data-size-weighted mean of all received local models."""
    return _weighted_mean(uploads, "no uploads to aggregate")


def fedasync_aggregate(w_prev: np.ndarray, w_new: np.ndarray, psi: float) -> np.ndarray:
    """Mix one arriving model into the global one: psi*new + (1-psi)*prev."""
    if not 0.0 < psi < 1.0:
        raise ValueError(f"psi must lie in (0, 1), got {psi}")
    return psi * w_new + (1.0 - psi) * w_prev


def fedat_aggregate(tier_models: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Simplex-weighted combination of the per-tier models."""
    if len(tier_models) == 0:
        raise EmptyUploadError("no tier models")
    if len(tier_models) != len(weights):
        raise ValueError(f"{len(tier_models)} tier models but {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any() or abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"weights must be a simplex vector, got sum {w.sum()!r}")
    acc = np.zeros_like(tier_models[0])
    for alpha, model in zip(w, tier_models):
        acc += alpha * model
    return acc


def ttfed_tier_weight_fractions(k: int, num_tiers: int) -> list[Fraction]:
    """Exact tier weights at round k.

    Tier m's weight is floor(k/(M+1-m)) over the common denominator
    sum_m floor(k/m). The numerators are a permutation of the
    denominator's terms, so the sum is exactly 1.
    """
    if k < 1:
        raise ValueError(f"round index must be >= 1, got {k}")
    if num_tiers < 1:
        raise ValueError(f"num_tiers must be >= 1, got {num_tiers}")
    den = sum(k // m for m in range(1, num_tiers + 1))
    if den == 0:  # unreachable for k >= 1 (the m=1 term is k)
        raise ZeroDivisionError(f"all update counts zero at k={k}, M={num_tiers}")
    return [Fraction(k // (num_tiers + 1 - m), den) for m in range(1, num_tiers + 1)]


def ttfed_tier_weights(k: int, num_tiers: int) -> np.ndarray:
    """Float view of ttfed_tier_weight_fractions."""
    return np.array(
        [float(f) for f in ttfed_tier_weight_fractions(k, num_tiers)], dtype=np.float64
    )


def ttfed_intra_tier(uploads: Iterable[Upload]) -> np.ndarray:
    """Size-weighted mean over one tier's successful uploads.

    Raises EmptyUploadError when nothing arrived, so the caller can fall
    back to the previous global model under that tier's weight.
    """
    return _weighted_mean(uploads, "tier received no successful uploads")


def ttfed_global(
    k: int,
    num_tiers: int,
    intra_by_tier: Mapping[int, np.ndarray],
    w_prev: np.ndarray,
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """One time-triggered global merge.

    Due tiers (k % m == 0) present in intra_by_tier contribute their
    intra-tier mean; every other tier, and due tiers with no successful
    upload, contribute the previous global model under their weight.
    """
    w = (
        ttfed_tier_weights(k, num_tiers)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    if len(w) != num_tiers:
        raise ValueError(f"{len(w)} weights for {num_tiers} tiers")
    if (w < 0).any() or abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"weights must be a simplex vector, got sum {w.sum()!r}")
    stale = {m for m in intra_by_tier if k % m != 0}
    if stale:
        raise ValueError(f"tiers {sorted(stale)} are not due at round {k}")
    acc = np.zeros_like(w_prev)
    for m in range(1, num_tiers + 1):
        part = intra_by_tier.get(m)
        if part is None or k % m != 0:
            part = w_prev
        acc += w[m - 1] * part
    return acc
