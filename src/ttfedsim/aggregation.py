"""The merge arithmetic and the time-triggered tier weights.

Synchronous averaging folds uploads into their size-weighted mean; the
asynchronous rule mixes one arrival into the running global model; the
tiered rule combines per-tier models under a simplex weighting. The
time-triggered merge is the last two composed (each due tier's mean, then
a simplex mix of all tiers), under per-round weights derived from
cumulative update counts. Weight arithmetic is exact (integer numerators
over a common denominator) before any float conversion. Which users form
a tier, and when a tier is due, is the engine's business.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Upload = tuple[float, np.ndarray]  # (data size, parameter vector)

_WEIGHT_SUM_TOL = 1e-12


class EmptyUploadError(ValueError):
    """An aggregation rule received no uploads to merge."""


def fedavg_aggregate(uploads: Iterable[Upload]) -> np.ndarray:
    """Data-size-weighted mean of the received local models.

    The uploads are folded in one pass, in order, and may be produced
    lazily, so that a caller never holds more than the one being folded.
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
        raise EmptyUploadError("no uploads to aggregate")
    if total <= 0:
        raise ValueError("upload data sizes sum to zero")
    return acc / total


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
