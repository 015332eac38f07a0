"""Per-round bandwidth optimization and greedy user selection.

For a user with deadline slack s (its tier's upload interval minus its
local computing time) the cheapest bandwidth that still meets the deadline
has a closed form through the lower Lambert W branch; the capacity
coefficient Lambda decides feasibility outright (Lambda >= 1 means no
finite bandwidth suffices, since the rate saturates at P*g2/(N0*ln2)).
Selection is greedy by contribution weight, stopping at the first
candidate that no longer fits the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import wireless
from .numerics import lambert_w_minus1
from .wireless import ChannelParams

_LN2 = math.log(2.0)


class InfeasibleDeadlineError(ValueError):
    """Deadline slack is non-positive: computation alone overruns it."""


class CapacityInfeasibleError(ValueError):
    """Lambda >= 1: the deadline is unreachable at any bandwidth."""


@dataclass(frozen=True)
class QualifiedUser:
    """A user allowed and able to upload this round, with its optimum."""

    user_id: int
    data_size: float
    alpha: float  # aggregation weight of its tier this round
    slack: float  # seconds left for the upload itself
    gain_power: float  # channel figure the scheduler sees
    distance: float
    lam: float
    bandwidth: float  # cheapest deadline-meeting bandwidth
    weight: float  # greedy ranking key


@dataclass
class RoundPlan:
    selected: list[int] = field(default_factory=list)  # user ids, ascending
    bandwidth: dict[int, float] = field(default_factory=dict)
    total_allocated: float = 0.0


def lambda_coeff(
    model_bits: float, slack: float, gain_power: float, params: ChannelParams
) -> float:
    """Capacity coefficient Z*N0*ln2 / (P*g2*s), dimensionless."""
    if slack <= 0.0:
        raise InfeasibleDeadlineError(f"deadline slack must be positive, got {slack}")
    if not gain_power > 0.0:
        raise ValueError(f"gain_power must be positive, got {gain_power}")
    return model_bits * params.noise_psd * _LN2 / (params.tx_power * gain_power * slack)


def optimal_bandwidth(lam: float, model_bits: float, slack: float) -> float:
    """Cheapest bandwidth whose upload finishes exactly at the deadline.

    b* = -Z*ln2 / ((W_{-1}(-lam*e^-lam) + lam) * s), valid for lam < 1.
    """
    if slack <= 0.0:
        raise InfeasibleDeadlineError(f"deadline slack must be positive, got {slack}")
    if lam >= 1.0:
        raise CapacityInfeasibleError(
            f"capacity coefficient {lam} >= 1: rate limit is below the required rate"
        )
    if lam <= 0.0:
        raise ValueError(f"capacity coefficient must be positive, got {lam}")
    w = lambert_w_minus1(-lam * math.exp(-lam))
    return -model_bits * _LN2 / ((w + lam) * slack)


def contribution_weight(
    alpha: float, data_size: float, bandwidth: float, distance: float, params: ChannelParams
) -> float:
    """Greedy ranking key: tier weight x data size x success probability."""
    return alpha * data_size * wireless.stp(bandwidth, distance, params)


def qualify(
    user_id: int,
    data_size: float,
    alpha: float,
    slack: float,
    gain_power: float,
    distance: float,
    params: ChannelParams,
) -> QualifiedUser | None:
    """Build the QualifiedUser record, or None when no bandwidth can help."""
    if slack <= 0.0:
        return None
    lam = lambda_coeff(params.model_bits, slack, gain_power, params)
    if lam >= 1.0:
        return None
    b = optimal_bandwidth(lam, params.model_bits, slack)
    weight = contribution_weight(alpha, data_size, b, distance, params)
    return QualifiedUser(
        user_id=user_id,
        data_size=data_size,
        alpha=alpha,
        slack=slack,
        gain_power=gain_power,
        distance=distance,
        lam=lam,
        bandwidth=b,
        weight=weight,
    )


def select_users(
    qualified: list[QualifiedUser], budget: float, greedy_skip: bool = False
) -> RoundPlan:
    """Greedy selection by descending weight under the bandwidth budget.

    The literal rule stops at the first non-fitting candidate even when a
    narrower user further down would still fit; greedy_skip=True keeps
    scanning instead. Weight ties break toward the lower user id.
    """
    plan = RoundPlan()
    for q in sorted(qualified, key=lambda q: (-q.weight, q.user_id)):
        if plan.total_allocated + q.bandwidth <= budget:
            plan.selected.append(q.user_id)
            plan.bandwidth[q.user_id] = q.bandwidth
            plan.total_allocated += q.bandwidth
        elif not greedy_skip:
            break
    plan.selected.sort()
    return plan


def equal_share_plan(
    qualified: list[QualifiedUser], budget: float, params: ChannelParams
) -> RoundPlan:
    """Benchmark policy: the selected users split the budget evenly.

    Picks the largest n such that at b = budget/n at least n qualified
    users still make their deadline, then selects the n highest weights
    among them (ties to the lower id). A user makes its deadline at b
    when its cheapest deadline-meeting bandwidth `q.bandwidth` fits in
    b, since the upload delay falls as bandwidth grows. Weights are
    re-ranked at the common bandwidth since the per-user optimum no
    longer applies.
    """
    for n in range(len(qualified), 0, -1):
        share = budget / n
        feasible = [q for q in qualified if q.bandwidth <= share]
        if len(feasible) >= n:
            ranked = sorted(
                feasible,
                key=lambda q: (
                    -contribution_weight(q.alpha, q.data_size, share, q.distance, params),
                    q.user_id,
                ),
            )[:n]
            plan = RoundPlan()
            plan.selected = sorted(q.user_id for q in ranked)
            plan.bandwidth = {q.user_id: share for q in ranked}
            plan.total_allocated = share * n
            return plan
    return RoundPlan()
