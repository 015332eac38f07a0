"""Golden trajectories: fixed hashes of small runs of every algorithm.

Other tests check that two runs agree with each other; these check that a
run still produces the same numbers it did when the hashes were taken. Each
hash covers every evaluation point at full float precision plus the final
counters. A change that moves any of them is a change of behaviour and
must re-baseline on purpose.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from ttfedsim.config import ScenarioConfig, with_updates
from ttfedsim.engine import RunMetrics, run, setup_scenario

# Heterogeneous CPUs, skewed shards and a far cell edge: uploads fail, the
# tiers are uneven and the allocator has to choose.
BASE = ScenarioConfig(
    seed=3,
    users=8,
    radius_m=900.0,
    snr_threshold_db=10.0,
    rounds=8,
    cpu_freq_max_hz=5e9,
    zipf_eta=0.8,
    dirichlet_theta=0.5,
    train_per_class=8,
    test_per_class=4,
    hidden_width=8,
    learning_rate=0.5,
    batch_size=8,
)

# case id -> config overrides; cases that differ only in the algorithm share
# one scenario
TIERS = {
    "one-tier": dict(delta_t_frac=1.0),
    "three-tiers": dict(delta_t_frac=0.3),
    "budget": dict(delta_t_frac=0.3, time_budget_s=0.05, max_evals=4),
}
CASES = {
    **{
        f"{tiers}-{alg}": dict(overrides, algorithm=alg)
        for tiers, overrides in TIERS.items()
        for alg in ("ttfed", "fedavg", "fedasync", "fedat")
    },
    "three-tiers-ttfed-equal-bandwidth": dict(delta_t_frac=0.3, policy="equal_bandwidth"),
    "three-tiers-ttfed-equal-weight": dict(delta_t_frac=0.3, policy="equal_weight"),
    "three-tiers-ttfed-realization": dict(
        delta_t_frac=0.3, scheduling_fading="realization", greedy_skip=True
    ),
    "three-tiers-ttfed-equal-bandwidth-realization": dict(
        delta_t_frac=0.3, policy="equal_bandwidth", scheduling_fading="realization"
    ),
}

GOLDEN = {
    "budget-fedasync": "46a90507c5a6a702ec5ad7c65dc8bbda78c3367117123925f31311eecabcb183",
    "budget-fedat": "ab4d78fb1a3de3ebd7d0d753766de6ee524da0b239d7171ff645045ff3c9009a",
    "budget-fedavg": "45513b95d7946c53f8e4bdfc6e8104128e2dd729cf838f4e93b4a8d025aff1b8",
    "budget-ttfed": "84cf759d155bc8ce627f73183df30f63abc81c042c6ce8f361f1ee9a0669a852",
    "one-tier-fedasync": "168c625e5c97ed3758da898d58580518e41ea60dcde8bd6538fcc8215889f809",
    "one-tier-fedat": "92b7d26e3c545ad6dac570dadec4cbdb881218ce0e18fe94b394d8221d0a2430",
    "one-tier-fedavg": "88d00c25afe00dd211942730fa3a586374e748e47232d3ba1b994ba2edc9182e",
    "one-tier-ttfed": "61f199a6a7be9d6431da467aed1d156b24331ad97bd73a590819ba667f0bdd73",
    "three-tiers-fedasync": "05f4db31747ec91745fd97cca91dc877c8cc1c3d27cf573e825bd4b8d4f39621",
    "three-tiers-fedat": "df32caba825551574ba1a27d2cf69e4b16f1ea9383e8083a062602db57a99309",
    "three-tiers-fedavg": "fff63680fd2f4023f1fdc915934aa225d4ace79a8436219c6adf971393461011",
    "three-tiers-ttfed": "0de74996dd37ad7b21e21bdea867afd81801d9658613fa954521c0b5e69f215c",
    "three-tiers-ttfed-equal-bandwidth": "15f909d3ee4f5df035e88be0bbc9e858e2c253cbcbc705db50111f0975026c8a",
    "three-tiers-ttfed-equal-bandwidth-realization": "0a33f65a85b9d658a7e6e6d34cc99d99e923fa1b8ff9e1306217e97ed1591ab9",
    "three-tiers-ttfed-equal-weight": "9d46d23ef9ff0baf6615a9192db89f5728850f218afd98e99362ce7f8b91b847",
    "three-tiers-ttfed-realization": "6b44f48e4632df69512c9764d93efc5f737800ccefd9fbb6f7a7b01fe9057cf5",
}


@lru_cache(maxsize=None)
def scenario(cfg: ScenarioConfig):
    return setup_scenario(cfg)


def config(case: str) -> ScenarioConfig:
    return with_updates(BASE, **CASES[case])


def trajectory_sha256(metrics: RunMetrics) -> str:
    """sha256 over the evaluation points and the final counters, floats by repr."""
    lines = [
        repr(
            (
                p.time_s,
                p.round,
                p.accuracy,
                p.loss,
                p.uplink_msgs,
                p.downlink_broadcasts,
                p.downlink_unicasts,
                p.success_users,
                p.failed_users,
            )
        )
        for p in metrics.evals
    ]
    lines.append(
        repr(
            (
                metrics.algorithm,
                metrics.num_tiers,
                metrics.delta_t,
                metrics.round_time,
                metrics.uplink_msgs,
                metrics.downlink_broadcasts,
                metrics.downlink_unicasts,
                metrics.success_total,
                metrics.failed_total,
                metrics.zero_weight_uploads,
                metrics.substituted_samples,
            )
        )
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_case(case: str) -> RunMetrics:
    cfg = config(case)
    return run(cfg, scenario(replace(cfg, algorithm="ttfed")))


def test_grid_covers_the_tier_structures():
    assert scenario(config("one-tier-ttfed")).num_tiers == 1
    for case in ("three-tiers-ttfed", "budget-ttfed"):
        assert len(np.unique(scenario(config(case)).tier_of)) >= 3


def test_grid_sees_failed_uploads():
    assert all(run_case(f"one-tier-{alg}").failed_total > 0 for alg in ("ttfed", "fedavg"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trajectory(case):
    assert trajectory_sha256(run_case(case)) == GOLDEN[case]
