"""Golden trajectories: fixed hashes of small runs of every algorithm.

Other tests check that two runs agree with each other; these check that a
run still produces the same numbers it did when the hashes were taken. Each
hash covers every evaluation point at full float precision plus the final
counters. A change that moves any of them is a change of behaviour and
must re-baseline on purpose.

Re-baselined once, when models became float32 (training, merging and
scoring; the allocator, the channel and the bound stay float64). Every
hash moved; the first 12 hex digits, float64 -> float32:

    budget-fedasync                                46a90507c5a6 -> b3152bc9585f
    budget-fedat                                   ab4d78fb1a3d -> 853a4a65a3fd
    budget-fedavg                                  45513b95d794 -> c1e294546ea1
    budget-ttfed                                   84cf759d155b -> a6858773d63b
    one-tier-fedasync                              168c625e5c97 -> ae6f59bd0b2d
    one-tier-fedat                                 92b7d26e3c54 -> 2c8dba81cd0f
    one-tier-fedavg                                88d00c25afe0 -> 130dc6e1b3d8
    one-tier-ttfed                                 61f199a6a7be -> ce42c67d9f61
    three-tiers-fedasync                           05f4db31747e -> 9b25569286cf
    three-tiers-fedat                              df32caba8255 -> 94bf4986464b
    three-tiers-fedavg                             fff63680fd2f -> 4564575cc2e6
    three-tiers-ttfed                              0de74996dd37 -> 730c0929a708
    three-tiers-ttfed-equal-bandwidth              15f909d3ee4f -> ea577b8ad213
    three-tiers-ttfed-equal-bandwidth-realization  0a33f65a85b9 -> 7d624e51f5da
    three-tiers-ttfed-equal-weight                 9d46d23ef9ff -> bf88e3cbfa2c
    three-tiers-ttfed-realization                  6b44f48e4632 -> df6a1bc77e2c
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
    "budget-fedasync": "b3152bc9585fe85efa6b916aaa5798be9f80f823f17f747ad171d98340e954bb",
    "budget-fedat": "853a4a65a3fde74c8c651e8f6df2b42a43da2de3ab57391e3fa4fd4505a64556",
    "budget-fedavg": "c1e294546ea1261ddbf41080d4f8314be0215e737f247ea34d04e45853c78c6f",
    "budget-ttfed": "a6858773d63ba8e2a30f2181201d150b377f73e18b8df8d7878b592a20fd743a",
    "one-tier-fedasync": "ae6f59bd0b2d60777476c3cd1d199832cf9652a725d32e4e4ec7d2e5bd8ad310",
    "one-tier-fedat": "2c8dba81cd0f54214324e01a8ee3dc80a189043210ef1b4f3d3d7886717d60dd",
    "one-tier-fedavg": "130dc6e1b3d8eaa026f3b8cae08d3a003eab63ffad6709fef5372db19b888eb1",
    "one-tier-ttfed": "ce42c67d9f610bf21256916cf641c293c42edfa83d6e76c2ff9ee00e28719e95",
    "three-tiers-fedasync": "9b25569286cfe401f7edb23811995a5e13c2098dd693c003c177e9f62d3f7e59",
    "three-tiers-fedat": "94bf4986464bc87ce948de6cf19b6d7569d882b28d19b6194b908b8a0b38b038",
    "three-tiers-fedavg": "4564575cc2e6c50a9543ebf2d720fc23f95b9605b0fa654628729ff1816cc693",
    "three-tiers-ttfed": "730c0929a708400c058694ad7dcdaeaa6b8aeae217bc8147d2d15af40b71db53",
    "three-tiers-ttfed-equal-bandwidth": "ea577b8ad2133faafaeb302d9c44f22cf59bc560999868bfafaff545f99e3802",
    "three-tiers-ttfed-equal-bandwidth-realization": "7d624e51f5da9e3c9c38077c9650a2dbd6bae8f267feb51cda9d5020bd702731",
    "three-tiers-ttfed-equal-weight": "bf88e3cbfa2cd373a2432e9ac2bbe88e416bb2d8b5809ff64f26ab2c79e36332",
    "three-tiers-ttfed-realization": "df6a1bc77e2c27443cb8d4b38c0c81d61eb1a1b3a91d70a9346afcc2428426a3",
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
