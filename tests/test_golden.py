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

Re-baselined a second time when the synchronous rules (ttfed, fedavg and
fedat) began to merge their one-step uploads as one SGD step on the
size-weighted mean gradient (`learner.one_step_mean`), with one
first-layer product per merge. fedasync's 4 cells did not move. Of the
other 13, the global model moved by float32 rounding after some event in
every cell: at most 3.9e-7 of its largest magnitude after the last event.
A hash covers only the float32 test scores, and those moved in 4 cells.
The first 12 hex digits, per-user merge -> cohort merge:

    budget-fedat                                   853a4a65a3fd    unchanged
    budget-fedavg                                  c1e294546ea1 -> 7835275475e3
    budget-ttfed                                   a6858773d63b    unchanged
    one-tier-fedat                                 2c8dba81cd0f -> 02dc02eb06f6
    one-tier-fedavg                                130dc6e1b3d8 -> e0177347a724
    one-tier-ttfed                                 ce42c67d9f61 -> 0abed0e6cf2c
    three-tiers-fedat                              94bf4986464b    unchanged
    three-tiers-fedavg                             4564575cc2e6    unchanged
    three-tiers-ttfed                              730c0929a708    unchanged
    three-tiers-ttfed-equal-bandwidth              ea577b8ad213    unchanged
    three-tiers-ttfed-equal-bandwidth-realization  7d624e51f5da    unchanged
    three-tiers-ttfed-equal-weight                 bf88e3cbfa2c    unchanged
    three-tiers-ttfed-realization                  df6a1bc77e2c    unchanged

Because a hash of the scores can miss a model that moved, `MODELS` pins the
models too: per cell, a sha256 over the bytes of every global model the run
traces, in event order. These were taken after that second re-baseline, with
`GOLDEN` as it stands.
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
    "budget-fedavg": "7835275475e394c86b931094ef296bbe37483f5f7fcad95d52083f83996f94d9",
    "budget-ttfed": "a6858773d63ba8e2a30f2181201d150b377f73e18b8df8d7878b592a20fd743a",
    "one-tier-fedasync": "ae6f59bd0b2d60777476c3cd1d199832cf9652a725d32e4e4ec7d2e5bd8ad310",
    "one-tier-fedat": "02dc02eb06f6484e60f2a03b96d7977d30e39cf07f3c47b137876b88d6d2c919",
    "one-tier-fedavg": "e0177347a7245f40745d5b02469a0d3743df45bf9effb9af933d11c4027073ff",
    "one-tier-ttfed": "0abed0e6cf2cc24e8f9a4f236310aabae7bbff62021173808a5df25dbe34d271",
    "three-tiers-fedasync": "9b25569286cfe401f7edb23811995a5e13c2098dd693c003c177e9f62d3f7e59",
    "three-tiers-fedat": "94bf4986464bc87ce948de6cf19b6d7569d882b28d19b6194b908b8a0b38b038",
    "three-tiers-fedavg": "4564575cc2e6c50a9543ebf2d720fc23f95b9605b0fa654628729ff1816cc693",
    "three-tiers-ttfed": "730c0929a708400c058694ad7dcdaeaa6b8aeae217bc8147d2d15af40b71db53",
    "three-tiers-ttfed-equal-bandwidth": "ea577b8ad2133faafaeb302d9c44f22cf59bc560999868bfafaff545f99e3802",
    "three-tiers-ttfed-equal-bandwidth-realization": "7d624e51f5da9e3c9c38077c9650a2dbd6bae8f267feb51cda9d5020bd702731",
    "three-tiers-ttfed-equal-weight": "bf88e3cbfa2cd373a2432e9ac2bbe88e416bb2d8b5809ff64f26ab2c79e36332",
    "three-tiers-ttfed-realization": "df6a1bc77e2c27443cb8d4b38c0c81d61eb1a1b3a91d70a9346afcc2428426a3",
}

MODELS = {
    "budget-fedasync": "322a26e03d6f6d5648fdf5ec625ef0722d75e9d9ca83779ca2b6b69b992ec314",
    "budget-fedat": "175ab2b321b70d00753bf2251bf4639dd6108e0b54f87ae5e199682c6b915362",
    "budget-fedavg": "2e6ebfcb0546900dbb3306d3475ddb195c3a64d3743de3169fa6ae22555bce26",
    "budget-ttfed": "cc963f54e54048cf9c8c966d3a4d4ca0f8516b196b2bf9b2f472a225f7dbebc2",
    "one-tier-fedasync": "0634e8ab89245461d2b973a123f50dc4e5276ac0e13fc1eb53bb5a307b6da738",
    "one-tier-fedat": "29c4ae791c5b8c2b54f19d61aeac1a1e6e42d5aec06cb2e5c58cb1b71320c048",
    "one-tier-fedavg": "29c4ae791c5b8c2b54f19d61aeac1a1e6e42d5aec06cb2e5c58cb1b71320c048",
    "one-tier-ttfed": "40556821c4f11c7955cd47642b8d53cbe5be597994f9f0667ce93770a03a93da",
    "three-tiers-fedasync": "865cfd4f012d6c30b39da6bd05d9468fb4f6dbfdca4c91c452e6aef5c7ac12ee",
    "three-tiers-fedat": "30526096375a9890c9a58fdaa63ffe4e2df6ca540a0da3cdc75a6947f326e50d",
    "three-tiers-fedavg": "4991257a773f12c52560bb364d3d219df282f0e30dcc3472102f9f4a9649171d",
    "three-tiers-ttfed": "82db674753e62e605383b5ce3ae1271a2ffdaa1ce23140eca9f49f2c1a884679",
    "three-tiers-ttfed-equal-bandwidth": "8610efb416c3c9d7ac8e532cf32f1ccc1dac570b2778d0d6b42285ffa12fb138",
    "three-tiers-ttfed-equal-bandwidth-realization": "eba0f0b09325a46cb449e1418e333dcf49c6d6e091b74ecb25b48267fd4acde5",
    "three-tiers-ttfed-equal-weight": "9917fef09c6a18cb95477984eb38f57d42558b2497517f612b69bc450a95a472",
    "three-tiers-ttfed-realization": "4532cbd9abb85b1e783e1ed1d3040374895c76712ada913899b5cd6f81fb4936",
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


def models_sha256(models: list[np.ndarray]) -> str:
    """sha256 over the bytes of every model, in order."""
    digest = hashlib.sha256()
    for w in models:
        digest.update(w.tobytes())
    return digest.hexdigest()


@lru_cache(maxsize=None)
def traced_case(case: str) -> tuple[RunMetrics, list[np.ndarray]]:
    """The case's run and the global model after each of its events."""
    cfg = config(case)
    models: list[np.ndarray] = []
    return run(cfg, scenario(replace(cfg, algorithm="ttfed")), trace=models), models


def run_case(case: str) -> RunMetrics:
    return traced_case(case)[0]


def test_grid_covers_the_tier_structures():
    assert scenario(config("one-tier-ttfed")).num_tiers == 1
    for case in ("three-tiers-ttfed", "budget-ttfed"):
        assert len(np.unique(scenario(config(case)).tier_of)) >= 3


def test_grid_sees_failed_uploads():
    assert all(run_case(f"one-tier-{alg}").failed_total > 0 for alg in ("ttfed", "fedavg"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trajectory(case):
    assert trajectory_sha256(run_case(case)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_models(case):
    assert models_sha256(traced_case(case)[1]) == MODELS[case]
