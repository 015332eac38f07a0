"""Benchmark workloads as generated flat configs.

Each workload is a full `section.key = value` config (the format of
`configs/default.cfg`) plus the number of scenarios one run cycles over.
The benchmark seed picks `sim.seed` and `data.seed`; nothing else about a
workload depends on it. Every key is spelled out so that a change of the
library's defaults cannot silently change a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

# configs/default.cfg, written out in full.
BASE = {
    "sim.algorithm": "ttfed",
    "sim.users": "20",
    "sim.radius_m": "600",
    "sim.delta_t_frac": "0.6",
    "sim.rounds": "300",
    "sim.psi": "0.5",
    "sim.policy": "proposed",
    "sim.scheduling_fading": "distribution",
    "sim.greedy_skip": "false",
    "sim.eval_every": "1",
    "sim.max_evals": "2000",
    "sim.accuracy_targets": "0.5, 0.6, 0.7, 0.8",
    "channel.path_loss_exponent": "3.76",
    "channel.noise_psd_dbm_hz": "-174",
    "channel.tx_power_w": "0.01",
    "channel.snr_threshold_db": "0",
    "channel.total_bandwidth_hz": "20e6",
    "channel.bits_per_param": "16",
    "compute.cpu_freq_hz": "1e9",
    "compute.cpu_freq_max_hz": "none",
    "compute.cycles_per_sample": "5e5",
    "data.source": "synthetic",
    "data.train_per_class": "250",
    "data.test_per_class": "200",
    "data.zipf_eta": "0",
    "data.dirichlet_theta": "inf",
    "train.learning_rate": "0.01",
    "train.local_epochs": "1",
    "train.batch_size": "32",
    "train.hidden_width": "50",
}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict[str, str]
    # Scenarios per run. The work in one 20-user scenario swings by a third
    # with the seed (its tier split does), so paper-compare reports medians
    # over many scenarios; 1000-user scenarios barely move with the seed.
    scenarios: int
    # Scenarios the traced run covers; each is traced twice.
    traced_scenarios: int
    # Floor on the median final ttfed accuracy over a run's scenarios.
    ttfed_accuracy_floor: float | None = None

    def config_text(self, seed: int, index: int) -> str:
        """Flat config of scenario `index` of a run with benchmark seed `seed`."""
        scenario_seed = seed * 1000 + index
        raw = dict(BASE, **self.overrides)
        raw["sim.seed"] = str(scenario_seed)
        raw["data.seed"] = str(12345 + scenario_seed)
        return "".join(f"{key} = {value}\n" for key, value in raw.items())


WORKLOADS = {
    w.name: w
    for w in (
        # The headline comparison (scripts/compare_algorithms.py defaults),
        # shortened from 300 rounds to 20 with max_evals scaled alike.
        # Dense learner matmuls and test-set evaluations dominate.
        Workload(
            name="paper-compare",
            overrides={
                "sim.rounds": "20",
                "sim.max_evals": "20",
                "compute.cpu_freq_max_hz": "5e9",
                "data.dirichlet_theta": "0",
                "train.learning_rate": "1.0",
                "train.batch_size": "250",
            },
            scenarios=16,
            traced_scenarios=4,
            ttfed_accuracy_floor=0.2,
        ),
        # The many-user stress shape: default.cfg at U=1000 with 10-sample
        # shards, so per-call Python overhead dominates.
        Workload(
            name="many-users",
            overrides={
                "sim.users": "1000",
                "sim.rounds": "2",
                "sim.max_evals": "100",
                "data.train_per_class": "1000",
            },
            scenarios=1,
            traced_scenarios=1,
        ),
        # Equal-bandwidth policy with size and class skew: the allocator's
        # quadratic equal-share scan, partition's substitution path and
        # merges across four populated tiers.
        Workload(
            name="equal-bw-skew",
            overrides={
                "sim.users": "1000",
                "sim.delta_t_frac": "0.2",
                "sim.rounds": "6",
                "sim.max_evals": "20",
                "sim.policy": "equal_bandwidth",
                "sim.scheduling_fading": "realization",
                "compute.cpu_freq_max_hz": "5e9",
                "data.train_per_class": "1000",
                "data.zipf_eta": "1",
                "data.dirichlet_theta": "0.5",
            },
            scenarios=1,
            traced_scenarios=1,
        ),
    )
}
