#!/usr/bin/env python3
"""Sweep the aggregation interval and report tiers, accuracy, and traffic.

Every setting gets the same wall-clock training budget (a multiple of the
slowest user's cycle time T), so short intervals run more rounds.
"""

import argparse
from dataclasses import replace

from ttfedsim.config import ScenarioConfig
from ttfedsim.engine import run, setup_scenario


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--users", type=int, default=20)
    ap.add_argument("--budget-cycles", type=float, default=120.0,
                    help="training budget as a multiple of the slowest cycle T")
    ap.add_argument("--fracs", default="0.3,0.4,0.6,0.8,1.0",
                    help="comma-separated interval/T ratios to sweep")
    ap.add_argument("--theta", type=float, default=0.0)
    ap.add_argument("--cpu-max-hz", type=float, default=5e9)
    ap.add_argument("--lr", type=float, default=1.0)
    ap.add_argument("--batch-size", type=int, default=250)
    ap.add_argument("--max-evals", type=int, default=200)
    return ap.parse_args()


def main() -> None:
    args = parse_args()
    base = ScenarioConfig(
        seed=args.seed,
        users=args.users,
        max_evals=args.max_evals,
        learning_rate=args.lr,
        local_epochs=1,
        batch_size=args.batch_size,
        dirichlet_theta=args.theta,
        cpu_freq_max_hz=args.cpu_max_hz or None,
    )
    fracs = [float(x) for x in args.fracs.split(",")]

    # T depends only on the population, not the interval, so probe it once.
    cycle_t = setup_scenario(base).round_time
    budget_s = args.budget_cycles * cycle_t
    print(f"slowest cycle T={cycle_t:.4g}s, budget={budget_s:.4g}s")

    print(f"{'frac':>5} {'tiers':>5} {'rounds':>6} {'final':>7} {'peak':>7} "
          f"{'uplinks':>8} {'downlinks':>9}")
    for frac in fracs:
        cfg = replace(base, delta_t_frac=frac, time_budget_s=budget_s)
        scenario = setup_scenario(cfg)
        metrics = run(cfg, scenario)
        rounds = metrics.evals[-1].round if metrics.evals else 0
        downlinks = metrics.downlink_broadcasts + metrics.downlink_unicasts
        print(f"{frac:>5.2f} {scenario.num_tiers:>5} {rounds:>6} "
              f"{metrics.final_accuracy:>7.4f} {metrics.peak_accuracy:>7.4f} "
              f"{metrics.uplink_msgs:>8} {downlinks:>9}")


if __name__ == "__main__":
    main()
