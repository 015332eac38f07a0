#!/usr/bin/env python3
"""Run the four aggregation strategies on one scenario and tabulate them.

The defaults reproduce the headline comparison setting: one class per
user, heterogeneous CPU speeds, and an aggregation interval of 0.6 T.
Finishes in a few minutes on one core; lower --rounds for a quick look.
"""

import argparse
import csv
import math
import sys
from dataclasses import replace

from ttfedsim.config import ScenarioConfig
from ttfedsim.engine import count_comm, run, setup_scenario

ALGORITHMS = ("ttfed", "fedavg", "fedasync", "fedat")


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--users", type=int, default=20)
    ap.add_argument("--rounds", type=int, default=300,
                    help="time budget in aggregation intervals")
    ap.add_argument("--frac", type=float, default=0.6,
                    help="aggregation interval as a fraction of the slowest cycle")
    ap.add_argument("--theta", type=float, default=0.0,
                    help="class-skew concentration; 0 gives one class per user, inf is IID")
    ap.add_argument("--eta", type=float, default=0.0, help="size-skew exponent")
    ap.add_argument("--cpu-max-hz", type=float, default=5e9,
                    help="upper end of the uniform per-user CPU draw; 0 disables the draw")
    ap.add_argument("--lr", type=float, default=1.0)
    ap.add_argument("--batch-size", type=int, default=250)
    ap.add_argument("--target", type=float, default=0.9,
                    help="accuracy level for the message-count column")
    ap.add_argument("--max-evals", type=int, default=300)
    ap.add_argument("--csv", default="", help="optional path for per-eval curves")
    return ap.parse_args()


def main() -> None:
    args = parse_args()
    cfg = ScenarioConfig(
        seed=args.seed,
        users=args.users,
        delta_t_frac=args.frac,
        rounds=args.rounds,
        max_evals=args.max_evals,
        learning_rate=args.lr,
        local_epochs=1,
        batch_size=args.batch_size,
        dirichlet_theta=args.theta,
        zipf_eta=args.eta,
        cpu_freq_max_hz=args.cpu_max_hz or None,
    )
    scenario = setup_scenario(cfg)
    print(
        f"tiers={scenario.num_tiers}"
        f" interval={scenario.delta_t:.4g}s"
        f" budget={scenario.budget_s:.4g}s"
    )

    results = {}
    for algo in ALGORITHMS:
        results[algo] = run(replace(cfg, algorithm=algo), scenario)

    msgs_col = f"msgs@{args.target:g}"
    print(f"{'algorithm':>9} {'final':>7} {'peak':>7} {msgs_col:>10} "
          f"{'uplinks':>8} {'downlinks':>9}")
    for algo, metrics in results.items():
        peak = max(point.accuracy for point in metrics.evals)
        crossing = count_comm(metrics, (args.target,))[args.target]
        msgs = "-" if crossing is None else str(crossing["messages"])
        downlinks = metrics.downlink_broadcasts + metrics.downlink_unicasts
        print(f"{algo:>9} {metrics.final_accuracy:>7.4f} {peak:>7.4f} "
              f"{msgs:>10} {metrics.uplink_msgs:>8} {downlinks:>9}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "time_s", "round", "accuracy", "loss"])
            for algo, metrics in results.items():
                for point in metrics.evals:
                    writer.writerow(
                        [algo, point.time_s, point.round, point.accuracy, point.loss]
                    )
        print(f"curves written to {args.csv}", file=sys.stderr)

    if not math.isfinite(args.theta) and args.eta == 0.0:
        print("note: IID shards; skew flags left at their defaults", file=sys.stderr)


if __name__ == "__main__":
    main()
