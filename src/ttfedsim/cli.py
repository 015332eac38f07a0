"""Command-line front end: single runs, parameter sweeps, bound tables.

Output files are written atomically (temp file + rename) so a killed run
never leaves a half-written CSV. The metrics CSV schema is fixed:
time_s,round,algorithm,accuracy,loss,uplink_msgs,downlink_broadcasts,
downlink_unicasts,success_users,failed_users.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import traceback
from dataclasses import replace

from . import __version__
from .bound import BoundConstants, bound_table, check_conditions
from .config import (
    ConfigError,
    ScenarioConfig,
    _parse_opt_float,
    _parse_targets,
    apply_overrides,
    load_config,
    parse_config_text,
    parse_keys,
    with_updates,
)
from .engine import RunMetrics, count_comm, run, setup_scenario

CSV_HEADER = [
    "time_s",
    "round",
    "algorithm",
    "accuracy",
    "loss",
    "uplink_msgs",
    "downlink_broadcasts",
    "downlink_unicasts",
    "success_users",
    "failed_users",
]

OUT_DIR_ENV = "TTFEDSIM_OUT_DIR"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def metrics_csv_text(metrics: RunMetrics) -> str:
    return _csv_text(
        CSV_HEADER,
        (
            [
                f"{p.time_s:.9g}",
                p.round,
                metrics.algorithm,
                f"{p.accuracy:.6f}",
                f"{p.loss:.9g}",
                p.uplink_msgs,
                p.downlink_broadcasts,
                p.downlink_unicasts,
                p.success_users,
                p.failed_users,
            ]
            for p in metrics.evals
        ),
    )


def summary_dict(cfg: ScenarioConfig, metrics: RunMetrics) -> dict:
    crossings = {}
    for target, info in count_comm(metrics, cfg.accuracy_targets).items():
        crossings[f"{target:g}"] = info  # None when never reached
    last = metrics.evals[-1] if metrics.evals else None
    return {
        "tool_version": __version__,
        "algorithm": metrics.algorithm,
        "seed": cfg.seed,
        "config_hash": cfg.content_hash(),
        "num_tiers": metrics.num_tiers,
        "tier_populations": metrics.tier_populations,
        "empty_events": metrics.empty_events,
        "delta_t_s": metrics.delta_t,
        "round_time_s": metrics.round_time,
        "events": last.round if last else None,
        "final_time_s": last.time_s if last else None,
        "final_accuracy": last.accuracy if last else None,
        "peak_accuracy": metrics.peak_accuracy if last else None,
        "final_loss": last.loss if last else None,
        "uplink_msgs": metrics.uplink_msgs,
        "downlink_broadcasts": metrics.downlink_broadcasts,
        "downlink_unicasts": metrics.downlink_unicasts,
        "success_total": metrics.success_total,
        "failed_total": metrics.failed_total,
        "zero_weight_uploads": metrics.zero_weight_uploads,
        "substituted_samples": metrics.substituted_samples,
        "target_crossings": crossings,
    }


def _out_dir(args) -> str:
    if args.out_dir:
        return args.out_dir
    return os.environ.get(OUT_DIR_ENV, "ttfedsim_out")


def _write_run(prefix: str, cfg: ScenarioConfig, metrics: RunMetrics) -> tuple[str, str]:
    """Write a run's metrics CSV and summary JSON; returns their paths."""
    csv_path = f"{prefix}_metrics.csv"
    json_path = f"{prefix}_summary.json"
    _atomic_write(csv_path, metrics_csv_text(metrics))
    _atomic_write(json_path, json.dumps(summary_dict(cfg, metrics), indent=2) + "\n")
    return csv_path, json_path


def cmd_run(args) -> int:
    # --seed goes last, so it wins over an --override of sim.seed
    seed = [f"sim.seed={args.seed}"] if args.seed is not None else []
    cfg = load_config(args.config, (args.override or []) + seed)
    metrics = run(cfg)
    csv_path, json_path = _write_run(
        os.path.join(_out_dir(args), f"{cfg.algorithm}_seed{cfg.seed}"), cfg, metrics
    )
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    last = metrics.evals[-1]
    print(
        f"{metrics.algorithm}: final accuracy {last.accuracy:.4f}, "
        f"loss {last.loss:.4f} after {last.round} rounds ({last.time_s:.3f}s simulated)"
    )
    return 0


def _parse_axis(spec: str) -> tuple[str, list[str]]:
    if "=" not in spec:
        raise ConfigError(f"axis {spec!r} is not of the form key=v1,v2,...")
    key, _, values = spec.partition("=")
    values = [v.strip() for v in values.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"axis {spec!r} has no values")
    return key.strip(), values


def _reject_repeats(flag: str, values: list) -> None:
    # a repeated cell would overwrite its own output files
    repeated = sorted({str(v) for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{flag}: repeated value(s) {', '.join(repeated)}")


def cmd_sweep(args) -> int:
    axis_key, axis_values = _parse_axis(args.axis)
    _reject_repeats("--axis", axis_values)
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
    except ValueError as exc:
        raise ConfigError(f"--seeds: cannot parse {args.seeds!r} ({exc})") from None
    _reject_repeats("--seeds", seeds or [])
    if seeds and axis_key == "sim.seed":
        raise ConfigError("--seeds: would replace every value of --axis sim.seed")
    out = _out_dir(args)

    # the whole grid is checked before the first run, so a bad value
    # anywhere stops the sweep before it writes anything
    grid = []
    for value in axis_values:
        # the axis value goes last, so it wins over an --override of its key
        cfg0 = load_config(args.config, (args.override or []) + [f"{axis_key}={value}"])
        grid.extend((value, with_updates(cfg0, seed=seed)) for seed in seeds or [cfg0.seed])

    # cells that differ only in sim.algorithm share one scenario; groups run
    # one after another, so one scenario is alive at a time, and the files
    # still list the cells in grid order
    groups: dict[ScenarioConfig, list[int]] = {}
    for i, (_, cfg) in enumerate(grid):
        groups.setdefault(replace(cfg, algorithm="ttfed"), []).append(i)
    runs = [
        {
            "axis_key": axis_key,
            "axis_value": value,
            "seed": cfg.seed,
            "config_hash": cfg.content_hash(),
        }
        for value, cfg in grid
    ]
    rows: list = [None] * len(grid)

    def fail(i: int, exc: Exception) -> None:
        # a cell that raised is recorded with its error, and the sweep goes on
        value, cfg = grid[i]
        runs[i]["error"] = f"{type(exc).__name__}: {exc}"
        print(f"{axis_key}={value} seed={cfg.seed} {cfg.algorithm}: failed", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)

    for cells in groups.values():
        try:
            scenario = setup_scenario(grid[cells[0]][1])
        except Exception as exc:
            for i in cells:
                fail(i, exc)
            continue
        for i in cells:
            value, cfg = grid[i]
            try:
                metrics = run(cfg, scenario)
                tag = f"{axis_key.split('.')[-1]}_{value}_seed{cfg.seed}_{cfg.algorithm}"
                csv_path, json_path = _write_run(os.path.join(out, "runs", tag), cfg, metrics)
            except Exception as exc:
                fail(i, exc)
                continue
            runs[i].update(metrics_csv=csv_path, summary_json=json_path)
            last = metrics.evals[-1]
            rows[i] = [
                value,
                cfg.seed,
                metrics.algorithm,
                f"{last.accuracy:.6f}",
                f"{last.loss:.9g}",
                metrics.uplink_msgs,
                metrics.downlink_broadcasts,
                metrics.downlink_unicasts,
                metrics.num_tiers,
                f"{metrics.delta_t:.9g}",
                f"{metrics.peak_accuracy:.6f}",
            ]
            print(f"{axis_key}={value} seed={cfg.seed}: accuracy {last.accuracy:.4f}")
        del scenario  # freed before the next group's is built

    comparison = os.path.join(out, "comparison.csv")
    manifest = os.path.join(out, "manifest.json")
    header = [
        "axis_value",
        "seed",
        "algorithm",
        "final_accuracy",
        "final_loss",
        "uplink_msgs",
        "downlink_broadcasts",
        "downlink_unicasts",
        "num_tiers",
        "delta_t_s",
        "peak_accuracy",
    ]
    _atomic_write(comparison, _csv_text(header, (row for row in rows if row is not None)))
    _atomic_write(
        manifest,
        json.dumps({"tool_version": __version__, "axis": args.axis, "runs": runs}, indent=2)
        + "\n",
    )
    print(f"wrote {comparison}")
    print(f"wrote {manifest}")
    failed = rows.count(None)
    if failed:
        print(f"error: {failed} of {len(grid)} cells failed; see {manifest}", file=sys.stderr)
        return 1
    return 0


_BOUND_KEYS = {
    "bound.smoothness": ("smoothness", float),
    "bound.strong_convexity": ("strong_convexity", float),
    "bound.grad_offset": ("grad_offset", float),
    "bound.grad_slope": ("grad_slope", float),
    "bound.drift_inner": ("drift_inner", float),
    "bound.drift_norm": ("drift_norm", float),
    "bound.local_ratio": ("local_ratio", float),
    "bound.local_gap": ("local_gap", float),
    "bound.initial_gap": ("initial_gap", float),
    "bound.num_tiers": ("num_tiers", int),
    "bound.median_const": ("median_const", _parse_opt_float),
    "bound.failure_fractions": ("failure_fractions", _parse_targets),
    # the K values of the table, not a constant
    "bound.round_values": ("round_values", lambda s: [int(x) for x in s.split(",")]),
}


def load_bound_constants(path: str, overrides: list[str] | None = None) -> tuple[BoundConstants, list[int]]:
    with open(path, encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), source=path)
    raw = apply_overrides(raw, overrides or [])
    kwargs = parse_keys(raw, _BOUND_KEYS)
    rounds = kwargs.pop("round_values", [0, 1, 10, 100, 1000])
    try:
        constants = BoundConstants(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bound constants invalid: {exc}") from exc
    return constants, rounds


def cmd_bound(args) -> int:
    constants, rounds = load_bound_constants(args.config, args.override)
    ok, reasons = check_conditions(constants)
    if not ok:
        print("warning: convergence conditions violated:")
        for reason in reasons:
            print(f"  - {reason}")
    try:
        table = bound_table(constants, rounds)
    except ZeroDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'K':>8}  {'bound':>14}  conditions_ok")
    for k, value in table:
        print(f"{k:>8}  {value:>14.6g}  {str(ok).lower()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ttfedsim",
        description="Simulate time-triggered federated learning over an unreliable wireless uplink.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="flat key=value config file")
    common.add_argument(
        "--override",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )

    p_run = sub.add_parser("run", parents=[common], help="execute one scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override sim.seed")
    p_run.add_argument("--out-dir", default=None, help=f"output directory (or ${OUT_DIR_ENV})")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a grid over one config key")
    p_sweep.add_argument(
        "--axis",
        required=True,
        metavar="KEY=V1,V2,...",
        help="config key and comma-separated values, e.g. sim.delta_t_frac=0.3,0.6,1.0",
    )
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seeds, e.g. 1,2,3")
    p_sweep.add_argument("--out-dir", default=None, help=f"output directory (or ${OUT_DIR_ENV})")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bound = sub.add_parser("bound", parents=[common], help="evaluate the convergence bound")
    p_bound.set_defaults(func=cmd_bound)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
