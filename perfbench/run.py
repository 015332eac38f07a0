#!/usr/bin/env python3
"""ttfedsim benchmark: full four-algorithm comparisons, timed from outside.

    python3 perfbench/run.py --workload paper-compare --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; the package is imported from `src/`.
One comparison builds a scenario with `engine.setup_scenario`, runs ttfed,
fedavg, fedasync and fedat on it through `engine.run` and renders their CSV
and summary output, as `scripts/compare_algorithms.py` does.

--trace 0 runs one untimed warm-up comparison, then repeats comparisons
over the workload's scenarios until --seconds have passed (at least one
pass, and at least three comparisons) and reports the median of each
end-to-end metric over the comparisons.
--trace 1 runs one untimed warm-up comparison, then a fixed set of
scenarios once untraced and twice traced, so that call counts repeat
exactly, and reports per-layer figures.

Every algorithm run is checked (message counts, evaluation values, fedavg
uplinks, and a trajectory hash that must not change between runs of the
same scenario). The last line of stdout is the JSON result; the line
before it records the environment and the trajectory hash. Both are also
written to `perfbench/out/`, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

sys.dont_write_bytecode = True  # leave the checkout's sources untouched

from tracer import LAYERS, ROOT_SPAN, Tracer, summarize, write_spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
ALGORITHMS = ("ttfed", "fedavg", "fedasync", "fedat")
# One BLAS thread: the simulator is a single-threaded Python loop around
# small matmuls, and on a shared machine extra BLAS threads only add noise.
# Trajectories are the same at any thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
MIN_COMPARISONS = 3

# Per-layer figures: timed and counted, counted only, timed only.
TIMED_CALLS = (
    "learner.local_update",
    "learner.evaluate",
    "streams.substream",
    "wireless.draw_fading",
    "wireless.success_given_fading",
    "wireless.comm_delay",
    "numerics.lambert_w_minus1",
    "allocator.qualify",
    "aggregation.fedavg_aggregate",
    "aggregation.fedasync_aggregate",
    "aggregation.fedat_aggregate",
    "aggregation.ttfed_intra_tier",
    "aggregation.ttfed_global",
)
# A workload calls one of the two planners, never both; their time is
# reported together so that no time reads a constant zero.
PLANNERS = ("allocator.select_users", "allocator.equal_share_plan")
TIMED = ("datagen.synthetic_digits", "datagen.partition", "engine.build_tiers")
TRACED_LAYERS = ("bench",) + LAYERS


class Package:
    """The ttfedsim modules the benchmark drives, imported from src/."""

    def __init__(self) -> None:
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "ttfedsim", "__init__.py")):
            raise FileNotFoundError(f"no ttfedsim package under {src}")
        sys.path.insert(0, src)
        import numpy
        from ttfedsim import cli, config, engine

        self.numpy, self.cli, self.config, self.engine = numpy, cli, config, engine

    def configs(self, workload: Workload, seed: int, index: int) -> dict:
        """Algorithm -> config of one scenario, parsed from generated text."""
        raw = self.config.parse_config_text(
            workload.config_text(seed, index), source=f"{workload.name}[{index}]"
        )
        cfg = self.config.build_config(raw)
        return {alg: replace(cfg, algorithm=alg) for alg in ALGORITHMS}


@dataclass
class Comparison:
    scenario: int
    setup_s: float
    run_s: dict
    total_s: float
    results: dict  # algorithm -> RunMetrics
    csv_text: dict  # algorithm -> metrics CSV


def compare(
    pkg: Package, cfgs: dict, scenario: int, tracer: Tracer | None = None, label: str = ""
) -> Comparison:
    """Setup, the four runs and their output; the stages a user waits on.

    With a tracer, `label` prefixes the run id of each stage's spans.
    """

    def stage(name: str) -> None:
        if tracer is not None:
            tracer.run_id = f"{label}.{name}"

    stage("comparison")
    with tracer.span(ROOT_SPAN) if tracer is not None else nullcontext():
        start = perf_counter()
        stage("setup")
        sc = pkg.engine.setup_scenario(cfgs["ttfed"])
        setup_s = perf_counter() - start
        results, run_s = {}, {}
        for alg in ALGORITHMS:
            stage(alg)
            t = perf_counter()
            results[alg] = pkg.engine.run(cfgs[alg], sc)
            run_s[alg] = perf_counter() - t
        stage("output")
        csv_text = {alg: pkg.cli.metrics_csv_text(m) for alg, m in results.items()}
        for alg, m in results.items():
            pkg.cli.summary_dict(cfgs[alg], m)
        total_s = perf_counter() - start
    return Comparison(scenario, setup_s, run_s, total_s, results, csv_text)


def output_problems(alg: str, cfg, metrics) -> list[str]:
    problems = []
    if metrics.uplink_msgs != metrics.success_total + metrics.failed_total:
        problems.append(
            f"uplink_msgs {metrics.uplink_msgs} != success {metrics.success_total}"
            f" + failed {metrics.failed_total}"
        )
    if not metrics.evals:
        problems.append("no evaluations")
    for point in metrics.evals:
        if not (0.0 <= point.accuracy <= 1.0 and math.isfinite(point.loss)):
            problems.append(f"bad evaluation at round {point.round}: {point}")
            break
    if alg == "fedavg" and metrics.evals:
        rounds = metrics.evals[-1].round
        if metrics.uplink_msgs != rounds * cfg.users:
            problems.append(
                f"fedavg uplinks {metrics.uplink_msgs} != {rounds} rounds x {cfg.users} users"
            )
    return problems


class Ledger:
    """Operations attempted and failed; one operation is one algorithm run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csv_sha: dict[tuple[int, str], str] = {}

    def record(self, cfgs: dict, comparison: Comparison) -> None:
        for alg, metrics in comparison.results.items():
            self.attempted += 1
            problems = output_problems(alg, cfgs[alg], metrics)
            sha = hashlib.sha256(comparison.csv_text[alg].encode()).hexdigest()
            first = self.csv_sha.setdefault((comparison.scenario, alg), sha)
            if sha != first:
                problems.append("metrics CSV differs from an earlier run of this scenario")
            if problems:
                self.failed += 1
                self.problems += [f"scenario {comparison.scenario} {alg}: {p}" for p in problems]

    def crash(self, scenario: int) -> None:
        traceback.print_exc()
        self.attempted += len(ALGORITHMS)
        self.failed += len(ALGORITHMS)
        self.problems.append(f"scenario {scenario}: comparison raised (traceback on stderr)")

    def trajectory_sha(self) -> str:
        """One hash over the metrics CSVs of every scenario and algorithm run."""
        digest = hashlib.sha256()
        for key in sorted(self.csv_sha):
            digest.update(self.csv_sha[key].encode())
        return digest.hexdigest()


def run_checked(pkg, ledger, cfgs, scenario, tracer=None, label="") -> Comparison | None:
    # Start every comparison from a collected heap, outside the timed region,
    # so that neither a collection owed by the previous comparison nor its
    # freed memory lands in this one's times or peak memory.
    gc.collect()
    try:
        comparison = compare(pkg, cfgs, scenario, tracer, label)
    except Exception:
        ledger.crash(scenario)
        return None
    ledger.record(cfgs, comparison)
    return comparison


def measure(
    pkg: Package, workload: Workload, seed: int, seconds: float, ledger: Ledger
) -> tuple[dict, dict]:
    """End-to-end medians over comparisons run for `seconds` (tracing off).

    Returns the metrics and the per-comparison timings behind them.
    """
    cfgs = [pkg.configs(workload, seed, i) for i in range(workload.scenarios)]
    # The first comparison of a process runs 15-30% slower (first-touch
    # allocations, cold caches); it is checked but not timed.
    run_checked(pkg, ledger, cfgs[0], 0)
    deadline = perf_counter() + seconds
    minimum = max(workload.scenarios, MIN_COMPARISONS)
    comparisons, runs = [], 0
    while runs < minimum or perf_counter() < deadline:
        index = runs % workload.scenarios
        runs += 1
        comparison = run_checked(pkg, ledger, cfgs[index], index)
        if comparison is not None:
            comparisons.append(comparison)
        if runs == minimum:
            # Peak memory over a fixed amount of work, so that it does not
            # depend on how many comparisons the host's speed lets fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not comparisons:
        return {}, {}
    details = {
        "comparisons": [
            {"scenario": c.scenario, "setup_s": c.setup_s, "total_s": c.total_s, **c.run_s}
            for c in comparisons
        ]
    }
    if workload.ttfed_accuracy_floor is not None:
        final = statistics.median(c.results["ttfed"].final_accuracy for c in comparisons)
        details["ttfed_final_accuracy_median"] = final
        if final < workload.ttfed_accuracy_floor:
            ledger.problems.append(
                f"median final ttfed accuracy {final:.4f} is below the floor "
                f"{workload.ttfed_accuracy_floor}"
            )

    median = statistics.median
    metrics = {"setup_s": (median(c.setup_s for c in comparisons), "s")}
    for alg in ALGORITHMS:
        metrics[f"run_s.{alg}"] = (median(c.run_s[alg] for c in comparisons), "s")
    metrics["total_s"] = (median(c.total_s for c in comparisons), "s")
    metrics["updates_per_s"] = (
        median(
            sum(m.success_total for m in c.results.values()) / sum(c.run_s.values())
            for c in comparisons
        ),
        "1/s",
    )
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, details


def trace(
    pkg: Package, workload: Workload, seed: int, ledger: Ledger, spans_path: str
) -> tuple[dict, dict]:
    """Per-layer figures from two traced passes over the traced scenarios.

    Returns the metrics and the call count of every traced function.
    """
    indices = range(workload.traced_scenarios)
    cfgs = [pkg.configs(workload, seed, i) for i in indices]
    run_checked(pkg, ledger, cfgs[0], 0)  # warm-up, checked but not timed
    plain = [run_checked(pkg, ledger, cfgs[i], i) for i in indices]
    passes = []
    for p in (1, 2):
        tracers = []
        for i in indices:
            with Tracer() as tracer:
                traced = run_checked(pkg, ledger, cfgs[i], i, tracer, f"s{i}.pass{p}")
            if traced is not None:
                tracers.append(tracer)
        passes.append(tracers)
    if any(c is None for c in plain) or any(len(p) != len(indices) for p in passes):
        return {}, {}
    write_spans(spans_path, passes[0] + passes[1])
    first, second = (summarize(p) for p in passes)
    if first["calls"] != second["calls"] or first["counts"] != second["counts"]:
        ledger.problems.append("the two traced passes made different calls or counts")
    for summary in (first, second):
        layers_s = sum(summary["layer_self_s"].values())
        if not math.isclose(layers_s, summary["total_s"], rel_tol=1e-6):
            ledger.problems.append(
                f"layer self times sum to {layers_s} s, traced total is {summary['total_s']} s"
            )

    def seconds(key: str, names) -> float:
        return sum(s[key][n] for s in (first, second) for n in names) / 2

    calls, counts = first["calls"], first["counts"]
    metrics = {}
    for name in TIMED_CALLS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.s"] = (seconds("inclusive_s", [name]), "s")
    for name in PLANNERS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["allocator.plan.s"] = (seconds("inclusive_s", PLANNERS), "s")
    for name in TIMED:
        metrics[f"{name}.s"] = (seconds("inclusive_s", [name]), "s")
    metrics["learner.samples"] = (counts["learner.samples"], "count")
    metrics["datagen.substituted"] = (counts["datagen.substituted"], "count")
    metrics["wireless.upload_ok_ratio"] = (
        counts["wireless.upload_ok"] / max(calls["wireless.success_given_fading"], 1),
        "ratio",
    )
    metrics["allocator.selected_ratio"] = (
        counts["allocator.selected"] / max(counts["allocator.qualified"], 1),
        "ratio",
    )
    for alg in ALGORITHMS:
        metrics[f"engine.self_s.{alg}"] = (seconds("loop_self_s", [alg]), "s")
    cli_names = [n for n in calls if n.startswith("cli.")]
    metrics["cli.output.s"] = (seconds("inclusive_s", cli_names), "s")
    for layer in TRACED_LAYERS:
        metrics[f"layer.{layer}.self_s"] = (seconds("layer_self_s", [layer]), "s")
    traced_total = (first["total_s"] + second["total_s"]) / 2
    metrics["trace.total_s"] = (traced_total, "s")
    metrics["trace_overhead"] = (traced_total / sum(c.total_s for c in plain), "ratio")
    return metrics, {"calls": dict(sorted(calls.items()))}


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26
        blas_name = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    try:
        pkg = Package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load ttfedsim: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-trace{args.trace}")
    if args.trace:
        metrics, details = trace(pkg, workload, args.seed, ledger, f"{stem}.spans.tsv")
    else:
        metrics, details = measure(pkg, workload, args.seed, args.seconds, ledger)
    if not metrics:
        print("error: no comparison completed; see the tracebacks above", file=sys.stderr)
        return 1
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "trajectory_sha256": ledger.trajectory_sha(),
        "problems": ledger.problems,
        "environment": environment(pkg.numpy),
    }
    result = {
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "details": details, "result": result}, fh, indent=2)
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
