"""Whole-system checks tying every module to its headline guarantee.

Each test prints one labeled [PASS]/[FAIL] line (visible with -s or in
failure reports) and enforces its own wall-clock cap, so a full run
reads as a checklist. The regime comparison near the end is the slow
one (marked slow); everything else finishes in seconds.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ttfedsim.aggregation import ttfed_tier_weight_fractions
from ttfedsim.allocator import optimal_bandwidth, qualify, select_users
from ttfedsim.bound import (
    BoundConstants,
    asymptotic_bound,
    check_conditions,
    contraction_factor,
    convergence_bound,
    delta1,
    delta2,
)
from ttfedsim.config import ScenarioConfig
from ttfedsim.engine import count_comm, run, setup_scenario
from ttfedsim.learner import MlpArch, init_params
from ttfedsim.numerics import bisect_root, lambert_w_minus1
from ttfedsim.wireless import ChannelParams, comm_delay, fading_threshold, path_loss, stp

from reference import loss_and_gradient

NOISE_PSD = 3.9810717055349565e-21  # -174 dBm/Hz in W/Hz


@contextmanager
def report(label: str, cap_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < cap_s, f"{label}: took {elapsed:.1f}s, cap {cap_s:.0f}s"
    except BaseException:
        print(f"[FAIL] {label} ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[PASS] {label} ({elapsed:.1f}s)")


def default_params(model_bits: float = 636160.0) -> ChannelParams:
    return ChannelParams(
        path_loss_exponent=3.76,
        noise_psd=NOISE_PSD,
        tx_power=0.01,
        snr_threshold=1.0,
        total_bandwidth=20e6,
        model_bits=model_bits,
    )


def test_01_lambert_lower_branch():
    with report("01 lambert-w lower branch: -1 at the branch point, 1e-10 residuals", 1.0):
        assert abs(lambert_w_minus1(-1.0 / math.e) + 1.0) <= 1e-9
        rng = np.random.default_rng(51)
        # x = -e^-v sweeps the branch toward 0-, x = -(1-t)/e hugs the branch point
        mag = rng.uniform(1.0 + 1e-9, 700.0, size=5000)
        near = 10.0 ** rng.uniform(-12.0, -0.01, size=5000)
        xs = np.concatenate([-np.exp(-mag), -(1.0 - near) / math.e])
        for x in xs:
            w = lambert_w_minus1(float(x))
            assert w <= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-10 * abs(x)


def test_02_bandwidth_closed_form_vs_bisection():
    with report("02 closed-form bandwidth = rate-equation bisection; deadlines land exactly", 5.0):
        rng = np.random.default_rng(52)
        ln2 = math.log(2.0)
        for _ in range(1000):
            model_bits = float(rng.uniform(1e5, 2e6))
            params = default_params(model_bits)
            interval = float(rng.uniform(0.05, 0.5))
            tier = int(rng.integers(1, 5))
            deadline = tier * interval
            tau_cp = float(rng.uniform(0.0, 0.9)) * deadline
            slack = deadline - tau_cp
            lam = float(10.0 ** rng.uniform(-7.0, math.log10(0.99)))
            gain = model_bits * params.noise_psd * ln2 / (params.tx_power * lam * slack)

            b_closed = optimal_bandwidth(lam, model_bits, slack)

            snr_scale = params.tx_power * gain / params.noise_psd
            need = model_bits / slack

            def rate_gap(b: float) -> float:
                return b * math.log2(1.0 + snr_scale / b) - need

            hi = 1.0
            while rate_gap(hi) < 0.0:
                hi *= 4.0
            b_oracle = bisect_root(rate_gap, hi / 4.0e6, hi, tol=1e-9 * b_closed)
            assert abs(b_closed - b_oracle) <= 1e-6 * b_oracle

            total = comm_delay(b_closed, gain, params) + tau_cp
            assert abs(total - deadline) <= 1e-6 * deadline


def test_03_success_probability_monte_carlo():
    with report("03 transmission success: 1e5-draw monte carlo within 1% at 5 points", 5.0):
        params = default_params()
        rng = np.random.default_rng(53)
        distance = 300.0
        gain = path_loss(distance, params.path_loss_exponent)
        for want in (0.30, 0.50, 0.70, 0.90, 0.99):
            # bandwidth whose decoding threshold makes the success rate `want`
            thr = -math.log(want)
            b = thr * params.tx_power * gain / (params.snr_threshold * params.noise_psd)
            p = stp(b, distance, params)
            assert abs(p - want) <= 1e-9
            draws = rng.standard_exponential(100_000)
            empirical = float(np.mean(draws >= fading_threshold(b, distance, params)))
            assert abs(empirical - p) <= 0.01 * p


def test_04_tier_weights_exact_rationals():
    with report("04 tier weights: exact rational sums, pinned 3-tier vector", 10.0):
        assert ttfed_tier_weight_fractions(6, 3) == [
            Fraction(2, 11),
            Fraction(3, 11),
            Fraction(6, 11),
        ]
        # dense low-round band for every tier count: weights shift fastest here
        for num_tiers in range(1, 65):
            for k in range(1, 601):
                assert sum(ttfed_tier_weight_fractions(k, num_tiers)) == 1
        # full round range at the edge tier counts
        for num_tiers in (1, 2):
            for k in range(1, 10_001):
                assert sum(ttfed_tier_weight_fractions(k, num_tiers)) == 1
        for k in range(1, 10_001, 2):
            assert sum(ttfed_tier_weight_fractions(k, 64)) == 1
        # random pairs across the whole grid
        rng = np.random.default_rng(54)
        for _ in range(6000):
            num_tiers = int(rng.integers(1, 65))
            k = int(rng.integers(1, 10_001))
            assert sum(ttfed_tier_weight_fractions(k, num_tiers)) == 1


def test_05_single_tier_reduces_to_sync():
    with report("05 single-tier schedule reproduces the synchronous loop bit for bit", 60.0):
        cfg = ScenarioConfig(
            seed=7,
            users=5,
            radius_m=25.0,
            delta_t_frac=1.0,
            rounds=20,
            max_evals=20,
            tx_power_w=10.0,
            train_per_class=25,
            test_per_class=10,
            learning_rate=0.1,
            batch_size=25,
        )
        sc = setup_scenario(cfg)
        assert sc.num_tiers == 1
        trace_tt: list[np.ndarray] = []
        trace_fa: list[np.ndarray] = []
        m_tt = run(cfg, sc, trace=trace_tt)
        m_fa = run(replace(cfg, algorithm="fedavg"), sc, trace=trace_fa)
        assert m_tt.failed_total == 0 and m_fa.failed_total == 0
        assert len(trace_tt) == len(trace_fa) == 20
        for w_tt, w_fa in zip(trace_tt, trace_fa):
            assert w_tt.tobytes() == w_fa.tobytes()
        assert m_tt.final_accuracy == m_fa.final_accuracy


def test_06_tier_count_mapping():
    with report("06 interval fraction -> tier count mapping", 30.0):
        for frac, want in ((0.3, 4), (0.4, 3), (0.6, 2), (0.8, 2), (1.0, 1)):
            cfg = ScenarioConfig(
                delta_t_frac=frac,
                users=8,
                radius_m=200.0,
                train_per_class=20,
                test_per_class=10,
            )
            sc = setup_scenario(cfg)
            assert sc.num_tiers == want, (frac, sc.num_tiers)


def test_07_gradient_finite_difference():
    with report("07 analytic gradient vs central differences over 10 seeds", 30.0):
        arch = MlpArch(hidden=12)
        for seed in range(10):
            rng = np.random.default_rng(900 + seed)
            w = init_params(seed, arch).astype(np.float64)  # float32 would round h
            images = rng.random((16, 784))
            labels = rng.integers(0, 10, size=16)
            _, grad = loss_and_gradient(w, images, labels, arch)
            coords = rng.choice(w.size, size=24, replace=False)
            for i in coords:
                h = 1e-5 * max(1.0, abs(w[i]))
                w_plus = w.copy()
                w_plus[i] += h
                w_minus = w.copy()
                w_minus[i] -= h
                numeric = (
                    loss_and_gradient(w_plus, images, labels, arch)[0]
                    - loss_and_gradient(w_minus, images, labels, arch)[0]
                ) / (2.0 * h)
                scale = max(abs(numeric), abs(grad[i]), 1e-5)
                assert abs(numeric - grad[i]) / scale <= 1e-4


def _random_qualified(rng, params, users, interval):
    qualified = []
    for u in range(users):
        tier = int(rng.integers(1, 4))
        distance = float(rng.uniform(5.0, 600.0))
        gain = path_loss(distance, params.path_loss_exponent) * float(rng.uniform(0.05, 3.0))
        tau_cp = float(rng.uniform(0.1, 1.2)) * tier * interval
        q = qualify(
            user_id=u,
            data_size=float(rng.integers(10, 400)),
            alpha=float(rng.uniform(0.05, 1.0)),
            slack=tier * interval - tau_cp,
            gain_power=gain,
            distance=distance,
            params=params,
        )
        if q is not None:
            qualified.append(q)
    return qualified


def test_08_greedy_plan_constraints_and_brute_force():
    with report("08 greedy plans respect budget/deadline/eligibility; optimality ratio logged", 120.0):
        params = default_params()
        budget = params.total_bandwidth
        rng = np.random.default_rng(58)
        for _ in range(10_000):
            users = int(rng.integers(1, 21))
            interval = float(rng.uniform(0.02, 0.2))
            qualified = _random_qualified(rng, params, users, interval)
            plan = select_users(qualified, budget, greedy_skip=bool(rng.integers(0, 2)))
            assert plan.total_allocated <= budget * (1.0 + 1e-12)
            assert len(set(plan.selected)) == len(plan.selected)
            by_id = {q.user_id: q for q in qualified}
            alloc = math.fsum(plan.bandwidth.values())
            assert abs(alloc - plan.total_allocated) <= 1e-9 * max(1.0, alloc)
            for u in plan.selected:
                q = by_id[u]  # KeyError here would mean an unqualified pick
                assert q.slack > 0.0 and q.lam < 1.0
                assert comm_delay(plan.bandwidth[u], q.gain_power, params) <= q.slack * (1.0 + 1e-9)

        # greedy vs exhaustive subsets on small instances; ratio is diagnostic only
        ratios = []
        masks = ((np.arange(1 << 12)[:, None] >> np.arange(12)) & 1).astype(np.float64)
        for _ in range(200):
            users = int(rng.integers(4, 13))
            interval = float(rng.uniform(0.02, 0.2))
            qualified = _random_qualified(rng, params, users, interval)[:12]
            greedy_value = math.fsum(
                q.weight for q in qualified if q.user_id in set(select_users(qualified, budget).selected)
            )
            n = len(qualified)
            if n == 0:
                continue
            bw = np.array([q.bandwidth for q in qualified])
            wt = np.array([q.weight for q in qualified])
            m = masks[: 1 << n, :n]
            feasible = m @ bw <= budget
            best = float((m @ wt)[feasible].max(initial=0.0))
            if best > 0.0:
                assert greedy_value <= best * (1.0 + 1e-12)
                ratios.append(greedy_value / best)
        assert ratios
        print(
            f"greedy/optimal objective ratio over {len(ratios)} instances: "
            f"min {min(ratios):.4f}, mean {sum(ratios) / len(ratios):.4f}"
        )


@pytest.mark.slow
def test_09_algorithm_regime_comparison():
    with report("09 four-algorithm regimes: accuracy floor, skew ranking, message ordering", 1800.0):
        shared = dict(rounds=600, max_evals=300, learning_rate=1.0, local_epochs=1, batch_size=250)
        algos = ("ttfed", "fedavg", "fedasync", "fedat")

        # uniform shards, homogeneous cpu: every algorithm clears 80%
        for seed in (1, 2, 3, 4, 5):
            base = ScenarioConfig(seed=seed, **shared)
            sc = setup_scenario(base)
            for algo in algos:
                metrics = run(replace(base, algorithm=algo), sc)
                assert metrics.peak_accuracy >= 0.80, (seed, algo, metrics.peak_accuracy)

        # single-class shards, cpu spread 1-5 GHz: converged-accuracy ranking
        # and message counts to a common 92% target
        conv: dict[str, list[float]] = {a: [] for a in algos}
        ordering_ok = 0
        for seed in (1, 2, 3, 4, 5):
            base = ScenarioConfig(
                seed=seed, dirichlet_theta=0.0, cpu_freq_max_hz=5e9, **shared
            )
            sc = setup_scenario(base)
            msgs: dict[str, int | None] = {}
            for algo in algos:
                metrics = run(replace(base, algorithm=algo), sc)
                tail = [p.accuracy for p in metrics.evals if p.time_s >= 0.75 * sc.budget_s]
                conv[algo].append(sum(tail) / len(tail))
                crossing = count_comm(metrics, (0.92,))[0.92]
                msgs[algo] = None if crossing is None else crossing["messages"]
            if None not in msgs.values() and (
                msgs["fedasync"] > msgs["fedat"] > msgs["ttfed"] >= msgs["fedavg"]
            ):
                ordering_ok += 1
        mean = {a: sum(v) / len(v) for a, v in conv.items()}
        print(
            "skewed-regime converged means: "
            + " ".join(f"{a}={mean[a]:.4f}" for a in algos)
            + f"; message ordering held in {ordering_ok}/5 seeds"
        )
        assert mean["ttfed"] >= mean["fedasync"]
        assert mean["ttfed"] >= mean["fedat"]
        assert ordering_ok >= 4


def _random_valid_constants(rng) -> BoundConstants:
    num_tiers = int(rng.integers(1, 7))
    smoothness = float(rng.uniform(0.5, 3.0))
    strong_convexity = float(rng.uniform(0.01, 1.0)) * 2.0 * smoothness / num_tiers
    local_ratio = float(rng.uniform(0.0, 2.0))
    total_drift = float(rng.uniform(0.05, 0.95))
    split = float(rng.uniform(0.1, 0.9))
    drift_inner = total_drift * split / (4.0 * smoothness)
    grad_slope = total_drift * (1.0 - split) / (3.0 * (1.0 + (1.0 + local_ratio) ** 2))
    return BoundConstants(
        smoothness=smoothness,
        strong_convexity=strong_convexity,
        grad_offset=float(rng.uniform(0.05, 1.0)),
        grad_slope=grad_slope,
        drift_inner=drift_inner,
        drift_norm=float(rng.uniform(0.0, 0.5)),
        local_ratio=local_ratio,
        local_gap=float(rng.uniform(0.0, 0.5)),
        initial_gap=float(rng.uniform(0.5, 4.0)),
        num_tiers=num_tiers,
        failure_fractions=tuple(float(x) for x in rng.uniform(0.0, 0.8, size=num_tiers)),
    )


def test_10_bound_evaluator_limits():
    with report("10 bound evaluator: zero-round gap, asymptotic limit, condition checker", 5.0):
        rng = np.random.default_rng(60)
        for _ in range(10):
            c = _random_valid_constants(rng)
            assert convergence_bound(c, 0) == c.initial_gap
            factor = contraction_factor(c)
            assert 0.0 < factor < 1.0
            limit = 2.0 * delta1(c) * c.smoothness / (c.strong_convexity * delta2(c))
            assert abs(asymptotic_bound(c) - limit) <= 1e-12 * abs(limit)
            rounds = int(math.log(1e-14) / math.log(factor)) + 1
            assert abs(convergence_bound(c, rounds) - limit) <= 1e-9 * max(1.0, abs(limit))

        for _ in range(20):
            num_tiers = int(rng.integers(1, 7))
            smoothness = float(rng.uniform(0.3, 3.0))
            strong_convexity = float(rng.uniform(0.01, 2.0 * smoothness))
            local_ratio = float(rng.uniform(0.0, 2.0))
            grad_slope = float(rng.uniform(0.0, 0.3))
            drift_inner = float(rng.uniform(0.0, 0.3))
            c = BoundConstants(
                smoothness=smoothness,
                strong_convexity=strong_convexity,
                grad_offset=float(rng.uniform(0.0, 1.0)),
                grad_slope=grad_slope,
                drift_inner=drift_inner,
                drift_norm=float(rng.uniform(0.0, 0.5)),
                local_ratio=local_ratio,
                local_gap=float(rng.uniform(0.0, 0.5)),
                initial_gap=float(rng.uniform(0.0, 4.0)),
                num_tiers=num_tiers,
                failure_fractions=tuple(float(x) for x in rng.uniform(0.0, 1.0, size=num_tiers)),
            )
            ok, reasons = check_conditions(c)
            ratio_ok = 0.0 <= strong_convexity / (2.0 * smoothness) <= 1.0 / num_tiers + 1e-15
            drift = 4.0 * drift_inner * smoothness + 3.0 * grad_slope * (
                1.0 + (1.0 + local_ratio) ** 2
            )
            drift_ok = 0.0 <= drift <= 1.0 + 1e-15
            assert ok == (ratio_ok and drift_ok)
            assert len(reasons) == (not ratio_ok) + (not drift_ok)
