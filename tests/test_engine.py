"""Training-loop orchestration: tiering, cadences, counters, determinism."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ttfedsim import allocator, engine, wireless
from ttfedsim.aggregation import (
    fedasync_aggregate,
    fedat_aggregate,
    fedavg_aggregate,
    ttfed_tier_weights,
)
from ttfedsim.config import ScenarioConfig, with_updates
from ttfedsim.engine import (
    RunMetrics,
    TierSchedule,
    _ceil_with_boundary,
    _train_user,
    build_tiers,
    count_comm,
    place_users,
    run,
    setup_scenario,
)
from ttfedsim.learner import evaluate, init_params
from ttfedsim.streams import TAG_INIT, derive_seed

# small, fast, high-success scenario shared by the loop tests
BASE = ScenarioConfig(
    users=4,
    radius_m=50.0,
    rounds=6,
    train_per_class=10,
    test_per_class=5,
    seed=7,
)


def toy_config(**overrides):
    return with_updates(BASE, **overrides)


class TestPlaceUsers:
    def test_support(self):
        d = place_users(1000, 600.0, np.random.default_rng(0))
        assert d.shape == (1000,)
        assert (d >= 0).all() and (d <= 600.0).all()

    def test_disk_moment(self):
        d = place_users(100_000, 600.0, np.random.default_rng(1))
        assert np.mean((d / 600.0) ** 2) == pytest.approx(0.5, rel=0.01)

    def test_deterministic(self):
        a = place_users(20, 600.0, np.random.default_rng(5))
        b = place_users(20, 600.0, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            place_users(0, 600.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            place_users(5, -1.0, np.random.default_rng(0))


class TestCeilWithBoundary:
    def test_plain_ceiling(self):
        assert _ceil_with_boundary(2.1) == 3
        assert _ceil_with_boundary(0.3) == 1

    def test_exact_integer(self):
        assert _ceil_with_boundary(2.0) == 2
        assert _ceil_with_boundary(1.0) == 1

    def test_float_noise_rounds_down(self):
        assert _ceil_with_boundary(3.0 + 1e-10) == 3
        assert _ceil_with_boundary(3.0 - 1e-10) == 3

    def test_real_excess_rounds_up(self):
        assert _ceil_with_boundary(3.0001) == 4


class TestTierSchedule:
    def test_membership_queries(self):
        sched = TierSchedule(
            num_tiers=2,
            tier_of={0: 1, 1: 2, 2: 1},
            delta_t=0.5,
            round_time=1.0,
        )
        assert sched.users_in(1) == [0, 2]
        assert sched.users_in(2) == [1]
        assert sched.due_tiers(1) == [1]
        assert sched.due_tiers(2) == [1, 2]
        assert sched.due_tiers(6) == [1, 2]

    def test_validation(self):
        with pytest.raises(ValueError, match="num_tiers"):
            TierSchedule(0, {}, 0.5, 1.0)
        with pytest.raises(ValueError, match="delta_t"):
            TierSchedule(1, {}, 0.0, 1.0)
        with pytest.raises(ValueError, match="assignments"):
            TierSchedule(2, {0: 3}, 0.5, 1.0)


class TestBuildTiers:
    @pytest.mark.parametrize(
        "frac,num_tiers", [(0.3, 4), (0.4, 3), (0.6, 2), (0.8, 2), (1.0, 1)]
    )
    def test_tier_count_from_fraction(self, frac, num_tiers):
        sched = build_tiers(np.array([1.0, 0.5]), delta_t_frac=frac)
        assert sched.num_tiers == num_tiers

    def test_membership_and_data_totals(self):
        sched = build_tiers(np.array([1.0, 2.0]), delta_t_s=1.0)
        assert sched.num_tiers == 2
        assert sched.tier_of == {0: 1, 1: 2}
        assert sched.round_time == 2.0
        assert sched.delta_t == 1.0

    def test_exact_boundary_joins_lower_tier(self):
        sched = build_tiers(np.array([0.5, 1.0]), delta_t_s=0.5)
        assert sched.tier_of == {0: 1, 1: 2}

    def test_interval_at_least_round_time(self):
        sched = build_tiers(np.array([0.7, 1.0]), delta_t_frac=1.5)
        assert sched.num_tiers == 1
        assert sched.tier_of == {0: 1, 1: 1}

    def test_singleton_tiers_make_async_cadence(self):
        # one user per tier: the schedule fires each user at its own pace
        sched = build_tiers(np.array([0.05, 0.10, 0.15]), delta_t_s=0.05)
        assert sched.num_tiers == 3
        assert sched.tier_of == {0: 1, 1: 2, 2: 3}
        assert [sched.users_in(m) for m in (1, 2, 3)] == [[0], [1], [2]]
        assert sched.due_tiers(1) == [1]
        assert sched.due_tiers(2) == [1, 2]
        assert sched.due_tiers(3) == [1, 3]
        assert sched.due_tiers(6) == [1, 2, 3]

    def test_missing_interval(self):
        with pytest.raises(ValueError, match="delta_t"):
            build_tiers(np.array([1.0]))
        with pytest.raises(ValueError, match="no users"):
            build_tiers(np.array([]), delta_t_s=1.0)


class TestSetupScenario:
    def test_materialization(self):
        sc = setup_scenario(BASE)
        assert sc.distances.shape == (4,)
        assert (sc.distances <= 50.0).all()
        assert sc.data_sizes.sum() == 100  # 10 per class, 10 classes
        assert len(sc.shard_images) == 4
        for u in range(4):
            assert sc.shard_images[u].shape == (int(sc.data_sizes[u]), 784)
            assert sc.tau_cp[u] == wireless.compute_delay(sc.profiles[u])
            assert 1 <= sc.schedule.tier_of[u] <= sc.schedule.num_tiers
        assert sc.test_images.shape == (50, 784)

    def test_nominal_cycle_definition(self):
        sc = setup_scenario(BASE)
        share = sc.params.total_bandwidth / 4
        for u in range(4):
            expected = sc.tau_cp[u] + wireless.comm_delay(
                share,
                wireless.path_loss(float(sc.distances[u]), sc.params.path_loss_exponent),
                sc.params,
            )
            assert sc.nominal_cycle[u] == expected
        assert sc.schedule.round_time == sc.nominal_cycle.max()
        assert sc.schedule == build_tiers(sc.nominal_cycle, delta_t_frac=BASE.delta_t_frac)

    def test_budget_semantics(self):
        sc = setup_scenario(BASE)
        assert sc.budget_s == BASE.rounds * sc.schedule.delta_t
        sc2 = setup_scenario(toy_config(time_budget_s=3.5))
        assert sc2.budget_s == 3.5

    def test_same_seed_same_world(self):
        a = setup_scenario(BASE)
        b = setup_scenario(BASE)
        assert np.array_equal(a.distances, b.distances)
        for u in range(4):
            assert np.array_equal(a.shard_images[u], b.shard_images[u])

    def test_cpu_range_draw(self):
        sc = setup_scenario(toy_config(cpu_freq_hz=1e9, cpu_freq_max_hz=5e9))
        freqs = np.array([p.cpu_freq for p in sc.profiles])
        assert (freqs >= 1e9).all() and (freqs <= 5e9).all()
        assert len(np.unique(freqs)) == 4


class TestTtfedLoop:
    def test_zero_rounds_only_initial_eval(self):
        metrics = run(toy_config(rounds=0))
        assert len(metrics.evals) == 1
        assert metrics.evals[0].time_s == 0.0
        assert metrics.uplink_msgs == 0

    def test_aggregation_times_are_grid_points(self):
        metrics = run(BASE)
        delta = metrics.delta_t
        assert [p.time_s for p in metrics.evals] == [k * delta for k in range(7)]
        assert [p.round for p in metrics.evals] == list(range(7))

    def test_first_round_of_two_tiers_keeps_initial_model(self):
        # homogeneous users all land in tier 2 of 2; at k=1 only the empty
        # tier 1 is due and its weight is 0 anyway, so w stays put
        cfg = toy_config(delta_t_frac=0.6)
        trace: list[np.ndarray] = []
        metrics = run(cfg, trace=trace)
        assert metrics.num_tiers == 2
        sc = setup_scenario(cfg)
        w0 = init_params(derive_seed(cfg.seed, TAG_INIT), sc.arch)
        assert trace[0].tobytes() == w0.tobytes()

    def test_second_round_merge_reconstructed(self):
        cfg = toy_config(delta_t_frac=0.6)
        sc = setup_scenario(cfg)
        trace: list[np.ndarray] = []
        metrics = run(cfg, scenario=sc, trace=trace)
        assert metrics.failed_total == 0  # 50 m radius: links basically never drop
        w0 = init_params(derive_seed(cfg.seed, TAG_INIT), sc.arch)
        uploads = [
            (float(sc.data_sizes[u]), _train_user(sc, u, w0, 0))
            for u in sc.schedule.users_in(2)
        ]
        # tier 1 is due but empty, so it keeps w0 under its weight
        expected = fedat_aggregate([w0, fedavg_aggregate(uploads)], ttfed_tier_weights(2, 2))
        assert trace[1].tobytes() == expected.tobytes()

    def test_zero_weight_upload_flagged(self):
        cfg = toy_config(users=2, rounds=2, train_per_class=10)
        sc = setup_scenario(cfg)
        sched = TierSchedule(
            num_tiers=2,
            tier_of={0: 1, 1: 2},
            delta_t=1.0,
            round_time=2.0,
        )
        sc2 = replace(sc, config=cfg, schedule=sched)
        trace: list[np.ndarray] = []
        metrics = run(cfg, scenario=sc2, trace=trace)
        # k=1: tier 1 uploads under weight 0 -> flagged, model unchanged
        assert metrics.zero_weight_uploads >= 1
        w0 = init_params(derive_seed(cfg.seed, TAG_INIT), sc.arch)
        assert trace[0].tobytes() == w0.tobytes()

    def test_matches_sync_baseline_when_single_tier(self):
        cfg = toy_config(delta_t_frac=1.0)
        trace_tt: list[np.ndarray] = []
        trace_avg: list[np.ndarray] = []
        mt = run(cfg, trace=trace_tt)
        ma = run(with_updates(cfg, algorithm="fedavg"), trace=trace_avg)
        assert mt.num_tiers == 1
        assert mt.failed_total == 0 and ma.failed_total == 0
        assert len(trace_tt) == len(trace_avg) == 6
        for wt, wa in zip(trace_tt, trace_avg):
            assert wt.tobytes() == wa.tobytes()
        assert [p.accuracy for p in mt.evals] == [p.accuracy for p in ma.evals]

    def test_counters_monotone(self):
        metrics = run(BASE)
        ups = [p.uplink_msgs for p in metrics.evals]
        bcs = [p.downlink_broadcasts for p in metrics.evals]
        assert ups == sorted(ups)
        assert bcs == sorted(bcs)
        assert metrics.downlink_broadcasts == BASE.rounds
        assert metrics.downlink_unicasts == 0

    def test_deterministic_metrics(self):
        a = run(BASE)
        b = run(BASE)
        assert a == b


class TestFedavgLoop:
    def test_round_length_is_straggler_time(self):
        cfg = toy_config(algorithm="fedavg")
        sc = setup_scenario(cfg)
        metrics = run(cfg, scenario=sc)
        straggler = float(sc.nominal_cycle.max())
        assert metrics.round_time == straggler
        assert [p.time_s for p in metrics.evals] == [
            j * straggler for j in range(len(metrics.evals))
        ]

    def test_message_accounting(self):
        cfg = toy_config(algorithm="fedavg", rounds=3)
        sc = setup_scenario(cfg)
        rounds = int(sc.budget_s / sc.nominal_cycle.max())
        metrics = run(cfg, scenario=sc)
        assert metrics.uplink_msgs == rounds * 4
        assert metrics.downlink_broadcasts == rounds
        assert metrics.downlink_unicasts == 0

    def test_deterministic(self):
        cfg = toy_config(algorithm="fedavg")
        assert run(cfg) == run(cfg)


class TestFedasyncLoop:
    def test_single_user_is_damped_sgd(self):
        cfg = toy_config(algorithm="fedasync", users=1, rounds=4, time_budget_s=None)
        sc = setup_scenario(cfg)
        cfg = with_updates(cfg, time_budget_s=4.0 * float(sc.nominal_cycle[0]))
        sc = setup_scenario(cfg)
        metrics = run(cfg, scenario=sc)
        assert metrics.failed_total == 0
        w = init_params(derive_seed(cfg.seed, TAG_INIT), sc.arch)
        dispatched = w
        for c in range(1, 5):
            local = _train_user(sc, 0, dispatched, c - 1)
            w = fedasync_aggregate(w, local, cfg.psi)
            dispatched = w
        acc, loss = evaluate(w, sc.test_images, sc.test_labels, sc.arch)
        assert metrics.evals[-1].accuracy == acc
        assert metrics.evals[-1].loss == loss

    def test_simultaneous_arrivals_processed_in_id_order(self):
        cfg = toy_config(users=2, algorithm="fedasync", time_budget_s=3.0)
        sc = setup_scenario(cfg)
        sc2 = replace(sc, config=cfg, nominal_cycle=np.array([1.0, 1.0]))
        metrics = run(cfg, scenario=sc2)
        assert metrics.failed_total == 0
        assert [p.time_s for p in metrics.evals] == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        # reconstruct the first coincident pair: user 0 mixes before user 1
        w0 = init_params(derive_seed(cfg.seed, TAG_INIT), sc.arch)
        w1 = fedasync_aggregate(w0, _train_user(sc2, 0, w0, 0), cfg.psi)
        w2 = fedasync_aggregate(w1, _train_user(sc2, 1, w0, 0), cfg.psi)
        acc, loss = evaluate(w2, sc.test_images, sc.test_labels, sc.arch)
        assert metrics.evals[2].accuracy == acc
        assert metrics.evals[2].loss == loss

    def test_failed_arrival_is_not_rescored(self, monkeypatch):
        scored = []
        evaluate_ = engine.evaluate

        def counted(*args):
            scored.append(1)
            return evaluate_(*args)

        monkeypatch.setattr(engine, "evaluate", counted)
        cfg = toy_config(algorithm="fedasync", radius_m=900.0, snr_threshold_db=10.0)
        metrics = run(cfg)
        assert metrics.failed_total > 0 and metrics.success_total > 0
        assert len(metrics.evals) == 1 + metrics.uplink_msgs  # eval_every = 1
        assert len(scored) == 1 + metrics.success_total

    def test_unicast_per_arrival(self):
        cfg = toy_config(algorithm="fedasync")
        metrics = run(cfg)
        assert metrics.downlink_unicasts == metrics.uplink_msgs
        assert metrics.downlink_broadcasts == 1  # the initial distribution

    def test_deterministic(self):
        cfg = toy_config(algorithm="fedasync")
        assert run(cfg) == run(cfg)


class TestFedatLoop:
    def test_two_tier_merge_times(self):
        cfg = toy_config(users=2, algorithm="fedat", time_budget_s=4.0)
        sc = setup_scenario(cfg)
        sched = TierSchedule(
            num_tiers=2,
            tier_of={0: 1, 1: 2},
            delta_t=1.0,
            round_time=2.0,
        )
        sc2 = replace(sc, config=cfg, schedule=sched, nominal_cycle=np.array([1.0, 2.0]))
        metrics = run(cfg, scenario=sc2)
        assert [p.time_s for p in metrics.evals] == [0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0]

    def test_single_tier_matches_sync_baseline(self):
        cfg = toy_config(algorithm="fedat", delta_t_frac=1.0)
        mt = run(cfg)
        ma = run(with_updates(cfg, algorithm="fedavg"))
        assert mt.num_tiers == 1
        assert [p.accuracy for p in mt.evals] == [p.accuracy for p in ma.evals]
        assert [p.loss for p in mt.evals] == [p.loss for p in ma.evals]
        np.testing.assert_allclose(
            [p.time_s for p in mt.evals], [p.time_s for p in ma.evals], rtol=1e-12
        )

    def test_unicasts_follow_tier_size(self):
        cfg = toy_config(algorithm="fedat", delta_t_frac=1.0, rounds=3)
        metrics = run(cfg)
        # one tier of 4 users: every merge redispatches the whole tier
        assert metrics.downlink_unicasts == 4 * (len(metrics.evals) - 1)

    def test_deterministic(self):
        cfg = toy_config(algorithm="fedat")
        assert run(cfg) == run(cfg)


class TestRunDispatch:
    def test_dispatches_by_name(self):
        for name in ("ttfed", "fedavg", "fedasync", "fedat"):
            metrics = run(toy_config(algorithm=name, rounds=2))
            assert metrics.algorithm == name

    def test_unknown_algorithm(self):
        cfg = replace(BASE, algorithm="sgd")
        with pytest.raises(ValueError, match="sgd"):
            run(cfg)

    def test_shared_scenario_may_differ_only_in_algorithm(self):
        sc = setup_scenario(BASE)
        assert run(toy_config(algorithm="fedat"), scenario=sc).algorithm == "fedat"
        with pytest.raises(ValueError, match="seed, rounds"):
            run(toy_config(seed=8, rounds=3), scenario=sc)

    @pytest.mark.parametrize("name", ["ttfed", "fedavg", "fedasync", "fedat"])
    def test_trace_holds_the_model_after_every_event(self, name):
        cfg = toy_config(algorithm=name, rounds=3)
        sc = setup_scenario(cfg)
        trace: list[np.ndarray] = []
        metrics = run(cfg, scenario=sc, trace=trace)
        last = metrics.evals[-1]
        assert len(trace) == last.round > 0
        acc, loss = evaluate(trace[-1], sc.test_images, sc.test_labels, sc.arch)
        assert (acc, loss) == (last.accuracy, last.loss)


    @pytest.mark.parametrize("name", ["ttfed", "fedavg", "fedasync", "fedat"])
    def test_uploads_are_folded_as_they_are_trained(self, name, monkeypatch):
        """At most the upload being folded and the one just trained are alive."""
        trained, most_alive = [], 0
        local_update = engine.local_update

        def tracked(*args, **kwargs):
            nonlocal most_alive
            local = local_update(*args, **kwargs)
            trained.append(weakref.ref(local))
            most_alive = max(most_alive, sum(ref() is not None for ref in trained))
            return local

        monkeypatch.setattr(engine, "local_update", tracked)
        metrics = run(toy_config(algorithm=name, users=10, delta_t_frac=1.0, rounds=3))
        assert len(trained) == metrics.success_total > 2
        assert most_alive <= 2


class TestCountComm:
    def test_targets_and_absences(self):
        metrics = RunMetrics("ttfed", 1, 0.5, 0.5)
        metrics.record(0.0, 0, 0.1, 2.3)
        metrics.uplink_msgs = 10
        metrics.downlink_broadcasts = 2
        metrics.record(1.0, 2, 0.65, 1.0)
        summary = count_comm(metrics, targets=(0.0, 0.6, 0.9))
        assert summary[0.0] == {"time_s": 0.0, "round": 0, "messages": 0}
        assert summary[0.6] == {"time_s": 1.0, "round": 2, "messages": 12}
        assert summary[0.9] is None

    def test_fedavg_round_cost(self):
        cfg = toy_config(algorithm="fedavg", rounds=3)
        metrics = run(cfg)
        point = metrics.evals[-1]
        rounds = point.round
        assert point.uplink_msgs + point.downlink_broadcasts == rounds * (4 + 1)

    def test_first_reaching(self):
        metrics = RunMetrics("ttfed", 1, 0.5, 0.5)
        metrics.record(0.0, 0, 0.1, 2.3)
        metrics.record(1.0, 1, 0.5, 1.5)
        assert metrics.first_reaching(0.4).round == 1
        assert metrics.first_reaching(0.99) is None


class TestSuccessFrequency:
    def test_chi_square_against_stp(self):
        # one user, one tier: each round is a Bernoulli(stp at its optimum)
        cfg = toy_config(
            users=1,
            rounds=1500,
            radius_m=600.0,
            snr_threshold_db=6.7,
            delta_t_frac=1.0,
            train_per_class=2,
            test_per_class=1,
            hidden_width=8,
            max_evals=5,
            seed=11,
        )
        sc = setup_scenario(cfg)
        q = allocator.qualify(
            0,
            1,
            float(sc.data_sizes[0]),
            1.0,
            sc.schedule.delta_t - float(sc.tau_cp[0]),
            wireless.path_loss(float(sc.distances[0]), sc.params.path_loss_exponent),
            float(sc.distances[0]),
            sc.params,
        )
        p = wireless.stp(q.bandwidth, float(sc.distances[0]), sc.params)
        assert 0.05 < p < 0.95  # the check below needs a non-degenerate rate
        metrics = run(cfg, scenario=sc)
        n = 1500
        assert metrics.uplink_msgs == n
        ok = metrics.success_total
        fail = metrics.failed_total
        assert ok + fail == n
        chi2 = (ok - n * p) ** 2 / (n * p) + (fail - n * (1 - p)) ** 2 / (n * (1 - p))
        assert chi2 < 6.635  # 99% quantile, 1 degree of freedom
