"""Training-loop orchestration: tiering, cadences, counters, determinism."""

import heapq
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttfedsim import allocator, engine, learner, wireless
from ttfedsim.aggregation import (
    fedasync_aggregate,
    fedat_aggregate,
    fedavg_aggregate,
    ttfed_tier_weights,
)
from ttfedsim.config import FADING_MODES, POLICIES, ConfigError, ScenarioConfig, with_updates
from ttfedsim.datagen import partition, synthetic_digits
from ttfedsim.engine import (
    RunMetrics,
    _ceil_with_boundary,
    _train_user,
    build_tiers,
    count_comm,
    place_users,
    run,
    setup_scenario,
)
from ttfedsim.learner import evaluate, init_params
from ttfedsim.streams import TAG_INIT, TAG_PARTITION, TAG_TRAIN, derive_seed

import reference
from test_datagen import write_idx_images, write_idx_labels

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


class TestBuildTiers:
    @pytest.mark.parametrize(
        "frac,num_tiers", [(0.3, 4), (0.4, 3), (0.6, 2), (0.8, 2), (1.0, 1)]
    )
    def test_tier_count_from_fraction(self, frac, num_tiers):
        delta, tier_of = build_tiers(np.array([1.0, 0.5]), delta_t_frac=frac)
        assert delta == frac
        assert tier_of.max() == tier_of[0] == num_tiers

    def test_membership_and_data_totals(self):
        delta, tier_of = build_tiers(np.array([1.0, 2.0]), delta_t_s=1.0)
        assert delta == 1.0
        assert tier_of.tolist() == [1, 2]

    def test_exact_boundary_joins_lower_tier(self):
        _, tier_of = build_tiers(np.array([0.5, 1.0]), delta_t_s=0.5)
        assert tier_of.tolist() == [1, 2]

    def test_interval_at_least_round_time(self):
        _, tier_of = build_tiers(np.array([0.7, 1.0]), delta_t_frac=1.5)
        assert tier_of.tolist() == [1, 1]

    def test_singleton_tiers_make_async_cadence(self):
        # one user per tier: the schedule fires each user at its own pace
        _, tier_of = build_tiers(np.array([0.05, 0.10, 0.15]), delta_t_s=0.05)
        assert tier_of.tolist() == [1, 2, 3]

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
            assert 1 <= sc.tier_of[u] <= sc.num_tiers
        assert sc.test_images.shape == (50, 784)
        epoch_cycles = BASE.local_epochs * BASE.cycles_per_sample
        assert sc.tau_cp.tolist() == (epoch_cycles * sc.data_sizes / BASE.cpu_freq_hz).tolist()

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
        assert sc.round_time == sc.nominal_cycle.max()
        delta, tier_of = build_tiers(sc.nominal_cycle, delta_t_frac=BASE.delta_t_frac)
        assert sc.delta_t == delta
        assert np.array_equal(sc.tier_of, tier_of)
        assert sc.num_tiers == tier_of.max() == tier_of[sc.nominal_cycle.argmax()]
        tiers = range(1, sc.num_tiers + 1)
        assert sc.tier_users == {m: [u for u in range(4) if tier_of[u] == m] for m in tiers}

    def test_budget_semantics(self):
        sc = setup_scenario(BASE)
        assert sc.budget_s == BASE.rounds * sc.delta_t
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
        cfg = sc.config
        freqs = cfg.local_epochs * cfg.cycles_per_sample * sc.data_sizes / sc.tau_cp
        assert (freqs >= 1e9).all() and (freqs <= 5e9).all()
        assert len(np.unique(freqs)) == 4

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"radius_m": 1e8}, "sim.radius_m"),  # the Shannon rate underflows to 0
            ({"cycles_per_sample": 1e308}, "compute.cycles_per_sample"),
        ],
    )
    def test_an_infinite_cycle_is_a_config_error(self, overrides, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: user \d+\b"):
            setup_scenario(toy_config(**overrides))


class TestModelDtype:
    """Models and the images they meet are float32; the rest stays float64."""

    def test_scenario_arrays(self):
        sc = setup_scenario(BASE)
        assert {a.dtype for a in sc.shard_images} == {np.dtype(np.float32)}
        assert sc.test_images.dtype == np.float32
        for values in (sc.distances, sc.data_sizes, sc.tau_cp, sc.nominal_cycle):
            assert values.dtype == np.float64

    def test_images_are_the_dataset_rounded_once(self):
        sc = setup_scenario(BASE)
        train, test = synthetic_digits(BASE.train_per_class, BASE.test_per_class, BASE.data_seed)
        assert train.images.dtype == test.images.dtype == np.float32
        assert sc.test_images.tobytes() == test.images.tobytes()
        for images in sc.shard_images:
            assert all((train.images == row).all(axis=1).any() for row in images)

    def test_setup_peak_memory_of_many_users(self):
        cfg = toy_config(
            users=1000, train_per_class=1000, test_per_class=200, zipf_eta=1.0, dirichlet_theta=0.5
        )
        tracemalloc.start()
        try:
            sc = setup_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(images.nbytes for images in sc.shard_images) + sc.test_images.nbytes
        assert peak <= 2 * kept + 8 * 2**20

    @pytest.mark.parametrize("name", ["ttfed", "fedavg", "fedasync", "fedat"])
    def test_every_model_and_the_gradient_scratch(self, name, monkeypatch):
        """Every global model, and every model trained or merged from a
        gradient, is float32."""
        trained = []

        def spy(train):
            def spied(*args, **kwargs):
                trained.append(train(*args, **kwargs))
                return trained[-1]

            return spied

        for train in ("local_update", "one_step_mean"):
            monkeypatch.setattr(engine, train, spy(getattr(engine, train)))
        trace: list[np.ndarray] = []
        # a 34-row shard takes several steps; the others take one, merged as one
        run(toy_config(algorithm=name, users=10, zipf_eta=1.0, delta_t_frac=0.6), trace=trace)
        assert trace and {w.dtype for w in trace} == {np.dtype(np.float32)}
        assert trained and {w.dtype for w in trained} == {np.dtype(np.float32)}


def _swapped(n, i, j):
    order = list(range(n))
    order[i], order[j] = order[j], order[i]
    return order


_SIZES = st.integers(1, 30)  # partition rejects an empty dataset
_ORDERS = st.one_of(
    _SIZES.map(lambda n: list(range(n))),  # identity
    _SIZES.map(lambda n: [(i + 1) % n for i in range(n)]),  # one cycle through every row
    _SIZES.flatmap(  # one swap, every other row a fixed point
        lambda n: st.builds(_swapped, st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))
    ),
    _SIZES.flatmap(lambda n: st.permutations(list(range(n)))),
)

# 1000 users over 10,000 rows, from one big shard to many of one row
MANY_SKEWED = toy_config(
    users=1000, train_per_class=1000, test_per_class=200, zipf_eta=1.0, dirichlet_theta=0.5
)


class TestShardLayout:
    """Shards are read-only slices of one array of the training rows, in (tier, user) order."""

    @given(order=_ORDERS, width=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_permute_rows_is_the_gather(self, order, width):
        order = np.array(order, dtype=np.int64)
        orig = np.arange(len(order) * width, dtype=np.float32).reshape(len(order), width)
        rows = orig.copy()
        engine._permute_rows(rows, order)
        assert rows.tobytes() == orig[order].tobytes()

    @pytest.mark.parametrize("order", [[0, 0, 2], [0, 1], [0, 1, 2, 3], [2, 1, 3]])
    def test_permute_rows_rejects_a_non_permutation(self, order):
        orig = np.arange(6, dtype=np.float32).reshape(3, 2)
        rows = orig.copy()
        with pytest.raises(ValueError, match="not a permutation"):
            engine._permute_rows(rows, np.array(order, dtype=np.int64))
        assert rows.tobytes() == orig.tobytes()

    @staticmethod
    def assert_layout(cfg):
        sc = setup_scenario(cfg)
        train, _ = engine._load_datasets(cfg)
        shards = partition(
            train,
            cfg.users,
            zipf_eta=cfg.zipf_eta,
            dirichlet_theta=cfg.dirichlet_theta,
            seed=derive_seed(cfg.seed, TAG_PARTITION),
        )
        users = sorted(range(cfg.users), key=lambda u: (sc.tier_of[u], u))
        assert sc.shard_images[0].base is sc.train_images
        for views, source in ((sc.shard_images, train.images), (sc.shard_labels, train.labels)):
            base = views[0].base
            assert base.nbytes == source.nbytes == sum(v.nbytes for v in views)
            address = base.ctypes.data
            for u in users:
                view = views[u]
                assert view.base is base
                assert view.ctypes.data == address
                assert address == base.ctypes.data + sc.row_start[u] * base.strides[0]
                address += view.nbytes
                assert view.tobytes() == source[shards[u].indices].tobytes()
        return sc

    def test_many_skewed_users(self):
        sc = self.assert_layout(MANY_SKEWED)
        assert min(sc.data_sizes) == 1 and max(sc.data_sizes) > 1000

    def test_idx_source(self, tmp_path):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(str(images), 60)
        write_idx_labels(str(labels), list(range(10)) * 6)
        cfg = toy_config(
            users=7,
            zipf_eta=1.0,
            dirichlet_theta=0.5,
            train_per_class=5,
            data_source="idx",
            train_images_path=str(images),
            train_labels_path=str(labels),
            test_images_path=str(images),
            test_labels_path=str(labels),
        )
        sc = self.assert_layout(cfg)
        assert sc.shard_images[0].shape[1] == 12 and sc.data_sizes.sum() == 50

    def test_data_is_read_only(self):
        sc = setup_scenario(BASE)
        for array in (sc.shard_images[1], sc.shard_images[1].base, sc.test_images):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.5
        for array in (sc.shard_labels[1], sc.shard_labels[1].base, sc.test_labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_setup_holds_the_training_rows_once(self):
        tracemalloc.start()
        try:
            sc = setup_scenario(MANY_SKEWED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(images.nbytes for images in sc.shard_images) + sc.test_images.nbytes
        assert peak <= kept + 8 * 2**20


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
        arch, users = sc.arch, np.flatnonzero(sc.tier_of == 2).tolist()
        # every shard is one batch, so tier 2's uploads merge as one SGD step
        # from w0 on their size-weighted mean gradient; its rows are every row
        assert users == list(range(cfg.users)) and all(sc.one_step)
        total = sum(float(sc.data_sizes[u]) for u in users)
        split = arch.in_dim * arch.hidden
        d_hidden = np.zeros((len(sc.train_images), arch.hidden), np.float32)
        rest = np.zeros(arch.param_count - split, np.float32)
        g = np.empty_like(w0)
        for u in users:
            with np.errstate(over="ignore"):
                d, _, _ = reference.backprop(
                    learner._views(w0, arch),
                    sc.shard_images[u],
                    sc.shard_labels[u],
                    learner._views(g, arch),
                )
            scale = cfg.learning_rate * (float(sc.data_sizes[u]) / total)
            start = int(sc.row_start[u])
            d_hidden[start : start + len(d)] = d * scale
            rest += g[split:] * scale
        g[split:] = rest
        learner._first_layer(sc.train_images, d_hidden, learner._views(g, arch)[0])
        tier_model = fedavg_aggregate([(total, w0 - g)])
        # tier 1 is due but empty, so it keeps w0 under its weight
        expected = fedat_aggregate([w0, tier_model], ttfed_tier_weights(2, 2))
        assert trace[1].tobytes() == expected.tobytes()

    def test_zero_weight_upload_flagged(self):
        cfg = toy_config(users=2, rounds=2, train_per_class=10)
        sc = setup_scenario(cfg)
        sc2 = replace(sc, config=cfg, delta_t=1.0, tier_of=np.array([1, 2]))
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
        sc2 = replace(
            sc,
            config=cfg,
            delta_t=1.0,
            tier_of=np.array([1, 2]),
            nominal_cycle=np.array([1.0, 2.0]),
        )
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

    def test_one_populated_tier_of_two_is_fedavg(self):
        cfg = toy_config(delta_t_frac=0.6)
        sc = setup_scenario(cfg)
        traces: dict[str, list[np.ndarray]] = {}
        for name in ("fedat", "fedavg"):
            traces[name] = []
            metrics = run(replace(cfg, algorithm=name), scenario=sc, trace=traces[name])
            assert metrics.tier_populations == [0, 4]
        assert len(traces["fedat"]) == len(traces["fedavg"]) > 0
        for wt, wa in zip(traces["fedat"], traces["fedavg"]):
            assert wt.tobytes() == wa.tobytes()

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
        """At most one earlier local model is alive when the next is trained.

        A merge may still hold the upload it folded last, so with the one
        being trained a run holds at most two local models.
        """
        trained, earlier_alive = [], []
        local_update = engine.local_update

        def tracked(*args, **kwargs):
            earlier_alive.append(sum(ref() is not None for ref in trained))
            local = local_update(*args, **kwargs)
            trained.append(weakref.ref(local))
            return local

        monkeypatch.setattr(engine, "local_update", tracked)
        # 10-row shards in batches of 4: no upload is a single step, merged as one
        cfg = toy_config(algorithm=name, users=10, delta_t_frac=1.0, rounds=3, batch_size=4)
        sc = setup_scenario(cfg)
        assert not any(sc.one_step)
        assert not any(sc.first_steps.kept)  # the scenario holds no finished upload
        metrics = run(cfg, scenario=sc)
        assert len(trained) == metrics.success_total > 2
        assert max(earlier_alive) <= 1

    @pytest.mark.parametrize("name", ["fedasync", "fedat"])
    def test_a_model_lives_only_while_its_cohort_fires_again(self, name, monkeypatch):
        """After each event, alive global models <= cohorts with a later event + 2.

        The two are the current model and the last one scored; every other
        model alive must be the dispatched model of a cohort that trains again.
        """
        made, worst, events = [], [], []
        schedule = engine._schedule

        def tracked_schedule(periods, budget, grid):
            events[:] = schedule(periods, budget, grid)
            return events

        class AliveAfterEachEvent(list):
            """A trace that counts alive models once each event is done."""

            def append(self, model):
                firing_again = len({later[1] for later in events[len(worst) + 1 :]})
                alive = sum(ref() is not None for ref in made)
                worst.append(alive - firing_again)

        def tracked(merge):
            def merged(*args):
                w = merge(*args)
                made.append(weakref.ref(w))
                return w

            return merged

        monkeypatch.setattr(engine, "_schedule", tracked_schedule)
        for merge in ("fedasync_aggregate", "fedat_aggregate"):
            monkeypatch.setattr(engine, merge, tracked(getattr(engine, merge)))
        # three populated tiers (7 fedat events), and fedasync users that fire 1-5 times
        cfg = toy_config(
            algorithm=name,
            users=10,
            radius_m=200.0,
            zipf_eta=1.0,
            cpu_freq_max_hz=5e9,
            delta_t_frac=0.2,
            rounds=10,
        )
        metrics = run(cfg, trace=AliveAfterEachEvent())
        assert len(made) >= 7 and len(worst) == metrics.evals[-1].round
        assert max(worst) <= 2


ALGORITHMS = ("ttfed", "fedavg", "fedasync", "fedat")

# six users over three populated tiers, some links failing
SHARED = toy_config(
    users=6,
    radius_m=900.0,
    snr_threshold_db=10.0,
    zipf_eta=1.0,
    cpu_freq_max_hz=5e9,
    delta_t_frac=0.4,
    rounds=6,
)

# SHARED with a model of 6,370 parameters, which is no larger than a shard of
# 9 rows or more, and 8-row batches: the uploads of its 41-, 20-, 14- and
# 10-row shards are kept, and those of its 8- and 7-row shards are not
KEEPING = with_updates(SHARED, hidden_width=8, batch_size=8)


class TestSharedScenario:
    """Runs on one scenario reuse its initial model, score and first uploads."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "overrides",
        [{"batch_size": 128}, {"batch_size": 8}, {"batch_size": 8, "local_epochs": 2}],
        ids=["full-batch", "shuffled", "shuffled-2-epochs"],
    )
    def test_a_served_scenario_runs_like_a_fresh_one(self, algorithm, overrides):
        cfg = with_updates(SHARED, algorithm=algorithm, **overrides)
        fresh_trace: list[np.ndarray] = []
        fresh = run(cfg, scenario=setup_scenario(cfg), trace=fresh_trace)
        others = [name for name in ALGORITHMS if name != algorithm]
        for order in (others, others[::-1]):
            sc = setup_scenario(cfg)
            for name in order:
                run(replace(cfg, algorithm=name), scenario=sc)
            assert "first_steps" in vars(sc)  # the served run reads the store they made
            trace: list[np.ndarray] = []
            served = run(cfg, scenario=sc, trace=trace)
            assert served == fresh  # every EvalPoint and counter
            assert [w.tobytes() for w in trace] == [w.tobytes() for w in fresh_trace]

    def test_only_the_initial_model_itself_makes_a_first_upload(self):
        """A dispatch-0 upload from another model is trained, not read from the store."""
        sc = setup_scenario(SHARED)
        other = sc.initial_model + sc.initial_model.dtype.type(0.25)
        for u in range(SHARED.users):
            first = _train_user(sc, u, sc.initial_model, 0)
            images, labels = sc.shard_images[u], sc.shard_labels[u]
            rng = engine.substream(SHARED.seed, TAG_TRAIN, u, 0)
            rng = rng if SHARED.batch_size < len(labels) else None
            trained = learner.local_update(other, images, labels, SHARED, rng, sc.arch)
            assert _train_user(sc, u, other, 0).tobytes() == trained.tobytes() != first.tobytes()

    def test_first_step_forward_runs_once_per_user(self, monkeypatch):
        """A four-algorithm comparison runs one stacked pass from the initial
        model per one-step shard size, and a replaced scenario runs them again."""
        sc = setup_scenario(SHARED)
        scenarios = [sc, replace(sc)]
        stacked, lone, first_steps = [], [], []
        backprop, train_user = learner._backprop, engine._train_user

        def counted_backprop(layers, hidden, labels, rest):
            if any(np.may_share_memory(layers[0], s.initial_model) for s in scenarios):
                (stacked if hidden.ndim == 3 else lone).append(hidden.shape[:-1])
            return backprop(layers, hidden, labels, rest)

        def counted_train_user(sc_, u, w_src, dispatch_idx):
            if dispatch_idx == 0:
                first_steps.append(u)
            return train_user(sc_, u, w_src, dispatch_idx)

        monkeypatch.setattr(learner, "_backprop", counted_backprop)
        monkeypatch.setattr(engine, "_train_user", counted_train_user)
        # users 1-5 take one step on 20, 14, 10, 8 and 7 rows; user 0 takes two
        sizes = [len(sc.shard_labels[u]) for u in range(SHARED.users) if sc.one_step[u]]
        assert sorted(sizes) == [7, 8, 10, 14, 20]
        for scenario in scenarios:
            stacked.clear()
            for name in ALGORITHMS:
                run(replace(SHARED, algorithm=name), scenario=scenario)
            assert sorted(stacked) == [(1, n) for n in sorted(sizes)]
        assert len(first_steps) > len(set(first_steps)) == SHARED.users
        # the rest of the passes from the initial model are user 0's first batches
        assert lone and set(lone) == {(SHARED.batch_size,)}

    def test_initial_model_is_scored_once(self, monkeypatch):
        scored = []
        evaluate_ = engine.evaluate

        def counted(w, *args):
            scored.append(w)
            return evaluate_(w, *args)

        monkeypatch.setattr(engine, "evaluate", counted)
        sc = setup_scenario(SHARED)
        results = [run(replace(SHARED, algorithm=name), scenario=sc) for name in ALGORITHMS]
        assert sum(w is sc.initial_model for w in scored) == 1
        expected = evaluate_(sc.initial_model, sc.test_images, sc.test_labels, sc.arch)
        assert {(m.evals[0].accuracy, m.evals[0].loss) for m in results} == {expected}

    def test_replace_rebuilds_what_the_initial_model_decides(self):
        sc = setup_scenario(SHARED)
        run(SHARED, scenario=sc)
        sc2 = replace(sc, config=with_updates(SHARED, seed=8))
        assert "first_steps" not in vars(sc2)
        assert sc2.initial_model.tobytes() != sc.initial_model.tobytes()
        assert not sc.initial_model.flags.writeable

    def test_first_step_store_memory_of_many_users(self):
        """The store holds every user's gradient of b1, W2 and b2, the first-step
        d_hidden rows of the one-step users, one parameter vector per kept user,
        and at most 1 MiB more."""
        cfg = toy_config(
            users=1000, train_per_class=1000, test_per_class=200, zipf_eta=1.0, dirichlet_theta=0.5
        )
        sc = setup_scenario(cfg)
        tracemalloc.start()
        try:
            for u in range(cfg.users):
                _train_user(sc, u, sc.initial_model, 0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arch = sc.arch
        sizes = [len(labels) for labels in sc.shard_labels]
        # one epoch: kept are the shards larger than a batch, with as many values as the model
        kept = [
            u
            for u, n in enumerate(sizes)
            if cfg.batch_size < n and arch.param_count <= n * arch.in_dim
        ]
        slots = [u for u in range(cfg.users) if sizes[u] <= cfg.batch_size]  # one step
        rows = sum(sizes[u] for u in slots)
        rest = arch.param_count - arch.in_dim * arch.hidden
        store = (rows * arch.hidden + cfg.users * rest + len(kept) * arch.param_count) * 4
        assert held <= store + 2**20
        assert sorted(sc.first_steps.uploads) == kept and 0 < len(kept) < cfg.users
        assert len(sc.first_steps.rows(np.array(slots))) == len(sc.first_steps.d_hidden) == rows

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("local_epochs", [1, 2], ids=["1-epoch", "2-epochs"])
    def test_kept_first_uploads_serve_runs_like_a_fresh_scenario(self, algorithm, local_epochs):
        cfg = with_updates(KEEPING, algorithm=algorithm, local_epochs=local_epochs)
        fresh_trace: list[np.ndarray] = []
        fresh = run(cfg, scenario=setup_scenario(cfg), trace=fresh_trace)
        others = [name for name in ALGORITHMS if name != algorithm]
        for order in (others, others[::-1]):
            sc = setup_scenario(cfg)
            assert any(sc.first_steps.kept) and not all(sc.first_steps.kept)
            for name in order:
                run(replace(cfg, algorithm=name), scenario=sc)
            assert "first_steps" in vars(sc) and sc.first_steps.uploads
            trace: list[np.ndarray] = []
            served = run(cfg, scenario=sc, trace=trace)
            assert served == fresh  # every EvalPoint and counter
            assert [w.tobytes() for w in trace] == [w.tobytes() for w in fresh_trace]

    @pytest.mark.parametrize("local_epochs", [1, 2], ids=["1-epoch", "2-epochs"])
    def test_a_kept_upload_is_trained_once(self, local_epochs, monkeypatch):
        cfg = with_updates(KEEPING, local_epochs=local_epochs)
        sc = setup_scenario(cfg)
        owner = {id(labels): u for u, labels in enumerate(sc.shard_labels)}
        starts_of = {start: u for u, start in enumerate(sc.row_start.tolist())}
        updates, streams, served = [], [], []
        local_update, substream = engine.local_update, engine.substream
        train_user, one_step_mean = engine._train_user, engine.one_step_mean

        def counted_update(w_in, images, labels, *args, **kwargs):
            if w_in is sc.initial_model:
                updates.append(owner[id(labels)])
            return local_update(w_in, images, labels, *args, **kwargs)

        def counted_mean(w_in, images, labels, starts, *args, **kwargs):
            if w_in is sc.initial_model:
                updates.extend(starts_of[start] for start in starts.tolist())
            return one_step_mean(w_in, images, labels, starts, *args, **kwargs)

        def counted_substream(seed, *key):
            if key[0] == TAG_TRAIN and key[2] == 0:
                streams.append(key[1])
            return substream(seed, *key)

        def counted_train_user(sc_, u, w_src, dispatch_idx):
            if dispatch_idx == 0 and sc_.first_steps.kept[u]:
                served.append(u)
            return train_user(sc_, u, w_src, dispatch_idx)

        monkeypatch.setattr(engine, "local_update", counted_update)
        monkeypatch.setattr(engine, "one_step_mean", counted_mean)
        monkeypatch.setattr(engine, "substream", counted_substream)
        monkeypatch.setattr(engine, "_train_user", counted_train_user)
        for name in ALGORITHMS:
            run(replace(cfg, algorithm=name), scenario=sc)
        kept = sorted(sc.first_steps.uploads)
        assert kept and set(served) == set(kept) and len(served) > len(kept)
        for u in kept:
            assert updates.count(u) == 1 and streams.count(u) == 1
        # users whose upload is not kept train from the initial model in every run
        assert len(updates) > len(kept) + sum(not k for k in sc.first_steps.kept)

    def test_a_kept_upload_is_read_only(self):
        sc = setup_scenario(KEEPING)
        run(KEEPING, scenario=sc)
        for w in sc.first_steps.uploads.values():
            with pytest.raises(ValueError):
                w[0] = 0.0

    def test_replace_starts_with_an_empty_store(self):
        sc = setup_scenario(KEEPING)
        run(KEEPING, scenario=sc)
        assert sc.first_steps.uploads
        sc2 = replace(sc)
        assert "first_steps" not in vars(sc2) and sc2.first_steps.uploads == {}
        run(KEEPING, scenario=sc2)
        assert sorted(sc2.first_steps.uploads) == sorted(sc.first_steps.uploads)

    @given(
        users=st.integers(2, 12),
        zipf_eta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        batch_size=st.integers(1, 40),
        local_epochs=st.integers(1, 3),
        hidden_width=st.integers(1, 16),
    )
    @settings(max_examples=25, deadline=None)
    def test_the_store_is_no_larger_than_its_users_shards(self, **drawn):
        cfg = toy_config(rounds=3, **drawn)
        sc = setup_scenario(cfg)
        for name in ALGORITHMS:
            run(replace(cfg, algorithm=name), scenario=sc)
        for u in sc.first_steps.uploads:  # each kept update takes more than one SGD step
            assert len(sc.shard_labels[u]) > cfg.batch_size or cfg.local_epochs > 1
        stored = sum(w.nbytes for w in sc.first_steps.uploads.values())
        assert stored <= sum(sc.shard_images[u].nbytes for u in sc.first_steps.uploads)


class TestCohortMerge:
    """The synchronous rules' FedAvg, with one-step uploads merged as one step,
    against the per-user path: each upload trained by `_train_user` and folded
    by `fedavg_aggregate`.

    Float32 rounding is all that separates the two: at every merge, each
    parameter is within 16 float32 epsilons (1.9e-6) of the largest magnitude
    in the reference or in the model the users were sent. The largest gap seen
    over 3,257 merges of 200 drawn scenarios was 3.0e-7.
    """

    TOLERANCE = 16 * float(np.finfo(np.float32).eps)

    @given(
        users=st.integers(1, 8),
        train_per_class=st.integers(1, 10),
        batch_size=st.integers(1, 20),
        local_epochs=st.sampled_from([1, 1, 2]),
        learning_rate=st.sampled_from([0.01, 0.5, 2.0]),
        delta_t_frac=st.floats(0.1, 1.0),
        radius_m=st.floats(600.0, 1200.0),
        zipf_eta=st.floats(0.0, 2.0),
        scheduling_fading=st.sampled_from(FADING_MODES),
        algorithm=st.sampled_from(["ttfed", "fedavg", "fedat"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_user_fedavg(self, **drawn):
        cfg = ScenarioConfig(
            **drawn,
            rounds=6,
            test_per_class=2,
            hidden_width=4,
            snr_threshold_db=10.0,
            cpu_freq_max_hz=5e9,
        )
        merges = []
        mean = engine._Training.mean

        def checked(train, users):
            w_src = train.sent[users[0]][0]
            assert all(train.sent[u][0] is w_src for u in users)
            expected = fedavg_aggregate(map(train.upload, users))
            got = mean(train, users)
            scale = max(np.abs(expected).max(), np.abs(w_src).max())
            assert got.dtype == expected.dtype == np.float32
            assert np.abs(got - expected).max() <= self.TOLERANCE * scale
            merges.append(sum(train.sc.one_step[u] for u in users))
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine._Training, "mean", checked)
            metrics = run(cfg)
        assert len(merges) <= metrics.success_total
        if cfg.local_epochs > 1:
            assert not any(merges)


class TestTrainingStreams:
    @pytest.mark.parametrize("name", ["ttfed", "fedavg", "fedasync", "fedat"])
    @pytest.mark.parametrize("batch_size", [8, 34])
    def test_built_only_for_shuffled_updates(self, name, batch_size, monkeypatch):
        """A training stream is built per upload whose shard exceeds a batch."""
        built, shard_sizes = [], []
        substream, local_update = engine.substream, engine.local_update
        one_step_mean, replay = engine.one_step_mean, learner.FirstSteps.replay

        def counted_substream(seed, *key):
            if key[0] == TAG_TRAIN:
                built.append(key)
            return substream(seed, *key)

        def counted_update(*args, **kwargs):
            shard_sizes.append(len(args[2]))
            return local_update(*args, **kwargs)

        def counted_mean(w_in, images, labels, starts, sizes, *args, **kwargs):
            shard_sizes.extend(sizes.tolist())
            return one_step_mean(w_in, images, labels, starts, sizes, *args, **kwargs)

        def counted_replay(store, k, learning_rate):
            shard_sizes.append(len(store.rows(np.array([k]))))
            return replay(store, k, learning_rate)

        monkeypatch.setattr(engine, "substream", counted_substream)
        monkeypatch.setattr(engine, "local_update", counted_update)
        monkeypatch.setattr(engine, "one_step_mean", counted_mean)
        monkeypatch.setattr(learner.FirstSteps, "replay", counted_replay)
        # Zipf shards of 34, 17, 11, 9, 7, 6, 5, 4, 4 and 3 samples
        run(toy_config(algorithm=name, users=10, zipf_eta=1.0, batch_size=batch_size, rounds=3))
        assert max(shard_sizes) == 34 and min(shard_sizes) <= 8
        assert len(built) == sum(n > batch_size for n in shard_sizes)
        assert len(set(built)) == len(built)


def _heap_merged_clocks(periods, budget, grid):
    """The event clock as it was written before the schedule was listed:
    each cohort's events counted first, then the cohorts' clocks merged
    lazily through a heap."""
    if grid:
        ((key, period),) = periods.items()
        last = int(math.floor(budget / period + engine._TIME_EPS))
        for k in range(1, last + 1):
            yield k * period, key, k, k < last
        return
    counts = {}
    for key, period in periods.items():
        count, t = 0, period
        while t <= budget + engine._TIME_EPS:
            count += 1
            t += period
        counts[key] = count
    heap = [(period, key, 1) for key, period in periods.items() if counts[key]]
    heapq.heapify(heap)
    while heap:
        t, key, index = heapq.heappop(heap)
        again = index < counts[key]
        yield t, key, index, again
        if again:
            heapq.heappush(heap, (t + periods[key], key, index + 1))


class TestFadingTable:
    """A run draws every event's fading in one batch before its first event."""

    @pytest.mark.parametrize("name", ["ttfed", "fedavg", "fedasync", "fedat"])
    def test_one_batch_of_the_cohorts_channel_streams(self, name, monkeypatch):
        batches = []
        draw_fading = wireless.draw_fading

        def recorded(seed, users, events):
            batches.append((seed, list(users), list(events)))
            return draw_fading(seed, users, events)

        monkeypatch.setattr(wireless, "draw_fading", recorded)
        cfg = toy_config(algorithm=name, users=6, zipf_eta=1.0, cpu_freq_max_hz=5e9, rounds=4)
        trace = []
        metrics = run(cfg, trace=trace)
        ((seed, users, events),) = batches
        assert seed == cfg.seed and len(set(zip(users, events))) == len(users)
        if name == "fedavg":
            assert sorted(zip(events, users)) == [
                (k, u) for k in range(1, len(trace) + 1) for u in range(cfg.users)
            ]
        if name in ("fedavg", "fedasync", "fedat"):  # every cohort member uploads
            assert len(users) == metrics.uplink_msgs

    def test_pinned_ttfed_fading(self, monkeypatch):
        drawn = []
        draw_fading = wireless.draw_fading

        def recorded(seed, users, events):
            values = draw_fading(seed, users, events)
            drawn.extend(zip(users, events, values.tolist()))
            return values

        monkeypatch.setattr(wireless, "draw_fading", recorded)
        run(toy_config(algorithm="ttfed"))
        assert drawn[:4] == [
            (0, 2, 0.9013930625327227),
            (1, 2, 0.681599772469059),
            (2, 2, 1.3627846775238606),
            (3, 2, 0.35550348281651917),
        ]

    @given(
        periods=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6),
        budget=st.floats(0.0, 12.0),
        grid=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_schedule_equals_the_heap_merged_clocks(self, periods, budget, grid):
        by_key = dict(enumerate(periods[:1] if grid else periods))
        events = engine._schedule(by_key, budget, grid)
        assert events == list(_heap_merged_clocks(by_key, budget, grid))
        last = dict.fromkeys(by_key, 0.0)
        for t, key, _, _ in events:
            last[key] = t
        for key, period in by_key.items():
            if not grid:  # the accumulated clock's last event is the last that fits
                assert last[key] <= budget + engine._TIME_EPS
                assert last[key] + period > budget + engine._TIME_EPS


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
            float(sc.data_sizes[0]),
            1.0,
            sc.delta_t - float(sc.tau_cp[0]),
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


class TestInvariants:
    """Counters and clocks that must hold for any scenario and algorithm."""

    @given(
        users=st.integers(1, 8),
        train_per_class=st.integers(1, 20),
        rounds=st.integers(0, 6),
        delta_t_frac=st.floats(0.1, 1.0),
        radius_m=st.floats(10.0, 1200.0),
        zipf_eta=st.floats(0.0, 2.0),
        dirichlet_theta=st.one_of(st.just(math.inf), st.just(0.0), st.floats(0.01, 10.0)),
        policy=st.sampled_from(POLICIES),
        scheduling_fading=st.sampled_from(FADING_MODES),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_counts_and_clock(self, **drawn):
        cfg = ScenarioConfig(
            **drawn,
            test_per_class=2,
            hidden_width=4,
            snr_threshold_db=10.0,
            cpu_freq_max_hz=5e9,
        )
        sc = setup_scenario(cfg)
        for algorithm in ("ttfed", "fedavg", "fedasync", "fedat"):
            trace = []
            metrics = run(replace(cfg, algorithm=algorithm), scenario=sc, trace=trace)
            events = len(trace)
            assert metrics.uplink_msgs == metrics.success_total + metrics.failed_total
            if algorithm == "fedavg":
                assert metrics.uplink_msgs == events * cfg.users
            times = [p.time_s for p in metrics.evals]
            assert times == sorted(times)
            assert times[-1] <= sc.budget_s + 1e-9 * max(1.0, sc.budget_s)
            assert metrics.evals[-1].round == events

    @given(
        users=st.integers(1, 8),
        train_per_class=st.integers(1, 20),
        rounds=st.integers(0, 6),
        delta_t_frac=st.floats(0.1, 1.0),
        radius_m=st.floats(10.0, 1200.0),
        zipf_eta=st.floats(0.0, 2.0),
        max_evals=st.integers(1, 5),
        eval_every=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_evaluations_are_thinned_to_a_stride(self, **drawn):
        """Rounds 0, s, 2s, ... and the last event: s = max(eval_every, ceil(events / max_evals))."""
        cfg = ScenarioConfig(
            **drawn,
            test_per_class=2,
            hidden_width=4,
            snr_threshold_db=10.0,
            cpu_freq_max_hz=5e9,
        )
        sc = setup_scenario(cfg)
        for algorithm in ("ttfed", "fedavg", "fedasync", "fedat"):
            trace = []
            metrics = run(replace(cfg, algorithm=algorithm), scenario=sc, trace=trace)
            events = len(trace)
            stride = max(cfg.eval_every, math.ceil(events / cfg.max_evals))
            rounds = [p.round for p in metrics.evals]
            assert rounds == sorted(set(range(0, events, stride)) | {events})
            assert len(rounds) - 1 <= cfg.max_evals
            assert rounds[-1] == events

    @pytest.mark.parametrize("scheduling_fading", FADING_MODES)
    @pytest.mark.parametrize("policy", POLICIES)
    @given(
        users=st.integers(1, 12),
        delta_t_frac=st.floats(0.1, 1.0),
        radius_m=st.floats(10.0, 1200.0),
        total_bandwidth_hz=st.floats(1e5, 2e7),
        greedy_skip=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_ttfed_plans_stay_within_the_bandwidth(self, policy, scheduling_fading, **drawn):
        cfg = ScenarioConfig(
            **drawn,
            policy=policy,
            scheduling_fading=scheduling_fading,
            rounds=6,
            train_per_class=2,
            test_per_class=2,
            hidden_width=4,
            cpu_freq_max_hz=5e9,
        )
        plans = []

        def recording(planner):
            def plan(qualified, budget, *args):
                result = planner(qualified, budget, *args)
                plans.append((budget, result))
                return result

            return plan

        trace = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("select_users", "equal_share_plan"):
                patch.setattr(engine.allocator, name, recording(getattr(allocator, name)))
            run(cfg, trace=trace)
        assert len(plans) == len(trace)  # one plan per event
        total = cfg.total_bandwidth_hz
        for budget, plan in plans:
            assert budget == total
            assert sum(plan.bandwidth[u] for u in plan.selected) <= total * (1.0 + 1e-12)

    @pytest.mark.parametrize("policy", POLICIES)
    @given(
        users=st.integers(1, 12),
        delta_t_frac=st.floats(0.1, 1.0),
        radius_m=st.floats(10.0, 1200.0),
        total_bandwidth_hz=st.floats(1e5, 2e7),
        zipf_eta=st.floats(0.0, 2.0),
        greedy_skip=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_mean_fading_plans_never_bind(self, policy, **drawn):
        """Under scheduling_fading=distribution every qualified user is selected.

        A user's tier m is ceil(t_u / delta_t), and t_u already holds its
        upload at the equal share B/U under mean fading, so the deadline
        slack fits that upload: each cheapest bandwidth b* is at most B/U
        (up to the tier boundary's 1e-9 snap), and a cohort asks for at most B.
        """
        cfg = ScenarioConfig(
            **drawn,
            policy=policy,
            scheduling_fading="distribution",
            rounds=6,
            train_per_class=2,
            test_per_class=2,
            hidden_width=4,
            cpu_freq_max_hz=5e9,
        )
        plans = []

        def recording(planner):
            def plan(qualified, *args):
                result = planner(qualified, *args)
                plans.append((qualified, result))
                return result

            return plan

        with pytest.MonkeyPatch.context() as patch:
            for name in ("select_users", "equal_share_plan"):
                patch.setattr(engine.allocator, name, recording(getattr(allocator, name)))
            run(cfg)
        share = cfg.equal_share_hz
        for qualified, plan in plans:
            assert all(q.bandwidth <= share * (1.0 + 1e-9) for q in qualified)
            if all(q.bandwidth <= share for q in qualified):
                assert plan.selected == sorted(q.user_id for q in qualified)

    @pytest.mark.xfail(
        strict=True,
        reason="a user whose cycle fills its tier's interval exactly gets a b* that "
        "rounds just above B/U, and the planner drops it from every round",
    )
    @pytest.mark.parametrize("policy", POLICIES)
    def test_an_exact_fit_user_is_selected(self, policy):
        """One user, delta_t = T: its upload fits the slack at B/U exactly."""
        cfg = ScenarioConfig(
            users=1,
            delta_t_frac=1.0,
            radius_m=10.0,
            total_bandwidth_hz=1e5,
            policy=policy,
            seed=0,
            rounds=2,
            train_per_class=2,
            test_per_class=2,
            hidden_width=4,
            cpu_freq_max_hz=5e9,
        )
        metrics = run(cfg)
        assert metrics.uplink_msgs == 2
