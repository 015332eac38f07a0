"""One-hidden-layer MLP: gradients, SGD updates, evaluation."""

import math

import numpy as np
import pytest

from ttfedsim.config import ScenarioConfig
from ttfedsim.learner import (
    MODEL_DTYPE,
    FirstSteps,
    MlpArch,
    _forward,
    evaluate,
    init_params,
    local_update,
    loss_and_gradient,
    one_step_mean,
)

ARCH = MlpArch()


def random_batch(n, seed, arch=ARCH):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, size=(n, arch.in_dim))
    labels = rng.integers(0, arch.out_dim, size=n)
    return images, labels


def init64(seed, arch=ARCH):
    """init_params widened to float64, for the float64 arithmetic checks.

    Models are float32, whose rounding would swamp the 1e-5 steps and the
    1e-10 tolerances below; the learner computes in whatever it is given.
    """
    return init_params(seed, arch).astype(np.float64)


class TestArchitecture:
    def test_default_param_count(self):
        assert ARCH.param_count == 39760

    def test_small_arch_count(self):
        assert MlpArch(in_dim=3, hidden=2, out_dim=4).param_count == 3 * 2 + 2 + 2 * 4 + 4

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            MlpArch(in_dim=0)


class TestInit:
    def test_deterministic(self):
        assert np.array_equal(init_params(7), init_params(7))
        assert not np.array_equal(init_params(7), init_params(8))

    def test_length_and_zero_biases(self):
        w = init_params(0)
        assert w.shape == (39760,)
        n1 = 784 * 50
        assert (w[n1 : n1 + 50] == 0.0).all()
        assert (w[-10:] == 0.0).all()

    def test_weight_scale(self):
        w = init_params(3)
        lim1 = math.sqrt(6.0 / (784 + 50))
        lim2 = math.sqrt(6.0 / (50 + 10))
        n1 = 784 * 50
        assert np.abs(w[:n1]).max() <= lim1
        assert np.abs(w[n1 + 50 : n1 + 50 + 500]).max() <= lim2
        assert np.abs(w[:n1]).max() > 0.9 * lim1  # actually fills the range


class TestModelDtype:
    """Models are float32, and float32 in gives float32 out."""

    def batch32(self, n, seed):
        images, labels = random_batch(n, seed)
        return images.astype(np.float32), labels

    def test_model_dtype_is_float32(self):
        assert MODEL_DTYPE == np.float32
        assert init_params(0).dtype == np.float32
        assert init_params(0, MlpArch(in_dim=5, hidden=3, out_dim=2)).dtype == np.float32

    def test_init_rounds_the_float64_draw(self):
        lim1 = math.sqrt(6.0 / (784 + 50))
        wide = np.random.default_rng(4).uniform(-lim1, lim1, size=(784, 50))  # W1's draw
        assert init_params(4)[: 784 * 50].tobytes() == wide.astype(np.float32).tobytes()

    def test_loss_and_gradient(self):
        images, labels = self.batch32(16, 20)
        loss, grad = loss_and_gradient(init_params(20), images, labels)
        assert grad.dtype == np.float32
        assert isinstance(loss, float) and math.isfinite(loss)
        loss64, grad64 = loss_and_gradient(init64(20), images.astype(np.float64), labels)
        assert loss == pytest.approx(loss64, rel=1e-5)
        np.testing.assert_allclose(grad, grad64, rtol=1e-3, atol=1e-6)

    def test_local_update_and_its_scratch(self):
        images, labels = self.batch32(30, 21)
        w = init_params(21)
        cfg = ScenarioConfig(learning_rate=0.05, local_epochs=2, batch_size=8)
        work = np.empty_like(w)
        plain = local_update(w, images, labels, cfg, np.random.default_rng(3))
        lent = local_update(w, images, labels, cfg, np.random.default_rng(3), work=work)
        assert plain.dtype == lent.dtype == work.dtype == np.float32
        assert lent.tobytes() == plain.tobytes()

    def test_minibatches_match_hand_rolled_sgd(self):
        images, labels = self.batch32(30, 22)
        w = init_params(22)
        cfg = ScenarioConfig(learning_rate=0.05, local_epochs=2, batch_size=8)
        out = local_update(w, images, labels, cfg, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        expected = w
        for _ in range(2):
            order = rng.permutation(30)
            for start in range(0, 30, 8):
                idx = order[start : start + 8]
                _, grad = loss_and_gradient(expected, images[idx], labels[idx])
                expected = expected - 0.05 * grad
        assert expected.dtype == np.float32
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(("n", "batch_size"), [(1, 32), (33, 32)])
    def test_one_row_batches_match_hand_rolled_sgd(self, n, batch_size):
        """A shard of one, and a shard whose last batch is one row."""
        images, labels = self.batch32(n, 24)
        w = init_params(24)
        cfg = ScenarioConfig(learning_rate=0.05, local_epochs=2, batch_size=batch_size)
        out = local_update(w, images, labels, cfg, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        expected = w
        for _ in range(2):
            order = rng.permutation(n) if batch_size < n else np.arange(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                _, grad = loss_and_gradient(expected, images[idx], labels[idx])
                expected = expected - 0.05 * grad
        assert out.tobytes() == expected.tobytes()

    def test_one_row_gradient_is_an_exact_outer_product(self):
        """For one row, dL/dW1 = x (dL/db1)^T with each entry a single rounded product."""
        images, labels = self.batch32(1, 25)
        _, grad = loss_and_gradient(init_params(25), images, labels)
        w1_grad, b1_grad = grad[: 784 * 50].reshape(784, 50), grad[784 * 50 : 784 * 50 + 50]
        assert w1_grad.tobytes() == np.outer(images[0], b1_grad).tobytes()

    def test_probabilities_and_evaluate(self):
        images, labels = self.batch32(40, 23)
        probs = _forward(init_params(23), images, ARCH)[2]
        assert probs.dtype == np.float32
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        acc, loss = evaluate(init_params(23), images, labels)
        assert isinstance(acc, float) and isinstance(loss, float)
        acc64, loss64 = evaluate(init64(23), images.astype(np.float64), labels)
        assert acc == acc64
        assert loss == pytest.approx(loss64, rel=1e-5)


class TestSigmoidSaturation:
    """Pre-activations past exp's range saturate the sigmoid without a warning.

    float32's exp overflows beyond about 88 and float64's beyond about 709;
    the pytest configuration turns an overflow warning into a failure.
    """

    ARCH = MlpArch(in_dim=2, hidden=4, out_dim=3)
    SATURATING = [(np.float32, 100.0), (np.float64, 1000.0)]

    def saturating_model(self, dtype, scale):
        w = np.zeros(self.ARCH.param_count, dtype=dtype)
        w1 = w[:8].reshape(2, 4)
        w1[0] = [scale, -scale, scale, -scale]
        w1[1] = [-scale, scale, scale, -scale]
        w[12:24] = np.linspace(-1.0, 1.0, 12)  # W2, so the logits differ
        return w

    @pytest.mark.parametrize("dtype, scale", SATURATING)
    def test_hidden_units_are_exactly_0_or_1(self, dtype, scale):
        images = np.eye(2, dtype=dtype)
        hidden = _forward(self.saturating_model(dtype, scale), images, self.ARCH)[0]
        assert hidden.dtype == dtype
        np.testing.assert_array_equal(hidden, [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0]])

    @pytest.mark.parametrize("dtype, scale", SATURATING)
    def test_loss_and_gradient_stay_finite(self, dtype, scale):
        images = np.eye(2, dtype=dtype)
        labels = np.array([0, 2])
        w = self.saturating_model(dtype, scale)
        loss, grad = loss_and_gradient(w, images, labels, self.ARCH)
        assert math.isfinite(loss)
        assert grad.dtype == dtype and np.isfinite(grad).all()
        acc, loss_eval = evaluate(w, images, labels, self.ARCH)
        assert math.isfinite(loss_eval) and 0.0 <= acc <= 1.0


class TestLossAndGradient:
    def test_uniform_logits_give_log10(self):
        images, labels = random_batch(16, 0)
        loss, _ = loss_and_gradient(np.zeros(ARCH.param_count), images, labels)
        assert loss == pytest.approx(math.log(10.0), rel=1e-12)

    def test_softmax_rows_sum_to_one(self):
        images, _ = random_batch(32, 1)
        probs = _forward(init64(1), images, ARCH)[2]
        assert probs.shape == (32, 10)
        assert probs.min() > 0.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_duplicated_batch_unchanged(self):
        images, labels = random_batch(8, 2)
        w = init64(2)
        loss_a, grad_a = loss_and_gradient(w, images, labels)
        loss_b, grad_b = loss_and_gradient(
            w, np.concatenate([images, images]), np.concatenate([labels, labels])
        )
        assert loss_b == pytest.approx(loss_a, rel=1e-12)
        np.testing.assert_allclose(grad_b, grad_a, rtol=1e-10, atol=1e-15)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            loss_and_gradient(init64(0), np.zeros((0, 784)), np.zeros(0, dtype=int))

    def test_wrong_length_vector(self):
        images, labels = random_batch(4, 3)
        with pytest.raises(ValueError):
            loss_and_gradient(np.zeros(10), images, labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_central_differences(self, seed):
        images, labels = random_batch(6, 100 + seed)
        w = init64(seed)
        _, grad = loss_and_gradient(w, images, labels)
        rng = np.random.default_rng(200 + seed)
        coords = rng.choice(ARCH.param_count, size=50, replace=False)
        h = 1e-5
        worst = 0.0
        for c in coords:
            wp, wm = w.copy(), w.copy()
            wp[c] += h
            wm[c] -= h
            lp, _ = loss_and_gradient(wp, images, labels)
            lm, _ = loss_and_gradient(wm, images, labels)
            numeric = (lp - lm) / (2.0 * h)
            rel = abs(grad[c] - numeric) / max(abs(grad[c]), abs(numeric), 1e-6)
            worst = max(worst, rel)
        assert worst <= 1e-4

    def test_gradient_finite(self):
        images, labels = random_batch(8, 4)
        loss, grad = loss_and_gradient(init64(4), images, labels)
        assert math.isfinite(loss)
        assert np.isfinite(grad).all()


class TestLocalUpdate:
    def test_zero_rate_is_identity(self):
        images, labels = random_batch(10, 5)
        w = init64(5)
        out = local_update(
            w, images, labels, ScenarioConfig(learning_rate=0.0), np.random.default_rng(0)
        )
        assert np.array_equal(out, w)
        assert out is not w

    def test_full_batch_single_step_exact(self):
        images, labels = random_batch(10, 6)
        w = init64(6)
        cfg = ScenarioConfig(learning_rate=0.05, local_epochs=1, batch_size=10)
        out = local_update(w, images, labels, cfg, np.random.default_rng(0))
        _, grad = loss_and_gradient(w, images, labels)
        assert np.array_equal(out, w - 0.05 * grad)

    def test_oversized_batch_same_as_full(self):
        images, labels = random_batch(10, 6)
        w = init64(6)
        a = local_update(
            w, images, labels, ScenarioConfig(batch_size=10), np.random.default_rng(0)
        )
        b = local_update(
            w, images, labels, ScenarioConfig(batch_size=999), np.random.default_rng(1)
        )
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_descent_on_full_batch(self, seed):
        images, labels = random_batch(20, 300 + seed)
        w = init64(seed)
        loss_before, _ = loss_and_gradient(w, images, labels)
        cfg = ScenarioConfig(learning_rate=0.01, local_epochs=1, batch_size=20)
        out = local_update(w, images, labels, cfg, np.random.default_rng(0))
        loss_after, _ = loss_and_gradient(out, images, labels)
        assert loss_after < loss_before

    def test_shuffled_minibatches_deterministic(self):
        images, labels = random_batch(30, 7)
        w = init64(7)
        cfg = ScenarioConfig(learning_rate=0.02, local_epochs=3, batch_size=8)
        a = local_update(w, images, labels, cfg, np.random.default_rng(99))
        b = local_update(w, images, labels, cfg, np.random.default_rng(99))
        c = local_update(w, images, labels, cfg, np.random.default_rng(100))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)  # different shuffle, different result

    def test_minibatches_match_hand_rolled_sgd(self):
        images, labels = random_batch(30, 12)
        w = init64(12)
        cfg = ScenarioConfig(learning_rate=0.05, local_epochs=3, batch_size=8)
        out = local_update(w, images, labels, cfg, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expected = w
        for _ in range(3):
            order = rng.permutation(30)
            for start in range(0, 30, 8):  # batches of 8, 8, 8 and a ragged 6
                idx = order[start : start + 8]
                _, grad = loss_and_gradient(expected, images[idx], labels[idx])
                expected = expected - 0.05 * grad
        assert out.tobytes() == expected.tobytes()

    def test_lent_scratch_changes_no_bits(self):
        images, labels = random_batch(30, 13)
        w = init64(13)
        w_before, images_before = w.copy(), images.copy()
        cfg = ScenarioConfig(learning_rate=0.05, local_epochs=3, batch_size=8)
        work = np.empty_like(w)
        plain = local_update(w, images, labels, cfg, np.random.default_rng(6))
        lent = local_update(w, images, labels, cfg, np.random.default_rng(6), work=work)
        assert lent.tobytes() == plain.tobytes()
        assert not np.shares_memory(lent, work)
        assert not np.shares_memory(lent, w)
        assert w.tobytes() == w_before.tobytes()
        assert images.tobytes() == images_before.tobytes()

    def test_full_batch_reads_no_stream(self):
        images, labels = random_batch(10, 14)
        w = init64(14)
        cfg = ScenarioConfig(learning_rate=0.05, local_epochs=2, batch_size=10)
        out = local_update(w, images, labels, cfg, None, work=np.empty_like(w))
        expected = local_update(w, images, labels, cfg, np.random.default_rng(0))
        assert out.tobytes() == expected.tobytes()

    def test_updates_stay_finite(self):
        images, labels = random_batch(30, 8)
        w = init64(8)
        cfg = ScenarioConfig(learning_rate=0.5, local_epochs=5, batch_size=8)
        out = local_update(w, images, labels, cfg, np.random.default_rng(0))
        assert np.isfinite(out).all()

    def test_empty_shard(self):
        with pytest.raises(ValueError):
            local_update(
                init64(0),
                np.zeros((0, 784)),
                np.zeros(0, dtype=int),
                ScenarioConfig(),
                np.random.default_rng(0),
            )


class TestFirstSteps:
    """A lent first-step slot is filled once, then replayed, with no bit moved."""

    @pytest.mark.parametrize(
        "n,batch_size,epochs",
        [(30, 64, 1), (30, 8, 1), (30, 8, 2), (1, 8, 1), (33, 32, 3)],
        ids=["full-batch", "shuffled", "shuffled-2-epochs", "one-row", "ragged-3-epochs"],
    )
    def test_filled_and_replayed_updates_match_plain_sgd(self, n, batch_size, epochs):
        images, labels = random_batch(n, 40)
        images = images.astype(MODEL_DTYPE)
        w = init_params(40)
        cfg = ScenarioConfig(learning_rate=0.05, local_epochs=epochs, batch_size=batch_size)
        store = FirstSteps([5, n, 3], cfg, ARCH)  # this update owns slot 1
        plain = local_update(w, images, labels, cfg, np.random.default_rng(3))
        results = []
        for _ in range(2):  # the first call fills the slot, the second replays it
            rng = np.random.default_rng(3)
            results.append(local_update(w, images, labels, cfg, rng, first_step=(store, 1)))
            assert store.filled == [False, True, False]
        assert results[0].tobytes() == results[1].tobytes() == plain.tobytes()

    def test_a_filled_slot_is_what_the_replay_reads(self):
        images, labels = random_batch(20, 41)
        images = images.astype(MODEL_DTYPE)
        w = init_params(41)
        cfg = ScenarioConfig(learning_rate=0.5, batch_size=32)
        store = FirstSteps([20], cfg, ARCH)
        filled = local_update(w, images, labels, cfg, None, first_step=(store, 0))
        store.rest[0] = 0.0  # b1, W2 and b2 get no gradient; W1 still does
        replayed = local_update(w, images, labels, cfg, None, first_step=(store, 0))
        split = ARCH.in_dim * ARCH.hidden
        assert replayed[:split].tobytes() == filled[:split].tobytes()
        assert replayed[split:].tobytes() == w[split:].tobytes() != filled[split:].tobytes()

    @pytest.mark.parametrize(
        "arch,sizes,batch_size,epochs,kept",
        [
            # 6,370 parameters: a shard of 9 or more rows has as many values
            (MlpArch(hidden=8), [7, 8, 9, 41], 8, 1, [False, False, True, True]),
            (MlpArch(hidden=8), [7, 8, 9, 41], 8, 2, [False, False, True, True]),
            (MlpArch(hidden=8), [7, 8, 9, 41], 64, 1, [False, False, False, False]),
            (MlpArch(hidden=8), [7, 8, 9, 41], 64, 3, [False, False, True, True]),
            # 39,760 parameters: 51 rows or more
            (ARCH, [41, 50, 51, 200], 32, 1, [False, False, True, True]),
            (ARCH, [41, 50, 51, 200], 64, 1, [False, False, False, True]),
            (ARCH, [41, 50, 51, 200], 256, 2, [False, False, True, True]),
            # 40 parameters: a 10-row shard has exactly as many values
            (MlpArch(in_dim=4, hidden=2), [9, 10, 11], 1, 1, [False, True, True]),
        ],
        ids=[
            "h8-shuffled",
            "h8-2-epochs",
            "h8-full-batch",
            "h8-full-batch-3-epochs",
            "h50-shuffled",
            "h50-one-shuffled",
            "h50-full-batch-2-epochs",
            "equal-size",
        ],
    )
    def test_keeps_a_multi_step_upload_no_larger_than_its_shard(
        self, arch, sizes, batch_size, epochs, kept
    ):
        cfg = ScenarioConfig(local_epochs=epochs, batch_size=batch_size)
        assert FirstSteps(sizes, cfg, arch).kept == kept

    def test_a_kept_slot_has_no_first_step_rows(self):
        arch = MlpArch(hidden=8)
        store = FirstSteps([7, 41, 8, 9], ScenarioConfig(batch_size=8), arch)
        assert store.kept == [False, True, False, True]
        assert store.d_hidden.shape == (7 + 8, arch.hidden)  # slots 0 and 2 only
        rest = arch.param_count - arch.in_dim * arch.hidden
        assert store.rest.shape == (4, rest)  # a row per slot, kept or not
        assert store.filled == [False] * 4 and store.uploads == {}


class TestOneStepMean:
    """Single-step updates from one model, merged as one step on their mean gradient."""

    SIZES = [7, 1, 12, 5]  # shards laid out in this order, with 3 rows of no shard after the second

    def case(self, dtype):
        arch = MlpArch(in_dim=16, hidden=6)
        rng = np.random.default_rng(50)
        images = rng.uniform(0.0, 1.0, size=(sum(self.SIZES) + 3, arch.in_dim)).astype(dtype)
        starts = [0, 7, 11, 23]
        shards = [
            (k, start, rng.integers(0, arch.out_dim, size=n), n / sum(self.SIZES))
            for k, (start, n) in enumerate(zip(starts, self.SIZES))
        ]
        w = init_params(50, arch).astype(dtype)
        cfg = ScenarioConfig(learning_rate=0.7, batch_size=16)
        uploads = [
            local_update(w, images[start : start + len(labels)], labels, cfg, None, arch)
            for _, start, labels, _ in shards
        ]
        mean = sum(weight * u.astype(np.float64) for (*_, weight), u in zip(shards, uploads))
        return arch, images, shards, w, cfg, mean

    def test_float64_is_the_weighted_mean_of_the_updates(self):
        arch, images, shards, w, cfg, mean = self.case(np.float64)
        merged = one_step_mean(w, images, shards, cfg.learning_rate, arch)
        np.testing.assert_allclose(merged, mean, rtol=0, atol=1e-14)

    def test_float32_within_rounding_and_the_same_with_a_store(self):
        arch, images, shards, w, cfg, mean = self.case(MODEL_DTYPE)
        merged = one_step_mean(w, images, shards, cfg.learning_rate, arch)
        assert merged.dtype == MODEL_DTYPE
        assert np.abs(merged - mean).max() <= 4 * np.finfo(MODEL_DTYPE).eps * np.abs(mean).max()
        store = FirstSteps(self.SIZES, cfg, arch)
        for _ in range(2):  # the first call fills every slot, the second replays them
            work = np.empty_like(w)
            stored = one_step_mean(
                w, images, shards, cfg.learning_rate, arch, work=work, first_steps=store
            )
            assert all(store.filled) and stored.tobytes() == merged.tobytes()
        # the slots hold what a lone update fills them with
        for k, start, labels, _ in shards:
            alone = FirstSteps(self.SIZES, cfg, arch)
            rows = images[start : start + len(labels)]
            local_update(w, rows, labels, cfg, None, arch, first_step=(alone, k))
            assert alone.rest[k].tobytes() == store.rest[k].tobytes()


class TestEvaluate:
    def test_constant_model_is_chance(self):
        # zero weights give identical logits; ties resolve to class 0
        images = np.random.default_rng(9).uniform(size=(100, 784))
        labels = np.repeat(np.arange(10), 10)
        acc, loss = evaluate(np.zeros(ARCH.param_count), images, labels)
        assert acc == pytest.approx(0.1)
        assert loss == pytest.approx(math.log(10.0), rel=1e-12)

    def test_perfect_model(self):
        # craft logits through b2 alone on a one-sample-per-class set
        arch = MlpArch(in_dim=4, hidden=3, out_dim=10)
        images = np.zeros((10, 4))
        labels = np.arange(10)
        accs = []
        for target in range(10):
            w = np.zeros(arch.param_count)
            w[-10 + target] = 50.0  # bias pushes every prediction to `target`
            acc, _ = evaluate(w, images, labels, arch)
            accs.append(acc)
        assert accs == [pytest.approx(0.1)] * 10  # each constant guess hits once

    def test_trained_beats_chance(self):
        images, labels = random_batch(50, 10)
        w = init64(10)
        cfg = ScenarioConfig(learning_rate=0.5, local_epochs=40, batch_size=50)
        out = local_update(w, images, labels, cfg, np.random.default_rng(0))
        acc_after, _ = evaluate(out, images, labels)
        assert acc_after > 0.5  # memorizes a 50-sample batch

    def test_deterministic(self):
        images, labels = random_batch(20, 11)
        w = init64(11)
        assert evaluate(w, images, labels) == evaluate(w, images, labels)

    def test_empty_set(self):
        with pytest.raises(ValueError):
            evaluate(init64(0), np.zeros((0, 784)), np.zeros(0, dtype=int))
