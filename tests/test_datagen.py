"""Dataset ingestion, synthetic stand-in, and the two-skew partitioner."""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttfedsim.datagen import (
    IdxFormatError,
    LabeledDataset,
    dirichlet_class_shares,
    load_idx,
    partition,
    synthetic_digits,
    training_subset,
    zipf_sizes,
)

MNIST_DIR = os.environ.get("MNIST_DIR", "")


def write_idx_images(path, count, rows=4, cols=3, fill=None):
    payload = (
        np.arange(count * rows * cols, dtype=np.uint64) % 256
        if fill is None
        else np.full(count * rows * cols, fill, dtype=np.uint64)
    ).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(payload.tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(int(v) for v in labels))


class TestIdxLoading:
    def test_round_trip(self, tmp_path):
        img = tmp_path / "images.idx"
        lab = tmp_path / "labels.idx"
        write_idx_images(str(img), 7)
        write_idx_labels(str(lab), [0, 1, 2, 3, 4, 5, 6])
        ds = load_idx(str(img), str(lab))
        assert ds.count == 7
        assert ds.images.shape == (7, 12)
        assert ds.images[0, 0] == 0.0
        assert ds.images[0, 5] == pytest.approx(5.0 / 255.0)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert list(ds.labels) == [0, 1, 2, 3, 4, 5, 6]

    def test_every_byte_is_its_quotient_rounded_once(self, tmp_path):
        img = tmp_path / "images.idx"
        lab = tmp_path / "labels.idx"
        write_idx_images(str(img), 256, rows=1, cols=1)
        write_idx_labels(str(lab), [i % 10 for i in range(256)])
        ds = load_idx(str(img), str(lab))
        expected = (np.arange(256, dtype=np.float64) / 255.0).astype(np.float32)
        assert ds.images.dtype == np.float32
        assert ds.images.ravel().tobytes() == expected.tobytes()

    def test_empty_pair(self, tmp_path):
        img = tmp_path / "images.idx"
        lab = tmp_path / "labels.idx"
        write_idx_images(str(img), 0)
        write_idx_labels(str(lab), [])
        ds = load_idx(str(img), str(lab))
        assert ds.count == 0

    def test_bad_magic(self, tmp_path):
        img = tmp_path / "images.idx"
        with open(img, "wb") as fh:
            fh.write(struct.pack(">IIII", 0xDEADBEEF, 1, 4, 3))
            fh.write(bytes(12))
        lab = tmp_path / "labels.idx"
        write_idx_labels(str(lab), [0])
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(str(img), str(lab))

    def test_truncated_header(self, tmp_path):
        img = tmp_path / "images.idx"
        img.write_bytes(b"\x00\x00\x08\x03\x00")
        lab = tmp_path / "labels.idx"
        write_idx_labels(str(lab), [0])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(str(img), str(lab))

    def test_short_payload(self, tmp_path):
        img = tmp_path / "images.idx"
        with open(img, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 4, 3))
            fh.write(bytes(12))  # one image missing
        lab = tmp_path / "labels.idx"
        write_idx_labels(str(lab), [0, 1])
        with pytest.raises(IdxFormatError, match="payload"):
            load_idx(str(img), str(lab))

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "images.idx"
        lab = tmp_path / "labels.idx"
        write_idx_images(str(img), 100)
        write_idx_labels(str(lab), [i % 10 for i in range(99)])
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx(str(img), str(lab))

    @pytest.mark.skipif(
        not os.path.exists(os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte")),
        reason="official test files not present (set MNIST_DIR)",
    )
    def test_official_test_set_count(self):
        ds = load_idx(
            os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte"),
            os.path.join(MNIST_DIR, "t10k-labels-idx1-ubyte"),
        )
        assert ds.count == 10_000


class TestTrainingSubset:
    def test_balanced_prefix(self):
        full, _ = synthetic_digits(20, 1, seed=9)
        sub = training_subset(full, 5)
        assert sub.count == 50
        hist = np.bincount(sub.labels, minlength=10)
        assert (hist == 5).all()
        # labels cycle 0..9, so the subset is exactly the first 50 samples
        assert np.array_equal(sub.images, full.images[:50])

    def test_insufficient_class(self):
        full, _ = synthetic_digits(3, 1, seed=9)
        with pytest.raises(ValueError, match="class"):
            training_subset(full, 4)


class TestSyntheticDigits:
    def test_shapes_and_range(self):
        train, test = synthetic_digits(25, 10, seed=1)
        assert train.images.shape == (250, 784)
        assert test.images.shape == (100, 784)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_deterministic(self):
        a_train, a_test = synthetic_digits(5, 5, seed=42)
        b_train, b_test = synthetic_digits(5, 5, seed=42)
        assert np.array_equal(a_train.images, b_train.images)
        assert np.array_equal(a_test.images, b_test.images)

    def test_any_prefix_balanced(self):
        train, _ = synthetic_digits(10, 1, seed=2)
        for k in (1, 4, 7):
            hist = np.bincount(train.labels[: k * 10], minlength=10)
            assert (hist == k).all()

    @pytest.mark.parametrize(
        ("train_per_class", "test_per_class", "seed"),
        # 600 rows span more than two blocks of 256 and end in a partial one
        [(3, 2, 0), (7, 5, 12), (60, 5, 3)],
    )
    def test_matches_the_one_line_definition(self, train_per_class, test_per_class, seed):
        """The block build gives the float64 expression rounded once to
        float32, drawing the stream in the same order."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
        protos = rng.random((10, 784))
        expected = []
        for per_class in (train_per_class, test_per_class):
            n = 10 * per_class
            labels = np.arange(n) % 10
            confusers = rng.integers(0, 10, size=n)
            lam = rng.uniform(0.0, 0.5, size=n)[:, None]
            base = (1.0 - lam) * protos[labels] + lam * protos[confusers]
            expected.append(np.clip(base + 0.6 * rng.standard_normal((n, 784)), 0.0, 1.0))
        got = synthetic_digits(train_per_class, test_per_class, seed)
        for dataset, images in zip(got, expected):
            assert dataset.images.tobytes() == images.astype(np.float32).tobytes()

    def test_peak_memory_is_the_output_and_a_little_scratch(self):
        tracemalloc.start()
        try:
            train, test = synthetic_digits(1000, 200, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = train.images.nbytes + test.images.nbytes
        assert peak <= output + 8 * 2**20

    def test_seeds_differ(self):
        a, _ = synthetic_digits(5, 1, seed=1)
        b, _ = synthetic_digits(5, 1, seed=2)
        assert not np.array_equal(a.images, b.images)


class TestZipfSizes:
    def test_equal_split(self):
        assert zipf_sizes(100, 4, 0.0) == [25, 25, 25, 25]

    def test_harmonic_pair(self):
        assert zipf_sizes(300, 2, 1.0) == [200, 100]

    def test_extreme_skew(self):
        assert zipf_sizes(10, 3, math.inf) == [8, 1, 1]

    def test_single_user(self):
        assert zipf_sizes(77, 1, 2.0) == [77]

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            zipf_sizes(3, 4, 0.0)

    def test_negative_eta(self):
        with pytest.raises(ValueError):
            zipf_sizes(100, 4, -0.5)

    @given(
        total=st.integers(min_value=1, max_value=500),
        users=st.integers(min_value=1, max_value=20),
        eta=st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=5.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_conservation_and_floor(self, total, users, eta):
        if total < users:
            with pytest.raises(ValueError):
                zipf_sizes(total, users, eta)
            return
        sizes = zipf_sizes(total, users, eta)
        assert sum(sizes) == total
        assert min(sizes) >= 1
        assert len(sizes) == users


class TestDirichletShares:
    def test_uniform_limit_is_exact(self):
        priors = np.full(10, 0.1)
        rng = np.random.default_rng(0)
        shares = dirichlet_class_shares(math.inf, priors, rng)
        assert np.array_equal(shares, priors)

    def test_one_class_limit(self):
        priors = np.full(10, 0.1)
        rng = np.random.default_rng(0)
        shares = dirichlet_class_shares(0.0, priors, rng)
        assert shares.sum() == 1.0
        assert (shares == 1.0).sum() == 1
        assert ((shares == 0.0) | (shares == 1.0)).all()

    def test_underflow_falls_back_to_one_class(self):
        priors = np.full(10, 0.1)
        rng = np.random.default_rng(0)
        shares = dirichlet_class_shares(1e-300, priors, rng)
        assert (shares == 1.0).sum() == 1

    def test_zero_prior_class_gets_nothing(self):
        priors = np.array([0.0, 0.5, 0.5, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        rng = np.random.default_rng(0)
        for _ in range(20):
            shares = dirichlet_class_shares(0.5, priors, rng)
            assert shares[0] == 0.0
            assert shares[3:].sum() == 0.0

    def test_invalid_priors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dirichlet_class_shares(1.0, np.full(10, 0.2), rng)
        with pytest.raises(ValueError):
            dirichlet_class_shares(-1.0, np.full(10, 0.1), rng)

    @given(theta=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_simplex_output(self, theta):
        priors = np.full(10, 0.1)
        rng = np.random.default_rng(17)
        shares = dirichlet_class_shares(theta, priors, rng)
        assert shares.min() >= 0.0
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)


class TestPartition:
    @pytest.fixture
    def balanced_2500(self):
        train, _ = synthetic_digits(250, 1, seed=5)
        return train

    def test_iid_balanced(self, balanced_2500):
        shards = partition(
            balanced_2500, num_users=20, zipf_eta=0.0, dirichlet_theta=math.inf, seed=3
        )
        assert len(shards) == 20
        assert all(s.size == 125 for s in shards)
        for s in shards:
            # 125 samples over 10 classes: 12 or 13 each under the rounding,
            # i.e. within one sample of the ideal 12.5
            hist = np.bincount(balanced_2500.labels[s.indices], minlength=10)
            assert hist.min() >= 12
            assert hist.max() <= 13
            assert s.substituted == 0

    def test_disjoint_and_exhaustive(self, balanced_2500):
        shards = partition(
            balanced_2500, num_users=20, zipf_eta=1.0, dirichlet_theta=0.5, seed=3
        )
        all_idx = np.concatenate([s.indices for s in shards])
        assert len(all_idx) == balanced_2500.count
        assert len(np.unique(all_idx)) == balanced_2500.count

    def test_one_class_limit(self, balanced_2500):
        shards = partition(
            balanced_2500, num_users=20, zipf_eta=0.0, dirichlet_theta=0.0, seed=3
        )
        pure = [s for s in shards if s.substituted == 0]
        assert len(pure) >= 10  # pool collisions can force substitutes
        for s in pure:
            assert len(np.unique(balanced_2500.labels[s.indices])) == 1
        assert sum(s.size for s in shards) == 2500

    def test_substitution_counted(self, balanced_2500):
        # 20 one-class users over 10 classes of 250 always collide somewhere
        shards = partition(
            balanced_2500, num_users=20, zipf_eta=0.0, dirichlet_theta=0.0, seed=3
        )
        assert sum(s.substituted for s in shards) > 0

    def test_single_user_gets_everything(self, balanced_2500):
        shards = partition(balanced_2500, num_users=1, seed=0)
        assert len(shards) == 1
        assert np.array_equal(shards[0].indices, np.arange(2500))

    def test_deterministic(self, balanced_2500):
        spec = dict(num_users=7, zipf_eta=0.8, dirichlet_theta=0.3, seed=11)
        a = partition(balanced_2500, **spec)
        b = partition(balanced_2500, **spec)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.indices, sb.indices)
            assert sa.substituted == sb.substituted

    def test_empty_dataset(self):
        ds = LabeledDataset(images=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            partition(ds, num_users=1, seed=0)

    @given(
        users=st.integers(min_value=1, max_value=10),
        eta=st.floats(min_value=0.0, max_value=3.0),
        theta=st.one_of(
            st.just(math.inf), st.just(0.0), st.floats(min_value=0.01, max_value=100.0)
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, users, eta, theta, seed):
        train, _ = synthetic_digits(20, 1, seed=8)  # 200 samples
        shards = partition(
            train, num_users=users, zipf_eta=eta, dirichlet_theta=theta, seed=seed
        )
        all_idx = np.concatenate([s.indices for s in shards])
        assert len(all_idx) == 200
        assert len(np.unique(all_idx)) == 200
        for s in shards:
            assert (np.diff(s.indices) > 0).all()  # ascending, no repeats


class TestDatasetTypes:
    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(images=np.zeros((3, 4)), labels=np.zeros(2, dtype=np.int64))

    def test_label_range(self):
        with pytest.raises(ValueError):
            LabeledDataset(images=np.zeros((1, 4)), labels=np.array([10]))

    def test_class_priors(self):
        ds = LabeledDataset(
            images=np.zeros((4, 2)), labels=np.array([0, 0, 1, 3], dtype=np.int64)
        )
        priors = ds.class_priors()
        assert priors[0] == 0.5
        assert priors[1] == 0.25
        assert priors[3] == 0.25
        assert priors.sum() == pytest.approx(1.0)

    def test_spec_validation(self):
        # partition's arguments are checked where they are used
        train, _ = synthetic_digits(1, 1, seed=0)
        with pytest.raises(ValueError, match="num_users"):
            partition(train, num_users=0)
        with pytest.raises(ValueError, match="eta"):
            partition(train, num_users=1, zipf_eta=-1.0)
        with pytest.raises(ValueError, match="theta"):
            partition(train, num_users=1, dirichlet_theta=-0.1)
