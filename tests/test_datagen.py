"""Dataset ingestion, synthetic stand-in, and the two-skew partitioner."""

import hashlib
import math
import os
import struct
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttfedsim.config import ScenarioConfig
from ttfedsim.datagen import (
    IdxFormatError,
    LabeledDataset,
    UserShard,
    dirichlet_class_shares,
    load_idx,
    partition,
    synthetic_digits,
    training_subset,
    zipf_sizes,
)
from ttfedsim.engine import setup_scenario
from ttfedsim.streams import substream

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
        # 600 rows span nine full blocks of 64 and end in a partial one
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
        # the float64 scratch of two 64-row blocks is 0.77 MiB
        assert peak <= output + 2 * 2**20

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
        shares = dirichlet_class_shares(math.inf, priors, rng, 3)
        assert shares.shape == (3, 10)
        assert all(np.array_equal(row, priors) for row in shares)

    def test_one_class_limit(self):
        priors = np.full(10, 0.1)
        rng = np.random.default_rng(0)
        shares = dirichlet_class_shares(0.0, priors, rng, 5)
        assert (shares.sum(axis=1) == 1.0).all()
        assert ((shares == 1.0).sum(axis=1) == 1).all()
        assert ((shares == 0.0) | (shares == 1.0)).all()

    def test_underflow_falls_back_to_one_class(self):
        priors = np.full(10, 0.1)
        rng = np.random.default_rng(0)
        shares = dirichlet_class_shares(1e-300, priors, rng, 4)
        assert ((shares == 1.0).sum(axis=1) == 1).all()
        assert ((shares == 0.0) | (shares == 1.0)).all()

    def test_zero_prior_class_gets_nothing(self):
        priors = np.array([0.0, 0.5, 0.5, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        rng = np.random.default_rng(0)
        for theta in (0.5, 1e-300):
            shares = dirichlet_class_shares(theta, priors, rng, 20)
            assert (shares[:, 0] == 0.0).all()
            assert (shares[:, 3:] == 0.0).all()

    def test_invalid_priors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dirichlet_class_shares(1.0, np.full(10, 0.2), rng, 1)
        with pytest.raises(ValueError):
            dirichlet_class_shares(-1.0, np.full(10, 0.1), rng, 1)

    @given(theta=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_simplex_output(self, theta):
        priors = np.full(10, 0.1)
        rng = np.random.default_rng(17)
        shares = dirichlet_class_shares(theta, priors, rng, 5)
        assert shares.min() >= 0.0
        assert shares.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-12)


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


def _reference_partition(dataset, num_users, zipf_eta, dirichlet_theta, seed):
    """The partitioner one user at a time, as it was written before it was
    vectorized: each user draws its shares, rounds its quotas and fills them
    from the pools before the next user draws."""
    rng = substream(seed, 11)
    sizes = zipf_sizes(dataset.count, num_users, zipf_eta)
    q = dataset.class_priors()
    pools = [list(np.flatnonzero(dataset.labels == c)) for c in range(10)]
    cursor = [0] * 10

    def remaining(c):
        return len(pools[c]) - cursor[c]

    def take(c, n, out):
        out.extend(pools[c][cursor[c] : cursor[c] + n])
        cursor[c] += n

    shards = []
    for uid, size in enumerate(sizes):
        if math.isinf(dirichlet_theta):
            shares = q.copy()
        elif dirichlet_theta == 0.0:
            shares = np.zeros_like(q)
            shares[int(rng.integers(len(q)))] = 1.0
        else:
            v = rng.gamma(dirichlet_theta * q, 1.0)
            v[q == 0.0] = 0.0
            if v.sum() == 0.0:
                shares = np.zeros_like(q)
                shares[int(rng.choice(np.flatnonzero(q > 0)))] = 1.0
            else:
                shares = v / v.sum()
        offset = uid * 10 // num_users
        raw = size * shares
        quotas = np.floor(raw).astype(np.int64)
        remainder = size - int(quotas.sum())
        order = np.lexsort(((np.arange(10) - offset) % 10, -(raw - quotas)))
        quotas[order[:remainder]] += 1
        chosen = []
        deficit = 0
        for c in range(10):
            got = min(int(quotas[c]), remaining(c))
            take(c, got, chosen)
            deficit += int(quotas[c]) - got
        substituted = deficit
        while deficit > 0:
            avail = [remaining(c) for c in range(10)]
            c = int(np.argmax(avail))
            got = min(deficit, avail[c])
            take(c, got, chosen)
            deficit -= got
        shards.append(UserShard(np.array(sorted(chosen), dtype=np.int64), substituted))
    return shards


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _shards_digest(shards):
    return _digest(
        np.concatenate([s.indices for s in shards]),
        np.array([s.size for s in shards], dtype=np.int64),
        np.array([s.substituted for s in shards], dtype=np.int64),
    )


@lru_cache(maxsize=1)
def _benchmark_scale_digits():
    return synthetic_digits(1000, 200, seed=4)


class TestGoldenAtBenchmarkScale:
    """Fixed digests of the data a 1000-user scenario is built from, taken
    before the partitioner was vectorized and the digit blocks resized."""

    def test_synthetic_digits(self):
        train, test = _benchmark_scale_digits()
        assert _digest(train.images, train.labels) == (
            "e4148bc28cc4dbc4c2070a39f17b928ce31371ba3fa719392409bae9c180a825"
        )
        assert _digest(test.images, test.labels) == (
            "518c618755173d97b9c2925d965b4e1182052f7ba1dbd0aee7901d38c18d5ef3"
        )

    @pytest.mark.parametrize(
        ("eta", "theta", "substituted", "digest"),
        [
            (1.0, 0.5, 1607, "20f67b62124d02b415a7ec23659d9d9dfc4910ce2032fdc015c8a6a73ec02455"),
            (0.0, 0.0, 420, "360f706222555834c9c1063081c2088d3fea62ec0f03dad902907dd1f1f247a9"),
            (0.0, math.inf, 0, "8a0f43f9e2efcc066cecfb227484f39acaa6ee8b21eccd02f576e0e24ef5ea0b"),
        ],
        ids=["zipf-dirichlet", "one-class", "uniform"],
    )
    def test_partition(self, eta, theta, substituted, digest):
        train, _ = _benchmark_scale_digits()
        shards = partition(train, 1000, zipf_eta=eta, dirichlet_theta=theta, seed=7)
        assert sum(s.substituted for s in shards) == substituted
        assert _shards_digest(shards) == digest

    def test_tiers_of_the_skewed_many_user_scenario(self):
        cfg = ScenarioConfig(
            seed=1000,
            data_seed=13345,
            users=1000,
            delta_t_frac=0.2,
            rounds=6,
            max_evals=20,
            policy="equal_bandwidth",
            scheduling_fading="realization",
            cpu_freq_max_hz=5e9,
            train_per_class=1000,
            zipf_eta=1.0,
            dirichlet_theta=0.5,
        )
        sc = setup_scenario(cfg)
        assert _digest(np.asarray(sc.tier_of, dtype=np.int64)) == (
            "585d9b0095e4f2dd2fc1b4ebd061b021234edffee47df3aaa2a318d63d000409"
        )
        assert _digest(*sc.shard_images) == (
            "1960b1656a77c3085dc04ed0b0283d51228cac3e822c69f78a1a1b525ee67282"
        )


class TestPartitionOracle:
    @given(
        users=st.integers(min_value=1, max_value=300),
        extra=st.integers(min_value=0, max_value=200),
        classes=st.integers(min_value=1, max_value=10),
        eta=st.floats(min_value=0.0, max_value=3.0),
        theta=st.one_of(
            st.sampled_from([0.0, math.inf, 1e-300]),
            st.floats(min_value=0.01, max_value=100.0),
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # theta = 1e-3 on two classes: about half the users' draws all underflow,
    # interleaved with users whose draws do not
    @example(users=50, extra=0, classes=2, eta=0.0, theta=1e-3, seed=0)
    @settings(max_examples=120, deadline=None)
    def test_equals_the_per_user_reference(self, users, extra, classes, eta, theta, seed):
        """Same indices and substitution counts as the one-user-at-a-time
        partitioner, including zero-prior classes and users whose Gamma
        draws all underflow (theta = 1e-300)."""
        n = users + extra
        labels = np.arange(n, dtype=np.int64) % classes
        dataset = LabeledDataset(images=np.zeros((n, 1)), labels=labels)
        got = partition(dataset, users, zipf_eta=eta, dirichlet_theta=theta, seed=seed)
        want = _reference_partition(dataset, users, eta, theta, seed)
        assert [s.substituted for s in got] == [s.substituted for s in want]
        for a, b in zip(got, want, strict=True):
            assert a.indices.dtype == np.int64
            assert np.array_equal(a.indices, b.indices)
