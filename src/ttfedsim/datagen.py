"""Dataset ingestion and non-IID partitioning across users.

Two skew models combine: per-user dataset sizes follow a Zipf law in the
user rank (eta = 0 equal sizes), and per-user class composition follows a
Dirichlet draw around the global class priors (theta -> inf uniform,
theta -> 0 single-class users). Both accept their symbolic limits exactly
instead of asking callers to pass huge/tiny floats.

Image data arrives either from IDX files (the classic big-endian MNIST
container) or from `synthetic_digits`, a deterministic stand-in with the
same shape (784 features, 10 balanced classes) for machines without the
real files.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .learner import MODEL_DTYPE
from .streams import substream

NUM_CLASSES = 10

# synthetic_digits: pixels per image, noise scale, cap on the confuser's weight
_SYNTH_DIM = 784
_SYNTH_NOISE = 0.6
_SYNTH_MIX_MAX = 0.5
# rows built per pass: the float64 scratch stays in a core's L2 cache
_SYNTH_BLOCK = 64

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised when an IDX file is malformed or the pair is inconsistent."""


@dataclass
class LabeledDataset:
    """Flat feature vectors in [0,1] with integer class labels."""

    images: np.ndarray  # (count, dim) MODEL_DTYPE, the dtype the learner reads
    labels: np.ndarray  # (count,) int64

    def __post_init__(self) -> None:
        self.images = np.ascontiguousarray(self.images, dtype=MODEL_DTYPE)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("images must be (count, dim), labels (count,)")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"image count {len(self.images)} != label count {len(self.labels)}"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= NUM_CLASSES):
            raise ValueError(f"labels must lie in 0..{NUM_CLASSES - 1}")

    @property
    def count(self) -> int:
        return len(self.labels)

    def class_priors(self) -> np.ndarray:
        """Empirical class distribution, a length-10 simplex vector."""
        if self.count == 0:
            raise ValueError("empty dataset has no class priors")
        hist = np.bincount(self.labels, minlength=NUM_CLASSES)
        return hist / hist.sum()


@dataclass
class UserShard:
    indices: np.ndarray  # positions into the parent dataset
    substituted: int = 0  # samples that had to come from a different class

    @property
    def size(self) -> int:
        return len(self.indices)


def _read_idx(path: str, expected_magic: int, expected_dims: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header = 4 * (1 + expected_dims)
    if len(data) < header:
        raise IdxFormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != expected_magic:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    dims = struct.unpack(f">{expected_dims}I", data[4:header])
    total = int(np.prod(dims)) if dims else 0
    payload = data[header:]
    if len(payload) != total:
        raise IdxFormatError(f"{path}: payload is {len(payload)} bytes, header promises {total}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Read an IDX image/label file pair into a dataset scaled to [0,1].

    Images: magic 0x00000803, dims (count, rows, cols), unsigned bytes
    row-major. Labels: magic 0x00000801, dims (count,), one byte each.
    Each byte maps to its float64 quotient by 255 rounded once to
    MODEL_DTYPE, through a 256-entry table.
    """
    raw_images = _read_idx(images_path, _IMAGES_MAGIC, 3)
    raw_labels = _read_idx(labels_path, _LABELS_MAGIC, 1)
    if len(raw_images) != len(raw_labels):
        raise IdxFormatError(
            f"count mismatch: {images_path} has {len(raw_images)} images, "
            f"{labels_path} has {len(raw_labels)} labels"
        )
    n = len(raw_labels)
    pixels = int(np.prod(raw_images.shape[1:])) if raw_images.ndim > 1 else 0
    scale = (np.arange(256) / 255.0).astype(MODEL_DTYPE)
    images = scale[raw_images.reshape(n, pixels)]
    return LabeledDataset(images=images, labels=raw_labels.astype(np.int64))


def training_subset(dataset: LabeledDataset, per_class: int) -> LabeledDataset:
    """First `per_class` samples of each class, in dataset order."""
    keep: list[np.ndarray] = []
    for c in range(NUM_CLASSES):
        idx = np.flatnonzero(dataset.labels == c)[:per_class]
        if len(idx) < per_class:
            raise ValueError(f"class {c} has only {len(idx)} samples, need {per_class}")
        keep.append(idx)
    order = np.sort(np.concatenate(keep))
    return LabeledDataset(images=dataset.images[order], labels=dataset.labels[order])


def synthetic_digits(
    train_per_class: int, test_per_class: int, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic MNIST-shaped stand-in dataset.

    Each class is a fixed random prototype in [0,1]^784. A sample blends
    its class prototype with a random confuser prototype (mixing weight
    uniform in [0, 0.5]) and adds Gaussian noise of scale 0.6, clipped
    back to [0,1]. The blending caps attainable accuracy below 1.0 so
    learning curves keep an MNIST-like plateau instead of saturating.
    Labels cycle 0..9 so any prefix stays balanced. Each value is
    computed in float64 and rounded once to MODEL_DTYPE: the images are
    built 64 rows at a time in a float64 scratch small enough to stay in
    cache, and each block is clipped straight into the MODEL_DTYPE rows.
    """
    rng = substream(seed, 101)
    protos = rng.random((NUM_CLASSES, _SYNTH_DIM))

    def make(per_class: int) -> LabeledDataset:
        n = per_class * NUM_CLASSES
        labels = np.arange(n, dtype=np.int64) % NUM_CLASSES
        confusers = rng.integers(0, NUM_CLASSES, size=n)
        lam = rng.uniform(0.0, _SYNTH_MIX_MAX, size=n)[:, None]
        images = np.empty((n, _SYNTH_DIM), dtype=MODEL_DTYPE)
        # (1 - lam) * protos[labels] + lam * protos[confusers] + _SYNTH_NOISE * N(0, 1),
        # built block by block in two float64 scratch arrays and clipped into
        # the result, which rounds once; the normals continue one stream, so
        # the blocks draw what one full-size call would
        scratch = np.empty((2, min(n, _SYNTH_BLOCK), _SYNTH_DIM))
        for start in range(0, n, _SYNTH_BLOCK):
            rows = slice(start, min(start + _SYNTH_BLOCK, n))
            mix = lam[rows]
            part, other = scratch[:, : len(mix)]
            # labels are in range; the default mode="raise" would buffer `out`
            np.take(protos, labels[rows], axis=0, out=part, mode="clip")
            part *= 1.0 - mix
            np.take(protos, confusers[rows], axis=0, out=other, mode="clip")
            other *= mix
            part += other
            rng.standard_normal(out=other)
            other *= _SYNTH_NOISE
            part += other
            np.clip(part, 0.0, 1.0, out=images[rows], casting="same_kind")
        return LabeledDataset(images=images, labels=labels)

    return make(train_per_class), make(test_per_class)


def zipf_sizes(total: int, num_users: int, eta: float) -> list[int]:
    """Integer per-user sizes proportional to rank^-eta, summing to total.

    Largest-remainder rounding, then a >=1 floor funded by the largest
    shards. eta = inf collapses to [total - (U-1), 1, ..., 1].
    """
    if num_users < 1:
        raise ValueError(f"num_users must be >= 1, got {num_users}")
    if total < num_users:
        raise ValueError(f"cannot give {num_users} users >= 1 sample from {total}")
    if eta < 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if math.isinf(eta):
        return [total - (num_users - 1)] + [1] * (num_users - 1)
    ranks = np.arange(1, num_users + 1, dtype=np.float64)
    weights = ranks**-eta
    raw = total * weights / weights.sum()
    sizes = np.floor(raw).astype(np.int64)
    remainder = total - int(sizes.sum())
    # ties on the fractional part go to the lower rank
    order = np.argsort(-(raw - sizes), kind="stable")
    sizes[order[:remainder]] += 1
    while (sizes < 1).any():
        needy = int(np.argmax(sizes < 1))
        donor = int(np.argmax(sizes))
        sizes[donor] -= 1
        sizes[needy] += 1
    return [int(s) for s in sizes]


def dirichlet_class_shares(
    theta: float, class_priors: np.ndarray, rng: np.random.Generator, num_users: int
) -> np.ndarray:
    """Class-composition simplex vectors of `num_users` users, one per row.

    Finite theta: normalized Gamma(theta*prior_n, 1) draws. theta = inf
    gives every user the priors exactly; theta = 0 a one-hot vector on a
    uniformly random class. Rows draw from `rng` in user order, as one
    call per user would: a user whose Gamma draws all underflow (tiny
    theta) takes the one-hot limit on a random class with a nonzero prior
    before the next user draws.
    """
    q = np.asarray(class_priors, dtype=np.float64)
    if q.ndim != 1 or (q < 0).any() or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("class_priors must be a simplex vector")
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if math.isinf(theta):
        return np.tile(q, (num_users, 1))
    shares = np.zeros((num_users, len(q)))
    if theta == 0.0:
        shares[np.arange(num_users), rng.integers(len(q), size=num_users)] = 1.0
        return shares
    start, block = 0, num_users
    while start < num_users:
        state = rng.bit_generator.state
        v = rng.gamma(theta * q, 1.0, size=(min(block, num_users - start), len(q)))
        v[:, q == 0.0] = 0.0
        s = v.sum(axis=1)
        dead = np.flatnonzero(s == 0.0)
        stop = len(v) if len(dead) == 0 else int(dead[0])
        shares[start : start + stop] = v[:stop] / s[:stop, None]
        if len(dead) == 0:
            start, block = start + stop, 2 * block
            continue
        if stop + 1 < len(v):
            # the block drew rows past the dead one too early: redraw up to it
            rng.bit_generator.state = state
            rng.gamma(theta * q, 1.0, size=(stop + 1, len(q)))
        # the dead user's class comes before the next user's draws, as one
        # call per user had it; the next block guesses the same spacing
        shares[start + stop, rng.choice(np.flatnonzero(q > 0))] = 1.0
        start, block = start + stop + 1, stop + 1
    return shares


def _class_quotas(sizes: np.ndarray, shares: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Largest-remainder split of each user's size across classes, one row per user.

    Remainder ties are broken by class id rotated by the user's offset;
    without the rotation a run of identical draws (the uniform limit) would
    round up the same classes for every user and exhaust their pools.
    Spacing the offsets evenly across users keeps the aggregate demand per
    class within one sample of the pool in the balanced case.
    """
    n = shares.shape[1]
    raw = sizes[:, None] * shares
    quotas = np.floor(raw).astype(np.int64)
    remainder = sizes - quotas.sum(axis=1)
    rotated = (np.arange(n) - offsets[:, None]) % n
    order = np.lexsort((rotated, -(raw - quotas)), axis=-1)
    # the first `remainder` classes of each row's order get one more sample
    quotas[np.arange(len(sizes))[:, None], order] += np.arange(n) < remainder[:, None]
    return quotas


def partition(
    dataset: LabeledDataset,
    num_users: int,
    zipf_eta: float = 0.0,
    dirichlet_theta: float = math.inf,
    seed: int = 0,
) -> list[UserShard]:
    """Split the whole dataset into per-user shards under both skew models.

    Sizes follow `zipf_sizes(count, num_users, zipf_eta)` and the users'
    classes `dirichlet_class_shares(dirichlet_theta, ...)` (inf = uniform
    limit, 0 = one-class limit); those two check the arguments.

    Deterministic given the dataset and the arguments. Users take their
    class quotas in user order, each from the front of what remains of
    that class. When a user's quota asks for more of a class than
    remains, the deficit spills to the globally most-abundant remaining
    class; the substitution count is kept on the shard
    (`UserShard.substituted`) and a run reports the total as
    `substituted_samples`. Only that bookkeeping runs user by user: the
    shares, the quotas and the indices are computed for all users at
    once, and each shard's indices come out in ascending order.
    """
    if dataset.count == 0:
        raise ValueError("cannot partition an empty dataset")
    rng = substream(seed, 11)
    sizes = np.array(zipf_sizes(dataset.count, num_users, zipf_eta), dtype=np.int64)
    shares = dirichlet_class_shares(dirichlet_theta, dataset.class_priors(), rng, num_users)
    offsets = np.arange(num_users) * NUM_CLASSES // num_users
    takes = _class_quotas(sizes, shares, offsets).tolist()

    pools = [np.flatnonzero(dataset.labels == c) for c in range(NUM_CLASSES)]
    remaining = [len(pool) for pool in pools]
    substituted = []
    for take in takes:  # turn each quota row into what the user takes
        deficit = 0
        for c, want in enumerate(take):
            if want > remaining[c]:
                deficit += want - remaining[c]
                take[c] = remaining[c]
            remaining[c] -= take[c]
        substituted.append(deficit)
        while deficit > 0:
            # most-abundant remaining class; ties to the lowest class id
            c = remaining.index(max(remaining))
            got = min(deficit, remaining[c])
            take[c] += got
            remaining[c] -= got
            deficit -= got

    # every row is taken: each class's pool goes to the users in user order,
    # so a stable sort of the rows by owner lists each shard's rows ascending
    owner = np.empty(dataset.count, dtype=np.int64)
    per_class = np.array(takes, dtype=np.int64).T
    for pool, counts in zip(pools, per_class):
        owner[pool] = np.repeat(np.arange(num_users), counts)
    rows = np.argsort(owner, kind="stable")
    bounds = np.cumsum(sizes).tolist()
    return [
        UserShard(rows[b - n : b], count)
        for b, n, count in zip(bounds, sizes.tolist(), substituted)
    ]
