"""Local model: one-hidden-layer sigmoid MLP with softmax cross-entropy.

Parameters live in a single flat vector laid out as
[W1 row-major, b1, W2 row-major, b2] so that uploading and aggregating
never need to know the layer structure. Batch order inside an update is
fixed by the caller's stream, making results bit-stable.

Every function computes in the dtype of the model and images it is given
and casts nothing. The simulator stores models, and the images they are
trained and scored on, as MODEL_DTYPE (float32); float64 models work the
same way.

Nothing here writes to a caller's model, images or labels. The only
arrays written in place are ones made here (each result, and the
activations of a pass) and the storage a caller of `local_update` may
lend: the gradient scratch vector `work`, and `first_step`, a slot of
`FirstSteps`, where updates that start from the same model on the same
first batch keep all of that step's gradient work but the first-layer
weight product. `FirstSteps` also states which such updates are worth
keeping finished instead. `one_step_mean` merges single-step updates
from one model as one step on their weighted mean gradient, with one
first-layer product over all their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import ScenarioConfig

MODEL_DTYPE = np.float32


@dataclass(frozen=True)
class MlpArch:
    in_dim: int = 784
    hidden: int = 50
    out_dim: int = 10

    def __post_init__(self) -> None:
        if min(self.in_dim, self.hidden, self.out_dim) < 1:
            raise ValueError("all layer sizes must be >= 1")

    @property
    def param_count(self) -> int:
        return self.in_dim * self.hidden + self.hidden + self.hidden * self.out_dim + self.out_dim


def _views(w: np.ndarray, arch: MlpArch):
    """Split the flat vector into (W1, b1, W2, b2) array views."""
    i, h, o = arch.in_dim, arch.hidden, arch.out_dim
    if w.shape != (arch.param_count,):
        raise ValueError(f"parameter vector has length {w.shape}, arch needs {arch.param_count}")
    n1 = i * h
    w1 = w[:n1].reshape(i, h)
    b1 = w[n1 : n1 + h]
    w2 = w[n1 + h : n1 + h + h * o].reshape(h, o)
    b2 = w[n1 + h + h * o :]
    return w1, b1, w2, b2


def init_params(seed: int, arch: MlpArch = MlpArch()) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, as MODEL_DTYPE.

    The draw is made in float64 and rounded once at the end.
    """
    rng = np.random.default_rng(seed)
    w = np.zeros(arch.param_count)
    w1, b1, w2, b2 = _views(w, arch)
    lim1 = np.sqrt(6.0 / (arch.in_dim + arch.hidden))
    lim2 = np.sqrt(6.0 / (arch.hidden + arch.out_dim))
    w1[:] = rng.uniform(-lim1, lim1, size=w1.shape)
    w2[:] = rng.uniform(-lim2, lim2, size=w2.shape)
    b1[:] = 0.0
    b2[:] = 0.0
    return w.astype(MODEL_DTYPE)


def _pass(layers, images: np.ndarray):
    """_forward on the (W1, b1, W2, b2) views; the caller ignores overflow."""
    w1, b1, w2, b2 = layers
    hidden = images @ w1
    hidden += b1
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)
    shifted = hidden @ w2
    shifted += b2
    shifted -= shifted.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    sums = probs.sum(axis=1, keepdims=True)
    probs /= sums
    return hidden, shifted, probs, sums


def _forward(w: np.ndarray, images: np.ndarray, arch: MlpArch):
    """(hidden, shifted logits, softmax probabilities, softmax row sums).

    The row sums are the softmax denominators, which the log-sum-exp of
    the loss reuses. All four arrays are new; the sigmoid and the softmax
    are computed in place in them. A pre-activation below about -88 in
    float32 (-709 in float64) overflows exp(-x) to inf, which is how the
    sigmoid saturates to exactly 0, so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return _pass(_views(w, arch), images)


def _mean_cross_entropy(shifted: np.ndarray, sums: np.ndarray, labels: np.ndarray) -> float:
    picked = shifted[np.arange(len(labels)), labels] - np.log(sums[:, 0])
    return -float(picked.mean())


def _backprop(layers, images: np.ndarray, labels: np.ndarray, grads):
    """Every part of the batch's gradient but the first-layer weights'.

    Writes the mean cross-entropy gradient of b1, W2 and b2 into those
    `grads` views and returns (d_hidden, shifted logits, softmax row
    sums), d_hidden being the gradient at the hidden pre-activations, one
    row per batch row. Only `grads` and arrays made here are written; the
    caller ignores overflow, as for `_forward`.
    """
    n = len(labels)
    _, _, w2, _ = layers
    _, gb1, g2, gb2 = grads
    hidden, shifted, d_logits, sums = _pass(layers, images)
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    _product(n)(hidden.T, d_logits, out=g2)
    d_logits.sum(axis=0, out=gb2)
    d_hidden = d_logits @ w2.T
    d_hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    d_hidden *= hidden
    d_hidden.sum(axis=0, out=gb1)
    return d_hidden, shifted, sums


def _product(rows: int):
    """The product for a transposed batch-sized operand.

    For a one-row batch, matmul sends the (dim, 1) transposed view, whose
    size-1 axis has a row-sized stride, through its slow non-BLAS loop;
    np.dot does not, and a product without a sum is exact either way.
    """
    return np.dot if rows == 1 else np.matmul


def _first_layer(images: np.ndarray, d_hidden: np.ndarray, g1: np.ndarray) -> None:
    """Write the first-layer weight gradient images.T @ d_hidden into g1."""
    _product(len(d_hidden))(images.T, d_hidden, out=g1)


def _gradient(
    layers, images: np.ndarray, labels: np.ndarray, grads
) -> tuple[np.ndarray, np.ndarray]:
    """Write the batch's mean cross-entropy gradient into the `grads` views.

    `layers` and `grads` are `_views` of the model and of the gradient
    vector. Returns the forward pass's shifted logits and softmax row
    sums, from which the loss follows.
    """
    d_hidden, shifted, sums = _backprop(layers, images, labels, grads)
    _first_layer(images, d_hidden, grads[0])
    return shifted, sums


def takes_one_step(rows: int, cfg: ScenarioConfig) -> bool:
    """Whether `local_update` under `cfg` takes a single SGD step on a shard of `rows` rows."""
    return rows <= cfg.batch_size and cfg.local_epochs == 1


class FirstSteps:
    """Storage for many updates' results from one start model, one slot each.

    Slot k belongs to a `local_update` under `cfg` on a shard of
    `sizes[k]` rows. `kept[k]` marks a slot that keeps the update's
    finished result: the update takes more than one SGD step (a shard
    larger than a batch, or more than one epoch) and the model is no
    larger than the shard (param_count <= rows * in_dim), so the kept
    results never take more bytes than the images they are trained on.
    Its owner stores that result with `keep`, read-only, in `uploads[k]`.

    Any other slot holds what the update's first step computes before its
    first-layer weight gradient: d_hidden (one row per row of the first
    batch; a kept slot has none) and the gradient of b1, W2 and b2, which
    sit after W1 in the flat layout. The first step to use the slot, lent
    to `local_update`, fills it; later ones read it and compute only
    images.T @ d_hidden, the same product from the same operands, so
    their bits are the same.

    A slot is only correct for MODEL_DTYPE updates that share a start
    model, shard, first batch and, for a kept one, training stream; the
    owner of the storage keeps it to those. Both first-step arrays are
    allocated once, uninitialized, for all slots.

    An update that takes a single SGD step may also be merged with
    others by `one_step_mean`, which fills or reads its slot through
    `backprop` and scales copies of what it holds, never the slot. So a
    slot holds the same bytes whichever path fills it, and a later
    `local_update` from the same model replays it bit for bit.
    """

    def __init__(self, sizes: list[int], cfg: ScenarioConfig, arch: MlpArch) -> None:
        self.kept = [
            not takes_one_step(n, cfg) and arch.param_count <= n * arch.in_dim for n in sizes
        ]
        rows = [0 if kept else min(n, cfg.batch_size) for n, kept in zip(sizes, self.kept)]
        self._bounds = list(accumulate(rows, initial=0))
        self._split = arch.in_dim * arch.hidden
        self.d_hidden = np.empty((self._bounds[-1], arch.hidden), MODEL_DTYPE)
        self.rest = np.empty((len(sizes), arch.param_count - self._split), MODEL_DTYPE)
        self.filled = [False] * len(sizes)
        self.uploads: dict[int, np.ndarray] = {}

    def keep(self, k: int, w: np.ndarray) -> np.ndarray:
        """w, slot k's update result; stored read-only in `uploads` if the slot is kept."""
        if self.kept[k]:
            w.flags.writeable = False
            self.uploads[k] = w
        return w

    def backprop(self, k: int, layers, images, labels, g: np.ndarray, grads) -> np.ndarray:
        """`_backprop` of slot k's first batch into g, whose views are `grads`.

        Returns the slot's d_hidden rows, which the caller must not write.
        """
        d_hidden = self.d_hidden[self._bounds[k] : self._bounds[k + 1]]
        rest = g[self._split :]
        if self.filled[k]:
            np.copyto(rest, self.rest[k])
        else:
            d_hidden[...] = _backprop(layers, images, labels, grads)[0]
            self.rest[k] = rest
            self.filled[k] = True
        return d_hidden

    def gradient(self, k: int, layers, images, labels, g: np.ndarray, grads) -> None:
        """`_gradient` of slot k's first batch into g, whose views are `grads`."""
        _first_layer(images, self.backprop(k, layers, images, labels, g, grads), grads[0])


def loss_and_gradient(
    w: np.ndarray, images: np.ndarray, labels: np.ndarray, arch: MlpArch = MlpArch()
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient in w's layout."""
    if len(labels) == 0:
        raise ValueError("empty batch")
    g = np.empty_like(w)
    with np.errstate(over="ignore"):
        shifted, sums = _gradient(_views(w, arch), images, labels, _views(g, arch))
    return _mean_cross_entropy(shifted, sums, labels), g


def local_update(
    w_in: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
    cfg: ScenarioConfig,
    rng: np.random.Generator | None,
    arch: MlpArch = MlpArch(),
    *,
    work: np.ndarray | None = None,
    first_step: tuple[FirstSteps, int] | None = None,
) -> np.ndarray:
    """cfg.local_epochs passes of mini-batch SGD starting from w_in.

    `cfg` supplies learning_rate, local_epochs and batch_size; a
    `ScenarioConfig` has checked their ranges, so they are not checked
    again here.

    With batch_size >= shard size one epoch is exactly one full-batch
    step w_in - lr * grad(w_in); the shuffle is skipped there so the
    single-step form holds bit-for-bit. `rng` is read only when
    batch_size < shard size, to shuffle each epoch, and may be None
    otherwise.

    `work`, a vector of w_in's length and dtype, holds each step's scaled
    gradient; a caller that trains many models passes the same one every
    time, so that no step allocates a parameter-sized array. Its contents
    on return are undefined. Without it one is allocated per call. The
    result is always a fresh array, never `work` or `w_in`.

    `first_step`, a (FirstSteps, slot) pair whose slot is not kept, is
    lent storage for the first step's gradient, which it fills or replays
    (see FirstSteps); the result is the same with or without it.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("empty shard")
    g = np.empty_like(w_in) if work is None else work
    w = np.empty_like(w_in)
    grads, layers = _views(g, arch), _views(w, arch)
    src, src_layers = w_in, _views(w_in, arch)  # the first step reads w_in, later ones w
    size = cfg.batch_size
    with np.errstate(over="ignore"):  # see _forward
        for _ in range(cfg.local_epochs):
            if size >= n:
                batches = [(images, labels)]
            else:
                order = rng.permutation(n)
                slices = (order[start : start + size] for start in range(0, n, size))
                batches = ((images[idx], labels[idx]) for idx in slices)
            for batch_images, batch_labels in batches:
                if first_step is None:
                    _gradient(src_layers, batch_images, batch_labels, grads)
                else:
                    store, slot = first_step
                    store.gradient(slot, src_layers, batch_images, batch_labels, g, grads)
                    first_step = None
                np.multiply(g, cfg.learning_rate, out=g)
                np.subtract(src, g, out=w)
                src, src_layers = w, layers
    return w


def one_step_mean(
    w_in: np.ndarray,
    images: np.ndarray,
    shards: Sequence[tuple[int, int, np.ndarray, float]],
    learning_rate: float,
    arch: MlpArch = MlpArch(),
    *,
    work: np.ndarray | None = None,
    first_steps: FirstSteps | None = None,
) -> np.ndarray:
    """The weighted mean of one-step updates from w_in, taken as one step.

    Each shard is (slot, start, labels, weight): its rows are
    images[start : start + len(labels)], no two shards share a row, there
    is at least one shard, and the weights sum to 1. Each shard's update
    is one full-batch SGD step from w_in (see `takes_one_step`), so their
    weighted mean is one step on the weighted mean gradient (FedSGD):

        sum_u a_u * (w_in - lr * g_u) = w_in - lr * sum_u a_u * g_u.

    Each shard still runs its own forward and backward pass up to
    d_hidden and the gradient of b1, W2 and b2. Those are scaled by
    lr * a_u and summed: the d_hidden rows into one array aligned with
    the rows from the first shard's first to the last shard's last (zero
    in rows of no shard), so that the first-layer weight gradient is a
    single product of those rows, transposed, with that array. The result
    agrees with the mean of the shards' `local_update`s up to float
    rounding.

    With `first_steps`, each shard's backward pass goes through its
    `slot` there (see FirstSteps.backprop), which it fills or replays;
    the slot must not be kept. `work` is a gradient scratch vector, as
    for `local_update`.
    """
    lo = min(start for _, start, _, _ in shards)
    hi = max(start + len(labels) for _, start, labels, _ in shards)
    split = arch.in_dim * arch.hidden
    g = np.empty_like(w_in) if work is None else work
    grads, layers = _views(g, arch), _views(w_in, arch)
    d_hidden = np.zeros((hi - lo, arch.hidden), w_in.dtype)
    rest = np.zeros_like(g[split:])
    with np.errstate(over="ignore"):  # see _forward
        for slot, start, labels, weight in shards:
            rows = slice(start, start + len(labels))
            if first_steps is None:
                d = _backprop(layers, images[rows], labels, grads)[0]
            else:
                d = first_steps.backprop(slot, layers, images[rows], labels, g, grads)
            scale = learning_rate * weight
            np.multiply(d, scale, out=d_hidden[start - lo : start - lo + len(labels)])
            rest += np.multiply(g[split:], scale, out=g[split:])
    g[split:] = rest
    _first_layer(images[lo:hi], d_hidden, grads[0])
    return np.subtract(w_in, g)


def evaluate(
    w: np.ndarray, images: np.ndarray, labels: np.ndarray, arch: MlpArch = MlpArch()
) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) on a test set; argmax ties go low."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty test set")
    _, shifted, probs, sums = _forward(w, images, arch)
    loss = _mean_cross_entropy(shifted, sums, labels)
    accuracy = float((probs.argmax(axis=1) == labels).mean())
    return accuracy, loss
