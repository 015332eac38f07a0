"""Local model: one-hidden-layer sigmoid MLP with softmax cross-entropy.

Parameters live in a single flat vector laid out as
[W1 row-major, b1, W2 row-major, b2] so that uploading and aggregating
never need to know the layer structure. Batch order inside an update is
fixed by the caller's stream, making results bit-stable.

Every function computes in the dtype of the model and images it is given
and casts nothing. The simulator stores models, and the images they are
trained and scored on, as MODEL_DTYPE (float32); float64 models work the
same way.

Nothing here writes to a caller's model, images or labels; the only
arrays written in place are ones made here (each result, the activations
of a pass, and a `FirstSteps` store's slots).

The backward pass, `_backprop`, takes a stack of same-size batches and
gives each batch the bits it gets alone; `local_update` runs it on one
batch at a time. Single-step updates from one model run as one stacked
pass per shard size (`_one_step_passes`): `FirstSteps` stores that pass
for many updates from the same start model, and `one_step_mean` merges
such updates as one step on their weighted mean gradient, with one
first-layer product over all their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _sigmoid(x: np.ndarray) -> None:
    """The logistic sigmoid of x, in place; the caller ignores overflow (see _forward)."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


def _forward(w: np.ndarray, images: np.ndarray, arch: MlpArch):
    """(hidden, shifted logits, softmax probabilities, softmax row sums).

    The row sums are the softmax denominators, which the log-sum-exp of
    the loss reuses. All four arrays are new; the sigmoid and the softmax
    are computed in place in them. A pre-activation below about -88 in
    float32 (-709 in float64) overflows exp(-x) to inf, which is how the
    sigmoid saturates to exactly 0, so that overflow is not reported.

    The row max that shifts the logits is taken one logit column at a
    time: max is exact, so it is the max along each row, and on a test
    set's thousands of rows one np.maximum per column is about ten times
    faster than a reduction along each row's few columns.
    """
    w1, b1, w2, b2 = _views(w, arch)
    with np.errstate(over="ignore"):
        hidden = images @ w1
        hidden += b1
        _sigmoid(hidden)
        shifted = hidden @ w2
        shifted += b2
        top = shifted[:, 0].copy()
        for column in shifted.T[1:]:
            np.maximum(top, column, out=top)
        shifted -= top[:, None]
        probs = np.exp(shifted)
        sums = probs.sum(axis=1, keepdims=True)
        probs /= sums
    return hidden, shifted, probs, sums


def _backprop(layers, hidden: np.ndarray, labels: np.ndarray, rest: np.ndarray):
    """Every part of a batch's gradient, or a stack's, but the first-layer weights'.

    `layers` are the (W1, b1, W2, b2) views of the model. `hidden` holds
    the first-layer product images @ W1 of one batch, (n, hidden), or of
    a stack of k batches of the same size, (k, n, hidden); `labels` has
    its shape but the last axis. Writes each batch's mean cross-entropy
    gradient of b1, W2 and b2, which follow W1 in the flat layout, into
    `rest`, a vector or one row per batch, and returns (d_hidden, shifted
    logits, softmax row sums) in `hidden`'s shape; d_hidden is the
    gradient at the hidden pre-activations, one row per batch row.

    Every product of a stack is a stacked matmul, which makes for each
    batch the call it makes for that batch alone, and every elementwise
    op and reduction runs along each batch's own rows. So each batch's
    results have the bits it gets alone. `hidden` is overwritten with
    1 - sigmoid; only it, `rest` and arrays made here are written. The
    caller ignores overflow, as for `_forward`.
    """
    _, b1, w2, b2 = layers
    *stack, n, h = hidden.shape
    o = len(b2)
    hidden += b1
    _sigmoid(hidden)
    shifted = hidden @ w2
    shifted += b2
    shifted -= shifted.max(axis=-1, keepdims=True)
    d_logits = np.exp(shifted)
    sums = d_logits.sum(axis=-1, keepdims=True)
    d_logits /= sums
    d_logits.reshape(-1, o)[np.arange(labels.size), labels.ravel()] -= 1.0
    d_logits /= n
    # a one-row batch's product is an exact outer product, which matmul
    # computes without BLAS, with the bits np.dot gives it
    g2 = rest[..., h : h + h * o].reshape(*stack, h, o)
    np.matmul(hidden.swapaxes(-1, -2), d_logits, out=g2)
    d_logits.sum(axis=-2, out=rest[..., h + h * o :])
    d_hidden = d_logits @ w2.T
    d_hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    d_hidden *= hidden
    d_hidden.sum(axis=-2, out=rest[..., :h])
    return d_hidden, shifted, sums


def _first_layer(images: np.ndarray, d_hidden: np.ndarray, g1: np.ndarray) -> None:
    """Write the first-layer weight gradient images.T @ d_hidden into g1.

    For a one-row batch, matmul sends the (dim, 1) transposed view, whose
    size-1 axis has a row-sized stride, through its slow non-BLAS loop;
    np.dot does not, and a product without a sum is exact either way.
    """
    (np.dot if len(d_hidden) == 1 else np.matmul)(images.T, d_hidden, out=g1)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices starts[j] .. starts[j] + sizes[j] - 1, range after range."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)


def _one_step_passes(layers, images: np.ndarray, labels: np.ndarray, starts, sizes):
    """Each shard's full-batch `_backprop` from the model, as one stacked pass per shard size.

    Shard j is rows starts[j] : starts[j] + sizes[j] of `images` and of
    `labels`. For each size in turn, yields (shards, rows, d_hidden, rest):
    the indices j of that size's shards, by first row; their rows of
    `images`, one row of indices per shard; their d_hidden, (shards,
    size, hidden); and their gradients of b1, W2 and b2, one row per
    shard. Each shard's first-layer product is written straight into the
    stack, as one product over a view of the rows when the size's shards
    are adjacent. The caller ignores overflow, as for `_forward`.
    """
    w1 = layers[0]
    in_dim, hidden = w1.shape
    width = sum(part.size for part in layers[1:])
    order = np.lexsort((starts, sizes))  # by size, then by first row
    edges = np.flatnonzero(np.diff(sizes[order], prepend=0, append=0)).tolist()
    for group in (order[a:b] for a, b in zip(edges, edges[1:])):
        n, first = int(sizes[group[0]]), starts[group]
        stack = np.empty((len(group), n, hidden), w1.dtype)
        if (np.diff(first) == n).all():
            batches = images[first[0] : first[0] + len(group) * n]
            np.matmul(batches.reshape(len(group), n, in_dim), w1, out=stack)
        else:
            for j, start in enumerate(first.tolist()):
                np.matmul(images[start : start + n], w1, out=stack[j])
        rest = np.empty((len(group), width), w1.dtype)
        rows = first[:, None] + np.arange(n)
        yield group, rows, _backprop(layers, stack, labels[rows], rest)[0], rest


def takes_one_step(rows: int, cfg: ScenarioConfig) -> bool:
    """Whether `local_update` under `cfg` takes a single SGD step on a shard of `rows` rows."""
    return rows <= cfg.batch_size and cfg.local_epochs == 1


class FirstSteps:
    """Many users' updates from one start model, each computed at most once.

    User k's update is a `local_update` from `w_in` on its shard, rows
    starts[k] : starts[k] + sizes[k] of `images` and of `labels`, and
    `one_step[k]` says whether it takes a single SGD step (see
    `takes_one_step`).

    Every one-step update's step is run when the store is made, as one
    stacked `_backprop` per shard size (`_one_step_passes`), which gives
    each shard the bits it gets alone. The store keeps what that step
    computes before its first-layer weight gradient: d_hidden, one row per
    shard row, and the gradient of b1, W2 and b2, which sit after W1 in
    the flat layout, in `rest[k]`. `replay(k, learning_rate)` finishes
    user k's update from them and `one_step_mean` merges several, each
    with the same product from the same operands as a fresh pass.

    `kept[k]` marks a multi-step update (a shard larger than a batch, or
    more than one epoch) whose finished result is kept: the model is no
    larger than the shard (param_count <= rows * in_dim), so the kept
    results never take more bytes than the images they are trained on.
    Its owner trains it and stores it with `keep`, read-only, in
    `uploads[k]`. Nothing of any other multi-step update is stored.

    A store is only correct for updates that share its start model,
    shards and, for a kept one, training stream; the owner keeps it to
    those.
    """

    def __init__(
        self,
        w_in: np.ndarray,
        images: np.ndarray,
        labels: np.ndarray,
        starts: np.ndarray,
        sizes: Sequence[int],
        one_step: Sequence[bool],
        arch: MlpArch,
    ) -> None:
        starts, sizes = np.asarray(starts), np.asarray(sizes)
        one_step = np.asarray(one_step, dtype=bool)
        self.kept = (~one_step & (arch.param_count <= sizes * arch.in_dim)).tolist()
        self.uploads: dict[int, np.ndarray] = {}
        self._w_in, self._images, self._starts, self._arch = w_in, images, starts, arch
        self._bounds = np.concatenate([[0], np.cumsum(np.where(one_step, sizes, 0))])
        self.d_hidden = np.empty((self._bounds[-1], arch.hidden), w_in.dtype)
        layers = _views(w_in, arch)
        self.rest = np.empty((len(sizes), arch.param_count - layers[0].size), w_in.dtype)
        one = np.flatnonzero(one_step)
        with np.errstate(over="ignore"):  # see _forward
            passes = _one_step_passes(layers, images, labels, starts[one], sizes[one])
            for group, _, d_hidden, rest in passes:
                self.d_hidden[self.rows(one[group])] = d_hidden.reshape(-1, arch.hidden)
                self.rest[one[group]] = rest

    def keep(self, k: int, w: np.ndarray) -> np.ndarray:
        """w, user k's update result; stored read-only in `uploads` if it is kept."""
        if self.kept[k]:
            w.flags.writeable = False
            self.uploads[k] = w
        return w

    def rows(self, slots: np.ndarray) -> np.ndarray:
        """The indices of the one-step `slots`' d_hidden rows, slot after slot."""
        return _ranges(self._bounds[slots], self._bounds[slots + 1] - self._bounds[slots])

    def replay(self, k: int, learning_rate: float) -> np.ndarray:
        """One-step user k's update, finished as `local_update` finishes it, with its bits."""
        a, b = self._bounds[k], self._bounds[k + 1]
        start = self._starts[k]
        g = np.empty_like(self._w_in)
        w1_grad = _views(g, self._arch)[0]
        g[w1_grad.size :] = self.rest[k]
        _first_layer(self._images[start : start + b - a], self.d_hidden[a:b], w1_grad)
        g *= learning_rate
        return np.subtract(self._w_in, g)


def local_update(
    w_in: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
    cfg: ScenarioConfig,
    rng: np.random.Generator | None,
    arch: MlpArch = MlpArch(),
) -> np.ndarray:
    """cfg.local_epochs passes of mini-batch SGD starting from w_in.

    `cfg` supplies learning_rate, local_epochs and batch_size; a
    `ScenarioConfig` has checked their ranges, so they are not checked
    again here.

    With batch_size >= shard size one epoch is exactly one full-batch
    step w_in - lr * grad(w_in); the shuffle is skipped there so the
    single-step form holds bit-for-bit. `rng` is read only when
    batch_size < shard size, to shuffle each epoch, and may be None
    otherwise. The result is always a fresh array, never `w_in`.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("empty shard")
    g = np.empty_like(w_in)  # each step's gradient, in the flat layout, then scaled by lr
    w = np.empty_like(w_in)
    layers = _views(w, arch)
    src, src_layers = w_in, _views(w_in, arch)  # the first step reads w_in, later ones w
    split = arch.in_dim * arch.hidden
    w1_grad = g[:split].reshape(arch.in_dim, arch.hidden)
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
                hidden = batch_images @ src_layers[0]
                d_hidden = _backprop(src_layers, hidden, batch_labels, g[split:])[0]
                _first_layer(batch_images, d_hidden, w1_grad)
                np.multiply(g, cfg.learning_rate, out=g)
                np.subtract(src, g, out=w)
                src, src_layers = w, layers
    return w


def one_step_mean(
    w_in: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    learning_rate: float,
    arch: MlpArch = MlpArch(),
    *,
    first_steps: tuple[FirstSteps, np.ndarray] | None = None,
) -> np.ndarray:
    """The size-weighted mean of one-step updates from w_in, taken as one step.

    Shard j is rows starts[j] : starts[j] + sizes[j] of `images` and of
    `labels`; there is at least one shard and no two share a row. Each
    shard's update is one full-batch SGD step from w_in (see
    `takes_one_step`), so their mean under weights a_j = sizes[j] /
    sum(sizes) is one step on the weighted mean gradient (FedSGD):

        sum_j a_j * (w_in - lr * g_j) = w_in - lr * sum_j a_j * g_j.

    The shards' forward and backward passes up to d_hidden and the
    gradient of b1, W2 and b2 run as one stacked `_backprop` per shard
    size (`_one_step_passes`). Each shard's d_hidden rows, times lr * a_j
    in w_in's dtype, go into one array aligned with the rows from the
    lowest shard row to the highest (zero in rows of no shard), so that
    the first-layer weight gradient is a single product of those rows,
    transposed, with that array; the b1, W2 and b2 gradient is the sum of
    the shards' gradients times lr * a_j, in shard order. The result
    agrees with the mean of the shards' `local_update`s up to float
    rounding.

    `first_steps`, a (FirstSteps, slots) pair of a store made from w_in,
    `images` and `labels`, in which shard j is one-step slot slots[j],
    reads every shard's pass from the store instead of running it, with
    the same bits.
    """
    starts, sizes = np.asarray(starts), np.asarray(sizes)
    layers = _views(w_in, arch)
    w1 = layers[0]
    scale = (learning_rate * (sizes / sizes.sum())).astype(w_in.dtype)
    lo, hi = starts.min(), (starts + sizes).max()
    d_rows = np.zeros((hi - lo, arch.hidden), w_in.dtype)
    if first_steps is None:
        rest = np.empty((len(sizes), arch.param_count - w1.size), w_in.dtype)
        passes = _one_step_passes(layers, images, labels, starts, sizes)
        with np.errstate(over="ignore"):  # see _forward
            for group, rows, d_hidden, group_rest in passes:
                rest[group] = group_rest
                d_hidden *= scale[group][:, None, None]
                d_rows[rows - lo] = d_hidden
    else:
        store, slots = first_steps
        scaled = store.d_hidden[store.rows(np.asarray(slots))]
        scaled *= np.repeat(scale, sizes)[:, None]
        d_rows[_ranges(starts - lo, sizes)] = scaled
        rest = store.rest[slots]
    g = np.empty_like(w_in)
    rest *= scale[:, None]
    rest.sum(axis=0, out=g[w1.size :])
    _first_layer(images[lo:hi], d_rows, g[: w1.size].reshape(w1.shape))
    return np.subtract(w_in, g)


def evaluate(
    w: np.ndarray, images: np.ndarray, labels: np.ndarray, arch: MlpArch = MlpArch()
) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) on a test set; argmax ties go low."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty test set")
    _, shifted, probs, sums = _forward(w, images, arch)
    picked = shifted[np.arange(n), labels] - np.log(sums[:, 0])
    accuracy = float((probs.argmax(axis=1) == labels).mean())
    return accuracy, -float(picked.mean())
