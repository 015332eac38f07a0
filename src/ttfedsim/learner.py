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
keeping finished instead.

The backward pass, `_backprop`, takes a stack of same-size batches and
gives each batch the bits it gets alone; `local_update` runs it on one
batch at a time. `one_step_mean` merges single-step updates from one
model as one step on their weighted mean gradient, with one stacked
pass per shard size and one first-layer product over all their rows.
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


def _mean_cross_entropy(shifted: np.ndarray, sums: np.ndarray, labels: np.ndarray) -> float:
    picked = shifted[np.arange(len(labels)), labels] - np.log(sums[:, 0])
    return -float(picked.mean())


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


def _gradient(layers, images: np.ndarray, labels: np.ndarray, g: np.ndarray):
    """Write the batch's mean cross-entropy gradient into g, in the flat layout.

    `layers` are `_views` of the model. Returns the forward pass's shifted
    logits and softmax row sums, from which the loss follows.
    """
    w1 = layers[0]
    d_hidden, shifted, sums = _backprop(layers, images @ w1, labels, g[w1.size :])
    _first_layer(images, d_hidden, g[: w1.size].reshape(w1.shape))
    return shifted, sums


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices starts[j] .. starts[j] + sizes[j] - 1, range after range."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)


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
    sit after W1 in the flat layout. The first update to use a slot fills
    it and marks it `filled`: a `local_update` lent the slot runs its
    first batch's `_backprop` into it, and `one_step_mean` `fill`s every
    unfilled slot of a merge from one stacked `_backprop` per shard size,
    which gives each batch the bits it gets alone. Later updates read the
    slot and compute only images.T @ d_hidden, the same product from the
    same operands, so their bits are the same whichever path filled it.

    A slot is only correct for MODEL_DTYPE updates that share a start
    model, shard, first batch and, for a kept one, training stream; the
    owner of the storage keeps it to those. Both first-step arrays are
    allocated once, uninitialized, for all slots.
    """

    def __init__(self, sizes: Sequence[int], cfg: ScenarioConfig, arch: MlpArch) -> None:
        self.kept = [
            not takes_one_step(n, cfg) and arch.param_count <= n * arch.in_dim for n in sizes
        ]
        rows = [0 if kept else min(n, cfg.batch_size) for n, kept in zip(sizes, self.kept)]
        self._bounds = np.cumsum([0, *rows])
        self.d_hidden = np.empty((self._bounds[-1], arch.hidden), MODEL_DTYPE)
        rest = arch.param_count - arch.in_dim * arch.hidden
        self.rest = np.empty((len(sizes), rest), MODEL_DTYPE)
        self.filled = np.zeros(len(sizes), dtype=bool)
        self.uploads: dict[int, np.ndarray] = {}

    def keep(self, k: int, w: np.ndarray) -> np.ndarray:
        """w, slot k's update result; stored read-only in `uploads` if the slot is kept."""
        if self.kept[k]:
            w.flags.writeable = False
            self.uploads[k] = w
        return w

    def rows(self, slots: np.ndarray) -> np.ndarray:
        """The indices of the `slots`' d_hidden rows, slot after slot."""
        return _ranges(self._bounds[slots], self._bounds[slots + 1] - self._bounds[slots])

    def fill(self, slots: np.ndarray, d_hidden: np.ndarray, rest: np.ndarray) -> None:
        """Store a stacked `_backprop` of the `slots`' first batches: its d_hidden and `rest`."""
        self.d_hidden[self.rows(slots)] = d_hidden.reshape(-1, d_hidden.shape[-1])
        self.rest[slots] = rest
        self.filled[slots] = True

    def gradient(self, k: int, layers, images, labels, g: np.ndarray) -> None:
        """`_gradient` of slot k's first batch into g, filling the slot first if it is not."""
        w1 = layers[0]
        d_hidden = self.d_hidden[self._bounds[k] : self._bounds[k + 1]]
        if not self.filled[k]:
            d_hidden[...] = _backprop(layers, images @ w1, labels, self.rest[k])[0]
            self.filled[k] = True
        g[w1.size :] = self.rest[k]
        _first_layer(images, d_hidden, g[: w1.size].reshape(w1.shape))


def loss_and_gradient(
    w: np.ndarray, images: np.ndarray, labels: np.ndarray, arch: MlpArch = MlpArch()
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient in w's layout."""
    if len(labels) == 0:
        raise ValueError("empty batch")
    g = np.empty_like(w)
    with np.errstate(over="ignore"):
        shifted, sums = _gradient(_views(w, arch), images, labels, g)
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
    layers = _views(w, arch)
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
                    _gradient(src_layers, batch_images, batch_labels, g)
                else:
                    store, slot = first_step
                    store.gradient(slot, src_layers, batch_images, batch_labels, g)
                    first_step = None
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
    work: np.ndarray | None = None,
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
    size, each shard's first-layer product written straight into the
    stack (one product over a view of the rows when the size's shards
    are adjacent). Each shard's d_hidden rows, times lr * a_j in w_in's
    dtype, go into one array aligned with the rows from the lowest shard
    row to the highest (zero in rows of no shard), so that the
    first-layer weight gradient is a single product of those rows,
    transposed, with that array; the b1, W2 and b2 gradient is the sum of
    the shards' gradients times lr * a_j, in shard order. The result
    agrees with the mean of the shards' `local_update`s up to float
    rounding.

    `first_steps`, a (FirstSteps, slots) pair, lends shard j the store's
    slot slots[j], which must not be kept: a filled slot is read instead
    of running the shard's pass, and the others are filled from it (see
    FirstSteps). `work` is a gradient scratch vector, as for
    `local_update`.
    """
    starts, sizes = np.asarray(starts), np.asarray(sizes)
    layers = _views(w_in, arch)
    w1 = layers[0]
    scale = (learning_rate * (sizes / sizes.sum())).astype(w_in.dtype)
    lo, hi = starts.min(), (starts + sizes).max()
    d_rows = np.zeros((hi - lo, arch.hidden), w_in.dtype)
    rest = np.empty((len(sizes), arch.param_count - w1.size), w_in.dtype)
    todo = np.arange(len(sizes))
    if first_steps is not None:
        store, slots = first_steps
        slots = np.asarray(slots)
        done = store.filled[slots]
        read = np.flatnonzero(done)
        scaled = store.d_hidden[store.rows(slots[read])]
        scaled *= np.repeat(scale[read], sizes[read])[:, None]
        d_rows[_ranges(starts[read] - lo, sizes[read])] = scaled
        rest[read] = store.rest[slots[read]]
        todo = todo[~done]
    todo = todo[np.lexsort((starts[todo], sizes[todo]))]  # by size, then by first row
    edges = np.flatnonzero(np.diff(sizes[todo], prepend=0, append=0)).tolist()
    with np.errstate(over="ignore"):  # see _forward
        for group in (todo[a:b] for a, b in zip(edges, edges[1:])):
            n, first = int(sizes[group[0]]), starts[group]
            hidden = np.empty((len(group), n, arch.hidden), w_in.dtype)
            if (np.diff(first) == n).all():
                batches = images[first[0] : first[0] + len(group) * n]
                np.matmul(batches.reshape(len(group), n, arch.in_dim), w1, out=hidden)
            else:
                for j, start in enumerate(first.tolist()):
                    np.matmul(images[start : start + n], w1, out=hidden[j])
            group_rest = np.empty((len(group), rest.shape[1]), w_in.dtype)
            rows = first[:, None] + np.arange(n)
            d_hidden = _backprop(layers, hidden, labels[rows], group_rest)[0]
            if first_steps is not None:
                store.fill(slots[group], d_hidden, group_rest)
            rest[group] = group_rest
            d_hidden *= scale[group][:, None, None]
            d_rows[rows - lo] = d_hidden
    g = np.empty_like(w_in) if work is None else work
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
    loss = _mean_cross_entropy(shifted, sums, labels)
    accuracy = float((probs.argmax(axis=1) == labels).mean())
    return accuracy, loss
