"""Per-batch references for the learner's passes.

`backprop` is the backward pass of one batch, written out step by step,
and `loss_and_gradient` the batch's loss and whole gradient on top of
it. `one_step_mean` is the merge of one-step updates as one forward and
backward pass per shard, whose scaled d_hidden rows and b1/W2/b2
gradients are added shard after shard. `learner._backprop` runs a stack
of same-size batches and `learner.one_step_mean` one stacked pass per
shard size; the tests hold both to these references' bits.
"""

import numpy as np

from ttfedsim import learner


def backprop(layers, images, labels, grads):
    """Every part of the batch's gradient but the first-layer weights'.

    Writes the mean cross-entropy gradient of b1, W2 and b2 into those
    `grads` views and returns (d_hidden, shifted logits, softmax row sums).
    The caller ignores overflow.
    """
    n = len(labels)
    w1, b1, w2, b2 = layers
    _, gb1, g2, gb2 = grads
    hidden = images @ w1
    hidden += b1
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)
    shifted = hidden @ w2
    shifted += b2
    shifted -= shifted.max(axis=1, keepdims=True)
    d_logits = np.exp(shifted)
    sums = d_logits.sum(axis=1, keepdims=True)
    d_logits /= sums
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    (np.dot if n == 1 else np.matmul)(hidden.T, d_logits, out=g2)
    d_logits.sum(axis=0, out=gb2)
    d_hidden = d_logits @ w2.T
    d_hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    d_hidden *= hidden
    d_hidden.sum(axis=0, out=gb1)
    return d_hidden, shifted, sums


def loss_and_gradient(w, images, labels, arch=learner.MlpArch()):
    """Mean cross-entropy over the batch and its gradient in w's layout."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty batch")
    g = np.empty_like(w)
    grads = learner._views(g, arch)
    with np.errstate(over="ignore"):
        d_hidden, shifted, sums = backprop(learner._views(w, arch), images, labels, grads)
    learner._first_layer(images, d_hidden, grads[0])
    picked = shifted[np.arange(n), labels] - np.log(sums[:, 0])
    return -float(picked.mean()), g


def one_step_mean(w_in, images, labels, starts, sizes, learning_rate, arch):
    """`learner.one_step_mean` with one `backprop` per shard, in shard order."""
    starts, sizes = [int(s) for s in starts], [int(n) for n in sizes]
    lo = min(starts)
    hi = max(start + n for start, n in zip(starts, sizes))
    total = float(sum(sizes))
    split = arch.in_dim * arch.hidden
    g = np.empty_like(w_in)
    grads, layers = learner._views(g, arch), learner._views(w_in, arch)
    d_hidden = np.zeros((hi - lo, arch.hidden), w_in.dtype)
    rest = np.zeros_like(g[split:])
    with np.errstate(over="ignore"):
        for start, n in zip(starts, sizes):
            rows = slice(start, start + n)
            d = backprop(layers, images[rows], labels[rows], grads)[0]
            scale = learning_rate * (n / total)
            np.multiply(d, scale, out=d_hidden[start - lo : start - lo + n])
            rest += np.multiply(g[split:], scale, out=g[split:])
    g[split:] = rest
    learner._first_layer(images[lo:hi], d_hidden, grads[0])
    return np.subtract(w_in, g)
