"""Local model: one-hidden-layer sigmoid MLP with softmax cross-entropy.

Parameters live in a single flat float64 vector laid out as
[W1 row-major, b1, W2 row-major, b2] so that uploading and aggregating
never need to know the layer structure. All functions here are pure;
batch order inside an update is fixed by the caller's stream, making
results bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    local_epochs: int = 1
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


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
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    w = np.zeros(arch.param_count)
    w1, b1, w2, b2 = _views(w, arch)
    lim1 = np.sqrt(6.0 / (arch.in_dim + arch.hidden))
    lim2 = np.sqrt(6.0 / (arch.hidden + arch.out_dim))
    w1[:] = rng.uniform(-lim1, lim1, size=w1.shape)
    w2[:] = rng.uniform(-lim2, lim2, size=w2.shape)
    b1[:] = 0.0
    b2[:] = 0.0
    return w


def _forward(w: np.ndarray, images: np.ndarray, arch: MlpArch):
    w1, b1, w2, b2 = _views(w, arch)
    hidden = 1.0 / (1.0 + np.exp(-(images @ w1 + b1)))
    logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return hidden, shifted, probs


def class_probabilities(w: np.ndarray, images: np.ndarray, arch: MlpArch = MlpArch()) -> np.ndarray:
    """Per-sample softmax class probabilities, rows summing to 1."""
    return _forward(w, images, arch)[2]


def loss_and_gradient(
    w: np.ndarray, images: np.ndarray, labels: np.ndarray, arch: MlpArch = MlpArch()
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient in w's layout."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty batch")
    w1, b1, w2, b2 = _views(w, arch)
    hidden, shifted, probs = _forward(w, images, arch)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float(log_probs[np.arange(n), labels].mean())

    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    g = np.empty_like(w)
    g1, gb1, g2, gb2 = _views(g, arch)
    g2[:] = hidden.T @ d_logits
    gb2[:] = d_logits.sum(axis=0)
    d_hidden = (d_logits @ w2.T) * hidden * (1.0 - hidden)
    g1[:] = images.T @ d_hidden
    gb1[:] = d_hidden.sum(axis=0)
    return loss, g


def local_update(
    w_in: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    arch: MlpArch = MlpArch(),
) -> np.ndarray:
    """cfg.local_epochs passes of mini-batch SGD starting from w_in.

    With batch_size >= shard size one epoch is exactly one full-batch
    step w_in - lr * grad(w_in); the shuffle is skipped there so the
    single-step form holds bit-for-bit.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("empty shard")
    w = w_in.copy()
    full_batch = cfg.batch_size >= n
    for _ in range(cfg.local_epochs):
        order = np.arange(n) if full_batch else rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grad = loss_and_gradient(w, images[idx], labels[idx], arch)
            w -= cfg.learning_rate * grad
    return w


def evaluate(
    w: np.ndarray, images: np.ndarray, labels: np.ndarray, arch: MlpArch = MlpArch()
) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) on a test set; argmax ties go low."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty test set")
    _, shifted, probs = _forward(w, images, arch)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float(log_probs[np.arange(n), labels].mean())
    accuracy = float((probs.argmax(axis=1) == labels).mean())
    return accuracy, loss
