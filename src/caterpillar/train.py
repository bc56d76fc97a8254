"""Desk-scale training: AdamW, warmup + cosine schedule, smoothed CE.

The loop is deterministic given the seed: shuffling comes from the package
RNG, shards are visited in a fixed order, and history rows are appended
every step.  The logged accuracy is the training-batch top-1 from the same
forward pass that produced the loss; evaluate() runs eval-mode batchnorm.
AdamW runs with the fixed betas (0.9, 0.999) and eps 1e-8 of Loshchilov &
Hutter (2019).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .layers import Module, Parameter
from .tensor import Rng

ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr_peak: float = 1e-3
    lr_min: float = 1e-5
    warmup_steps: int = 0
    warmup_lr: float = 1e-6
    total_steps: int = 100
    weight_decay: float = 0.05
    label_smoothing: float = 0.1
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.warmup_steps >= self.total_steps:
            raise ConfigError(
                f"train config: warmup {self.warmup_steps} must be < total {self.total_steps}"
            )
        # Written so that NaN fails every range check.
        for name in ("lr_peak", "lr_min", "warmup_lr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(
                    f"train config: {name} must be finite and > 0, got {getattr(self, name)}"
                )
        if self.lr_min > self.lr_peak:
            raise ConfigError("train config: lr_min must be <= lr_peak")
        if self.batch_size < 1:
            raise ConfigError(f"train config: batch_size must be >= 1, got {self.batch_size}")
        if self.warmup_steps < 0:
            raise ConfigError(f"train config: warmup_steps must be >= 0, got {self.warmup_steps}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"train config: weight_decay must be finite and >= 0, got {self.weight_decay}"
            )


def cosine_lr(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_peak, then cosine decay to lr_min at total_steps."""
    if step < 0 or step > cfg.total_steps:
        raise ConfigError(f"cosine_lr: step {step} outside [0, {cfg.total_steps}]")
    if step < cfg.warmup_steps:
        frac = step / cfg.warmup_steps
        return cfg.warmup_lr + (cfg.lr_peak - cfg.warmup_lr) * frac
    span = cfg.total_steps - cfg.warmup_steps
    progress = (step - cfg.warmup_steps) / span
    return cfg.lr_min + 0.5 * (cfg.lr_peak - cfg.lr_min) * (1.0 + np.cos(np.pi * progress))


def adamw_step(
    value: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    cfg: TrainConfig,
    decay: bool = True,
) -> None:
    """One decoupled-weight-decay Adam update, in place (t counts from 1)."""
    b1, b2 = ADAMW_BETAS
    m *= b1
    m += (1 - b1) * grad
    v *= b2
    v += (1 - b2) * grad * grad
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    if decay and cfg.weight_decay:
        value -= lr * cfg.weight_decay * value
    value -= lr * mhat / (np.sqrt(vhat) + ADAMW_EPS)


class AdamW:
    """Optimizer state over named parameters; no decay on biases, norms or scalars.

    Those are exactly the parameters of rank 0 or 1, so a weight decays when
    its rank is at least 2.
    """

    def __init__(self, named_params: list[tuple[str, Parameter]], cfg: TrainConfig):
        self.cfg = cfg
        self.named_params = named_params
        self.t = 0
        self.state = {
            name: (np.zeros_like(p.value), np.zeros_like(p.value))
            for name, p in named_params
        }

    def step(self, lr: float) -> None:
        self.t += 1
        for name, p in self.named_params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"adamw: non-finite gradient for {name}")
            m, v = self.state[name]
            adamw_step(p.value, p.grad, m, v, self.t, lr, self.cfg, decay=p.value.ndim >= 2)


def ce_label_smoothing(
    logits: np.ndarray, labels: np.ndarray, smoothing: float = 0.1
) -> tuple[float, np.ndarray]:
    """Mean smoothed cross-entropy and its logit gradient.

    Targets are (1 - smoothing) * onehot + smoothing / K; the log-softmax is
    computed with a max-shifted log-sum-exp.
    """
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise ShapeError(f"loss: logits must be (N, K), got {logits.shape}")
    n, k = logits.shape
    if not 0 <= smoothing < 1:
        raise ConfigError(f"loss: smoothing must be in [0, 1), got {smoothing}")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"loss: labels must be ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"loss: label outside [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    targets = np.full((n, k), smoothing / k, dtype=logits.dtype)
    targets[np.arange(n), labels] += 1.0 - smoothing
    loss = float(-(targets * log_probs).sum() / n)
    dlogits = (np.exp(log_probs) - targets) / n
    return loss, dlogits.astype(logits.dtype)


def evaluate(model: Module, images: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
    """Eval-mode top-1 accuracy."""
    hits = 0
    for start in range(0, images.shape[0], batch_size):
        logits = model.forward(images[start : start + batch_size], training=False)
        hits += int((logits.argmax(axis=1) == labels[start : start + batch_size]).sum())
    return hits / images.shape[0]


def train_loop(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    on_step=None,
) -> list[tuple[int, float, float, float]]:
    """Run cfg.total_steps updates; returns (step, lr, loss, batch_acc) rows.

    Batches are shards of a fresh per-epoch permutation drawn from the seeded
    package RNG; the optimizer consumes gradients in parameter order, so two
    runs with the same seed produce bit-identical histories.
    """
    if images.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"train: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    named = list(model.named_parameters())
    opt = AdamW(named, cfg)
    rng = Rng(cfg.seed)
    history = []
    order = rng.permutation(images.shape[0])
    cursor = 0
    for step in range(cfg.total_steps):
        if cursor >= images.shape[0]:
            order = rng.permutation(images.shape[0])
            cursor = 0
        idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size
        batch_x = images[idx]
        batch_y = labels[idx]
        lr = cosine_lr(step, cfg)
        logits = model.forward(batch_x, training=True)
        loss, dlogits = ce_label_smoothing(logits, batch_y, cfg.label_smoothing)
        if not np.isfinite(loss):
            raise NumericError(f"train: non-finite loss at step {step}")
        model.zero_grad()
        model.backward(dlogits)
        try:
            opt.step(lr)
        except NumericError as exc:
            raise NumericError(f"step {step}: {exc}") from exc
        acc = float((logits.argmax(axis=1) == batch_y).mean())
        history.append((step, float(lr), loss, acc))
        if on_step is not None:
            on_step(step, model, history[-1])
    return history
