"""Adam optimizer with global gradient-norm clipping, and the training loop
both experts share."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .diffmath import DiffContext, Param
from .errors import ConfigError

log = logging.getLogger("gyromoe.optim")


class Adam:
    """Standard Adam with bias correction.

    Duplicate Param objects in ``params`` (weight sharing) are collapsed so
    each underlying buffer is updated exactly once per step.
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float | None = 1.0,
    ):
        if lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"betas must lie in [0, 1), got ({beta1}, {beta2})")
        if clip_norm is not None and clip_norm <= 0.0:
            raise ConfigError(f"clip_norm must be positive or None, got {clip_norm}")
        seen = set()
        unique = []
        for p in params:
            if not isinstance(p, Param):
                raise ConfigError("Adam expects Param instances")
            if id(p) not in seen:
                seen.add(id(p))
                unique.append(p)
        if not unique:
            raise ConfigError("Adam needs at least one parameter")
        self.params = unique
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._m = [np.zeros_like(p.tensor.data) for p in unique]
        self._v = [np.zeros_like(p.tensor.data) for p in unique]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def global_grad_norm(self) -> float:
        sq = 0.0
        for p in self.params:
            g = p.grad.data
            sq += float((g * g).sum())
        return math.sqrt(sq)

    def step(self) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        norm = self.global_grad_norm()
        scale = 1.0
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / norm
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad.data * scale
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.tensor.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return norm


@dataclass
class TrainTrace:
    step_losses: list
    epoch_means: list
    skipped_segments: int = 0


def fit(params, config, n_items: int, item_loss, epochs: int, rng: np.random.Generator, name: str) -> TrainTrace:
    """Minibatch Adam over ``n_items`` training items.

    ``params`` offers ``all_params()`` and ``clamp_sigma()``; ``config``
    supplies ``learn_rate``, ``grad_clip`` and ``batch_size``. Each epoch
    visits the items in a fresh ``rng`` permutation. ``item_loss(ctx, i, rng)``
    records item ``i``'s scalar loss on the tape ``ctx``; the batch gradient
    is the mean over its items. Returns the per-step and per-epoch mean losses.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    opt = Adam(params.all_params(), lr=config.learn_rate, clip_norm=config.grad_clip)
    trace = TrainTrace([], [])
    B = config.batch_size
    for epoch in range(epochs):
        order = rng.permutation(n_items)
        epoch_losses = []
        for start in range(0, n_items, B):
            batch = order[start : start + B]
            opt.zero_grad()
            batch_losses = []
            for i in batch:
                ctx = DiffContext()
                loss = item_loss(ctx, i, rng)
                dm.backward(dm.scale(ctx, loss, 1.0 / batch.size), ctx)
                batch_losses.append(float(loss.data))
            opt.step()
            params.clamp_sigma()
            step_loss = float(np.mean(batch_losses))
            trace.step_losses.append(step_loss)
            epoch_losses.append(step_loss)
        epoch_mean = float(np.mean(epoch_losses))
        trace.epoch_means.append(epoch_mean)
        log.info("%s epoch %d/%d mean loss %.6f", name, epoch + 1, epochs, epoch_mean)
    return trace
