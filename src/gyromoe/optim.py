"""Adam optimizer with global gradient-norm clipping, and the training loop
both experts share."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import diffmath as dm
from .diffmath import DiffContext, Param
from .errors import ConfigError

log = logging.getLogger("gyromoe.optim")

# most items one training tape records: a longer tape runs fewer, larger
# numpy calls but keeps more activations alive until its backward
TRAIN_CHUNK = 8


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

    def clip_scale(self, norm: float) -> float:
        """Factor the gradients of global norm ``norm`` are scaled by; below 1
        exactly when clipping fires."""
        if self.clip_norm is not None and norm > self.clip_norm:
            return self.clip_norm / norm
        return 1.0

    def step(self) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        norm = self.global_grad_norm()
        scale = self.clip_scale(norm)
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
    """Per-step and per-epoch account of one training run.

    ``grad_norms`` holds each step's pre-clip global gradient norm,
    ``clipped`` whether clipping fired, and ``gd_sigma`` the learned
    attention widths after the step's clamp, by parameter name.
    """

    step_losses: list
    epoch_means: list
    skipped_segments: int = 0
    grad_norms: list = field(default_factory=list)
    clipped: list = field(default_factory=list)
    gd_sigma: list = field(default_factory=list)


def fit(params, config, n_items: int, chunk_loss, epochs: int, rng: np.random.Generator,
        name: str) -> TrainTrace:
    """Minibatch Adam over ``n_items`` training items.

    ``params`` offers ``all_params()``, ``clamp_sigma()`` and ``sigmas()``;
    ``config`` supplies ``learn_rate``, ``grad_clip`` and ``batch_size``.
    Each epoch visits the items in a fresh ``rng`` permutation. A minibatch
    is cut in order into chunks of at most :data:`TRAIN_CHUNK` items, and
    ``chunk_loss(ctx, chunk, rng)`` records the mean loss of the item
    indices ``chunk`` on the tape ``ctx``. Each chunk's loss is
    backpropagated weighted by its share of the minibatch, so the gradient
    is the minibatch mean. Returns the run's :class:`TrainTrace`.
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
            step_loss = 0.0
            for s in range(0, len(batch), TRAIN_CHUNK):
                chunk = batch[s : s + TRAIN_CHUNK]
                ctx = DiffContext()
                loss = chunk_loss(ctx, chunk, rng)
                share = len(chunk) / len(batch)
                dm.backward(dm.scale(ctx, loss, share), ctx)
                step_loss += float(loss.data) * share
            norm = opt.step()
            params.clamp_sigma()
            trace.step_losses.append(step_loss)
            trace.grad_norms.append(norm)
            trace.clipped.append(opt.clip_scale(norm) < 1.0)
            trace.gd_sigma.append(params.sigmas())
            epoch_losses.append(step_loss)
        epoch_mean = float(np.mean(epoch_losses))
        trace.epoch_means.append(epoch_mean)
        log.info("%s epoch %d/%d mean loss %.6f", name, epoch + 1, epochs, epoch_mean)
    return trace
