"""Over-range reconstruction expert.

Training is self-supervised: clean synthetic segments are saturated at an
artificial rail, the saturated patches are hidden from the encoder, and the
decoder is trained to recover the clean values there. The loss couples a
masked L2 term with a first-difference correlation term and an
energy-barrier regularizer computed on the prediction. Each loss takes a
``[B, L]`` prediction with boolean ``[B, L]`` hidden-sample flags (``[L]``
for one series) and returns the mean of the rows' losses.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import diffmath as dm
from .checkpoint import load_expert, save_expert
from .diffmath import DiffContext, Param, Tensor
from .errors import ConfigError, ContractError, DimensionError
from .optim import TrainTrace, fit
from .signal import ClipSpec, clip, saturated_mask

log = logging.getLogger("gyromoe.ore")


# weights of the correlation and energy-barrier terms in ore_total_loss
LAMBDA_CORR = 0.5
LAMBDA_PINN = 0.2


@dataclass
class OreConfig:
    """The peak expert's settings; its checkpoint keeps ``clip`` and
    ``backbone``. Loss weights and gradient clip are module constants."""

    clip: ClipSpec
    backbone: bb.BackboneConfig = field(default_factory=bb.BackboneConfig)
    learn_rate: float = 1e-3
    batch_size: int = 32

    def __post_init__(self):
        if self.learn_rate <= 0.0:
            raise ConfigError(f"learn_rate must be positive, got {self.learn_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def _loss_rows(ctx: DiffContext, x, x_hat, hidden, name: str):
    """``x_hat``, boolean ``hidden`` and target ``x`` as ``[B, L]`` rows; a
    1-D series is the one-row case. Every row must hide a sample."""
    xh = x_hat if isinstance(x_hat, (Tensor, Param)) else dm.constant(x_hat)
    xv = np.asarray(dm.value(x), dtype=np.float64)
    flags = np.asarray(hidden)
    if flags.dtype != bool or flags.ndim not in (1, 2) or not flags.shape == xv.shape == xh.shape:
        raise ContractError(f"{name} needs boolean [L] or [B, L] flags matching its series, got "
                            f"{flags.dtype} {flags.shape} for {xh.shape} and {xv.shape}")
    if not flags.any(axis=-1).all():
        raise ContractError(f"{name} needs a hidden sample in every row")
    if flags.ndim == 1:
        return dm.reshape(ctx, xh, (1, flags.size)), flags[None], xv[None]
    return xh, flags, xv


def _masked_mean(ctx: DiffContext, values, sel: np.ndarray) -> Tensor:
    """Mean over rows of each row's mean over its ``sel`` entries, where
    ``sel`` is a boolean ``[B, n]`` array; a row with none adds 0."""
    weights = sel * (sel.shape[1] / np.maximum(sel.sum(axis=1, keepdims=True), 1))
    return dm.mean(ctx, dm.mul(ctx, values, dm.constant(weights)))


def corr_loss(x, x_hat, hidden, lambda_sign: float = 1.0, ctx: DiffContext | None = None) -> Tensor:
    """First-difference matching plus a value pin at trend reversals.

    Per row, the first term is the mean over hidden samples t >= 1 of
    ``((x_t - x_{t-1}) - (xh_t - xh_{t-1}))^2``. The second term pins the
    predicted value at hidden extrema of the true signal (samples where the
    sign of the first difference flips), weighted by ``lambda_sign``; a row
    without one has no pin.
    """
    ctx = dm.resolve_ctx(ctx, x_hat)
    xh, flags, xv = _loss_rows(ctx, x, x_hat, hidden, "corr_loss")
    usable = flags[:, 1:]
    if not usable.any(axis=1).all():
        raise ContractError("corr_loss needs a hidden sample t >= 1 in every row")
    cols = np.arange(flags.shape[1])
    d_true = np.diff(xv, axis=1)
    d_hat = dm.sub(ctx, dm.gather(ctx, xh, cols[1:], axis=1), dm.gather(ctx, xh, cols[:-1], axis=1))
    total = _masked_mean(ctx, dm.square(ctx, dm.sub(ctx, dm.constant(d_true), d_hat)), usable)
    if lambda_sign > 0.0:
        s = np.sign(d_true)
        extrema = np.zeros_like(flags)
        extrema[:, 1:-1] = flags[:, 1:-1] & (s[:, :-1] != s[:, 1:])
        if extrema.any():
            pin = _masked_mean(ctx, dm.square(ctx, dm.sub(ctx, dm.constant(xv), xh)), extrema)
            total = dm.add(ctx, total, dm.scale(ctx, pin, lambda_sign))
    return total


def pinn_loss(x_hat, hidden, kappa: float = 1.0, ctx: DiffContext | None = None) -> Tensor:
    """Energy-barrier regularizer on the predicted trajectory.

    Per usable hidden sample t (2 <= t <= L-2) the signed power proxy is
    ``e_t = 0.5 * (D2[t-1] + D2[t]) * D1[t]`` with D2 the second and D1 the
    first difference of the prediction. Each row's mean energy is squashed
    with a sigmoid and pushed away from both 0 and 1 by
    ``-log(u) - kappa * log(1 - u)``; a constant prediction lands exactly at
    ``u = 1/2`` giving ``(1 + kappa) * log 2``.
    """
    if kappa <= 0.0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    ctx = dm.resolve_ctx(ctx, x_hat)
    xh, flags, _ = _loss_rows(ctx, x_hat, x_hat, hidden, "pinn_loss")
    B, L = flags.shape
    usable = flags[:, 2 : L - 1]
    if not usable.any(axis=1).all():
        raise ContractError("pinn_loss needs a hidden sample in [2, L-2] in every row")
    t = np.arange(2, L - 1)
    x_p1 = dm.gather(ctx, xh, t + 1, axis=1)
    x_0 = dm.gather(ctx, xh, t, axis=1)
    x_m1 = dm.gather(ctx, xh, t - 1, axis=1)
    x_m2 = dm.gather(ctx, xh, t - 2, axis=1)
    # 0.5*(D2[t-1] + D2[t]) telescopes to 0.5*(x[t+1] - x[t] - x[t-1] + x[t-2])
    acc = dm.scale(ctx, dm.sub(ctx, dm.sub(ctx, x_p1, x_0), dm.sub(ctx, x_m1, x_m2)), 0.5)
    vel = dm.sub(ctx, x_0, x_m1)
    energy = dm.mul(ctx, dm.mul(ctx, acc, vel), dm.constant(usable / usable.sum(axis=1, keepdims=True)))
    e_bar = dm.matmul(ctx, energy, dm.constant(np.ones((t.size, 1))))
    u = dm.sigmoid(ctx, e_bar)
    barrier_lo = dm.scale(ctx, dm.log(ctx, u), -1.0)
    barrier_hi = dm.scale(ctx, dm.log(ctx, dm.sub(ctx, dm.constant(np.ones((B, 1))), u)), -float(kappa))
    return dm.mean(ctx, dm.add(ctx, barrier_lo, barrier_hi))


def ore_total_loss(x, x_hat, hidden, ctx: DiffContext | None = None) -> Tensor:
    """Masked L2 plus the correlation and energy-barrier terms, weighted by
    :data:`LAMBDA_CORR` and :data:`LAMBDA_PINN`."""
    ctx = dm.resolve_ctx(ctx, x_hat)
    xh, flags, xv = _loss_rows(ctx, x, x_hat, hidden, "ore_total_loss")
    total = _masked_mean(ctx, dm.square(ctx, dm.sub(ctx, dm.constant(xv), xh)), flags)
    total = dm.add(ctx, total, dm.scale(ctx, corr_loss(xv, xh, flags, ctx=ctx), LAMBDA_CORR))
    return dm.add(ctx, total, dm.scale(ctx, pinn_loss(xh, flags, ctx=ctx), LAMBDA_PINN))


# ---------------------------------------------------------------------------
# Training and inference.


def _prepare_segment(clean: np.ndarray, config: OreConfig):
    P = config.backbone.patch_len
    clean = np.asarray(clean, dtype=np.float64)
    if clean.ndim != 1 or clean.size % P != 0:
        raise ContractError(
            f"training segment of {clean.shape} does not tile into patches of {P}"
        )
    clipped = clip(clean, config.clip)
    flags = saturated_mask(clipped, config.clip)
    if not flags.any():
        return None
    hidden = bb.mask_from_flags(flags, P)
    if hidden.all():
        return None  # nothing left for the encoder
    level = config.clip.level
    return clipped / level, clean / level, hidden, np.repeat(hidden, P)


def train_ore(
    segments,
    config: OreConfig,
    epochs: int,
    seed: int,
) -> tuple[bb.ModelParams, TrainTrace]:
    """Train the reconstruction expert on clean segments.

    Each segment is saturated at the configured rail; segments that never
    touch the rail (or saturate everywhere) are skipped. Returns the trained
    parameters and the per-step/per-epoch loss trace.
    """
    rng = np.random.default_rng(seed)
    params = bb.init_params(config.backbone, rng)
    prepared = []
    skipped = 0
    for seg in segments:
        item = _prepare_segment(seg, config)
        if item is None:
            skipped += 1
        else:
            prepared.append(item)
    if not prepared:
        raise ConfigError(
            "no usable training segment: each one either misses the clip rail "
            "or saturates every patch"
        )
    log.info("ore training: %d usable segments, %d skipped", len(prepared), skipped)
    # inputs, targets, hidden patches and hidden samples, one row per segment
    x_in, x_tgt, hidden, flags = (np.stack(column) for column in zip(*prepared))

    def chunk_loss(ctx, chunk, rng):
        # one forward and one loss over the chunk's segments, each row with its own mask
        pred = bb.forward(ctx, params, config.backbone, x_in[chunk], hidden[chunk])
        return ore_total_loss(x_tgt[chunk], pred, flags[chunk], ctx=ctx)

    trace = fit(params, config, len(x_in), chunk_loss, epochs, rng, "ore")
    trace.skipped_segments = skipped
    return params, trace


def reconstruct(windows, params: bb.ModelParams, config: OreConfig) -> np.ndarray:
    """Replace the saturated samples of each window with model predictions.

    Takes a ``[k, L]`` array, one window per row, and returns a new
    ``[k, L]`` array. Samples off the rail pass through untouched; a window
    with no rail contact comes back unchanged. The railed windows run
    through the backbone as one batch, each on the full patch grid with its
    own mask, so a window's output does not depend on the other windows. A
    window that saturates every patch raises :class:`MaskError`.
    """
    x = np.asarray(windows, dtype=np.float64)
    P = config.backbone.patch_len
    if x.ndim != 2 or x.shape[1] % P != 0:
        raise DimensionError(f"reconstruct needs [k, L] windows with L a multiple of {P}, got {x.shape}")
    level = config.clip.level
    flags = saturated_mask(x, config.clip)
    railed = flags.any(axis=1)
    out = x.copy()
    if railed.any():
        hidden = bb.mask_from_flags(flags[railed], P)
        pred = bb.forward_values(params, config.backbone, x[railed] / level, hidden)
        out[railed] = np.where(flags[railed], pred * level, x[railed])
    return out


def make_peak_fn(params: bb.ModelParams, config: OreConfig):
    """Adapter giving the gate a ``[k, L]`` -> ``[k, L]`` prediction callable."""
    return lambda windows: reconstruct(windows, params, config)


# ---------------------------------------------------------------------------
# Checkpoint glue.

def save_ore(path, params: bb.ModelParams, config: OreConfig) -> None:
    save_expert(path, params.buffers(), "peak-expert", config)


def load_ore(path) -> tuple[bb.ModelParams, OreConfig]:
    config, fill = load_expert(path, "peak-expert", OreConfig)
    return bb.build_params(config.backbone, fill), config
