"""Over-range reconstruction expert.

Training is self-supervised: clean synthetic segments are saturated at an
artificial rail, the saturated patches are hidden from the encoder, and the
decoder is trained to recover the clean values there. The loss couples a
masked L2 term with a first-difference correlation term and an
energy-barrier regularizer computed on the prediction.
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


@dataclass
class OreConfig:
    clip: ClipSpec
    backbone: bb.BackboneConfig = field(default_factory=lambda: bb.BackboneConfig(gd_placement="decoder"))
    lambda_corr: float = 0.5
    lambda_pinn: float = 0.2
    lambda_sign: float = 1.0
    kappa: float = 1.0
    learn_rate: float = 1e-3
    batch_size: int = 32
    grad_clip: float = 1.0

    def __post_init__(self):
        for name in ("lambda_corr", "lambda_pinn", "lambda_sign"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.kappa <= 0.0:
            raise ConfigError(f"kappa must be positive, got {self.kappa}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def corr_loss(x, x_hat, mask_samples, lambda_sign: float = 1.0, ctx: DiffContext | None = None) -> Tensor:
    """First-difference matching plus a value pin at trend reversals.

    The first term is the mean over masked samples t >= 1 of
    ``((x_t - x_{t-1}) - (xh_t - xh_{t-1}))^2``. The second term pins the
    predicted value at masked extrema of the true signal (samples where the
    sign of the first difference flips), weighted by ``lambda_sign``.
    """
    xv = np.asarray(dm.value(x), dtype=np.float64)
    ctx = dm.resolve_ctx(ctx, x_hat)
    xh = x_hat if isinstance(x_hat, (Tensor, Param)) else dm.constant(x_hat)
    xh_shape = dm.value(xh).shape
    if xv.ndim != 1 or xh_shape != xv.shape:
        raise ContractError(
            f"corr_loss needs matching 1-D series, got {xv.shape} and {xh_shape}"
        )
    m = np.unique(np.asarray(mask_samples, dtype=np.int64))
    if m.size == 0:
        raise ContractError("corr_loss needs a nonempty sample mask")
    if (m < 0).any() or (m >= xv.size).any():
        raise ContractError("corr_loss mask index out of range")
    usable = m[m >= 1]
    if usable.size == 0:
        raise ContractError("corr_loss mask has no usable index (first differences start at t=1)")
    d_true = xv[usable] - xv[usable - 1]
    d_hat = dm.sub(ctx, dm.gather(ctx, xh, usable), dm.gather(ctx, xh, usable - 1))
    total = dm.mean(ctx, dm.square(ctx, dm.sub(ctx, dm.constant(d_true), d_hat)))
    if lambda_sign > 0.0:
        n = xv.size
        cand = m[(m >= 1) & (m <= n - 2)]
        if cand.size:
            s_here = np.sign(xv[cand] - xv[cand - 1])
            s_next = np.sign(xv[cand + 1] - xv[cand])
            extrema = cand[s_here != s_next]
            if extrema.size:
                pin = dm.mean(
                    ctx,
                    dm.square(ctx, dm.sub(ctx, dm.constant(xv[extrema]), dm.gather(ctx, xh, extrema))),
                )
                total = dm.add(ctx, total, dm.scale(ctx, pin, lambda_sign))
    return total


def pinn_loss(x_hat, mask_samples, kappa: float = 1.0, ctx: DiffContext | None = None) -> Tensor:
    """Energy-barrier regularizer on the predicted trajectory.

    Per usable masked sample t (2 <= t <= N-2) the signed power proxy is
    ``e_t = 0.5 * (D2[t-1] + D2[t]) * D1[t]`` with D2 the second and D1 the
    first difference of the prediction. The mean energy is squashed with a
    sigmoid and pushed away from both 0 and 1 by
    ``-log(u) - kappa * log(1 - u)``; a constant prediction lands exactly at
    ``u = 1/2`` giving ``(1 + kappa) * log 2``.
    """
    if kappa <= 0.0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    ctx = dm.resolve_ctx(ctx, x_hat)
    xh = x_hat if isinstance(x_hat, (Tensor, Param)) else dm.constant(x_hat)
    xh_data = dm.value(xh)
    if xh_data.ndim != 1:
        raise ContractError(f"pinn_loss needs a 1-D series, got {xh_data.shape}")
    n = xh_data.size
    m = np.unique(np.asarray(mask_samples, dtype=np.int64))
    if m.size == 0:
        raise ContractError("pinn_loss needs a nonempty sample mask")
    if (m < 0).any() or (m >= n).any():
        raise ContractError("pinn_loss mask index out of range")
    usable = m[(m >= 2) & (m <= n - 2)]
    if usable.size == 0:
        raise ContractError("pinn_loss mask has no usable index in [2, N-2]")
    x_p1 = dm.gather(ctx, xh, usable + 1)
    x_0 = dm.gather(ctx, xh, usable)
    x_m1 = dm.gather(ctx, xh, usable - 1)
    x_m2 = dm.gather(ctx, xh, usable - 2)
    # 0.5*(D2[t-1] + D2[t]) telescopes to 0.5*(x[t+1] - x[t] - x[t-1] + x[t-2])
    acc = dm.scale(ctx, dm.sub(ctx, dm.sub(ctx, x_p1, x_0), dm.sub(ctx, x_m1, x_m2)), 0.5)
    vel = dm.sub(ctx, x_0, x_m1)
    e_bar = dm.mean(ctx, dm.mul(ctx, acc, vel))
    u = dm.sigmoid(ctx, e_bar)
    one = dm.constant(np.asarray(1.0))
    barrier_lo = dm.scale(ctx, dm.log(ctx, u), -1.0)
    barrier_hi = dm.scale(ctx, dm.log(ctx, dm.sub(ctx, one, u)), -float(kappa))
    return dm.add(ctx, barrier_lo, barrier_hi)


def ore_total_loss(x, x_hat, mask_samples, config: OreConfig, ctx: DiffContext | None = None) -> Tensor:
    """Masked L2 plus weighted correlation and energy-barrier terms."""
    ctx = dm.resolve_ctx(ctx, x_hat)
    xv = np.asarray(dm.value(x), dtype=np.float64)
    xh = x_hat if isinstance(x_hat, (Tensor, Param)) else dm.constant(x_hat)
    m = np.unique(np.asarray(mask_samples, dtype=np.int64))
    if m.size == 0:
        raise ContractError("ore_total_loss needs a nonempty sample mask")
    l2 = dm.mean(
        ctx, dm.square(ctx, dm.sub(ctx, dm.constant(xv[m]), dm.gather(ctx, xh, m)))
    )
    total = l2
    if config.lambda_corr > 0.0:
        c = corr_loss(xv, xh, m, lambda_sign=config.lambda_sign, ctx=ctx)
        total = dm.add(ctx, total, dm.scale(ctx, c, config.lambda_corr))
    if config.lambda_pinn > 0.0:
        p = pinn_loss(xh, m, kappa=config.kappa, ctx=ctx)
        total = dm.add(ctx, total, dm.scale(ctx, p, config.lambda_pinn))
    return total


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
    midx = np.flatnonzero(np.repeat(hidden, P))
    return clipped / level, clean / level, hidden, midx


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

    def chunk_loss(ctx, chunk, rng):
        # one forward over the chunk's segments, each row with its own mask
        items = [prepared[i] for i in chunk]
        x_in = np.stack([item[0] for item in items])
        pred = bb.forward(ctx, params, config.backbone, x_in, np.stack([item[2] for item in items]))
        total = None
        for r, (_, x_tgt, _, midx) in enumerate(items):
            row = dm.reshape(ctx, dm.gather(ctx, pred, np.array([r]), axis=0), x_tgt.shape)
            loss = ore_total_loss(x_tgt, row, midx, config, ctx=ctx)
            total = loss if total is None else dm.add(ctx, total, loss)
        return dm.scale(ctx, total, 1.0 / len(items))

    trace = fit(params, config, len(prepared), chunk_loss, epochs, rng, "ore")
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

_KIND_ORE = 1.0


def save_ore(path, params: bb.ModelParams, config: OreConfig) -> None:
    save_expert(path, params.to_arrays(), _KIND_ORE, config.backbone, config.clip)


def load_ore(path) -> tuple[bb.ModelParams, OreConfig]:
    arrays, backbone_cfg, clip_spec, _ = load_expert(path, _KIND_ORE, "peak-expert")
    config = OreConfig(clip=clip_spec, backbone=backbone_cfg)
    params = bb.init_params(backbone_cfg, np.random.default_rng(0))
    params.load_arrays(arrays)
    return params, config
