"""Dual-branch denoise expert.

Two backbone branches see complementary 50% patch masks of the same noisy
segment: branch A hides odd patches, branch B hides even ones. Each branch
is trained to predict a cleaner target at its own hidden positions, and at
inference the two half-predictions are fused into a full segment.

Training data comes from FFT-guided augmentation of static noise records:
a smooth motion snippet is scaled to sit near the measured noise floor and
added in, then extra noise with the same spectral shape as the record is
synthesized (random phases) and mixed on top. The clean mix (before the
extra noise) is the regression target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import diffmath as dm
from .checkpoint import load_expert, save_expert
from .diffmath import DiffContext, Param, Tensor
from .errors import ConfigError, ContractError, DimensionError
from .optim import TrainTrace, fit
from .signal import ClipSpec, SampleSeries, SpectralDensity, psd

SHARE_MODES = ("none", "encoder", "decoder", "both")


@dataclass
class AugmentConfig:
    """Knobs for the weak-signal injection and spectral corruption."""

    snippet_pool: list
    beta: float = 8.0
    corruption_gain: float = 1.0

    def __post_init__(self):
        if not self.snippet_pool:
            raise ConfigError("augmentation needs a nonempty snippet pool")
        if self.beta <= 0.0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if self.corruption_gain < 0.0:
            raise ConfigError(f"corruption_gain must be >= 0, got {self.corruption_gain}")


@dataclass
class DeConfig:
    clip: ClipSpec
    backbone: bb.BackboneConfig = field(default_factory=lambda: bb.BackboneConfig(gd_placement="decoder"))
    weight_share: str = "both"
    learn_rate: float = 1e-3
    batch_size: int = 32
    grad_clip: float = 1.0

    def __post_init__(self):
        if self.weight_share not in SHARE_MODES:
            raise ConfigError(
                f"weight_share must be one of {SHARE_MODES}, got {self.weight_share!r}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


class DeParams(bb.ModelParams):
    """Both branches' buffers in one store keyed by checkpoint name: a buffer
    the branches share under its backbone name, a branch's own buffer as
    ``a.<name>`` / ``b.<name>``. ``branch_a`` and ``branch_b`` view the same
    buffers keyed by backbone name, for the forward passes."""

    def __init__(self, store: dict, config: bb.BackboneConfig, branch_a: bb.ModelParams,
                 branch_b: bb.ModelParams):
        super().__init__(store, config)
        self.branch_a = branch_a
        self.branch_b = branch_b


def _share_predicate(mode: str):
    if mode == "both":
        return lambda name: True
    if mode == "none":
        return lambda name: False
    if mode == "encoder":
        return bb.is_encoder_param
    return lambda name: not bb.is_encoder_param(name)


def build_de_params(config: DeConfig, rng: np.random.Generator) -> DeParams:
    """Initialize both branches, sharing the buffers weight_share selects.

    Draws run in spec order, each unshared B buffer right after its A twin.
    The store holds every A-side entry in spec order, then the B-only ones;
    that order is the order Adam visits the buffers in.
    """
    cfg = config.backbone
    shared = _share_predicate(config.weight_share)
    store, b_only, view_a, view_b = {}, {}, {}, {}
    for name, shape, kind in bb.param_spec(cfg):
        p = Param(bb.init_param_array(kind, shape, rng, cfg))
        if shared(name):
            store[name] = view_a[name] = view_b[name] = p
        else:
            store[f"a.{name}"] = view_a[name] = p
            b_only[f"b.{name}"] = view_b[name] = Param(bb.init_param_array(kind, shape, rng, cfg))
    store.update(b_only)
    return DeParams(store, cfg, bb.ModelParams(view_a, cfg), bb.ModelParams(view_b, cfg))


# ---------------------------------------------------------------------------
# Cross masks and fusion.


def cross_masks(num_patches: int) -> tuple[np.ndarray, np.ndarray]:
    """Complementary 50% masks as ``[n]`` hidden-patch flags: A hides odd
    patches, B hides even ones."""
    if num_patches < 2:
        raise ContractError(f"cross masks need at least 2 patches, got {num_patches}")
    odd = np.arange(num_patches) % 2 == 1
    return odd, ~odd


def fuse(pred_a, pred_b, mask_a: np.ndarray, mask_b: np.ndarray, patch_len: int) -> np.ndarray:
    """Stitch branch outputs, taking each branch at its own hidden patches.

    Works on one segment ``[L]`` or a batch ``[B, L]`` fused row by row.
    """
    a = np.asarray(dm.value(pred_a), dtype=np.float64)
    c = np.asarray(dm.value(pred_b), dtype=np.float64)
    if a.shape != c.shape or a.ndim not in (1, 2):
        raise DimensionError(
            f"fuse needs matching [L] or [B, L] inputs, got {a.shape} and {c.shape}"
        )
    from_a = np.repeat(mask_a, patch_len)
    if mask_a.shape != mask_b.shape or from_a.shape != a.shape[-1:]:
        raise DimensionError("fuse masks do not tile the segment")
    if not (mask_a ^ mask_b).all():
        raise ContractError("fuse needs complementary masks covering every patch")
    return np.where(from_a, a, c)


# ---------------------------------------------------------------------------
# FFT-guided augmentation.


def noise_floor(density: SpectralDensity) -> float:
    """Median one-sided PSD level, a robust white-floor estimate."""
    return float(np.median(density.power))


@dataclass
class InjectionResult:
    x_mix: np.ndarray
    x_clean: np.ndarray
    offset: int
    alpha: float
    snippet_len: int


def inject_weak_signal(
    noise: SampleSeries,
    snippet: np.ndarray,
    beta: float,
    rng: np.random.Generator,
    floor: float,
) -> InjectionResult:
    """Add a scaled snippet at a random offset inside a noise record.

    The scale is ``alpha = beta * sqrt(floor) / max|snippet|``, tying the
    injected amplitude to the measured noise floor (see :func:`noise_floor`).
    Returns both the mixed signal and the identical clean copy; corruption
    is applied separately.
    """
    s = np.asarray(snippet, dtype=np.float64)
    n = len(noise)
    if s.ndim != 1 or s.size == 0:
        raise ContractError("snippet must be a nonempty 1-D array")
    if s.size > n:
        raise ContractError(f"snippet of {s.size} does not fit in record of {n}")
    peak = float(np.abs(s).max())
    if peak <= 0.0:
        raise ContractError("snippet is identically zero")
    if floor < 0.0:
        raise ContractError(f"noise floor must be >= 0, got {floor}")
    alpha = beta * math.sqrt(floor) / peak
    offset = int(rng.integers(0, n - s.size + 1))
    x_clean = noise.values.copy()
    x_clean[offset : offset + s.size] += alpha * s
    return InjectionResult(x_clean.copy(), x_clean, offset, alpha, s.size)


def spectral_corruption(
    values: np.ndarray,
    sample_rate: float,
    density: SpectralDensity,
    gain: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add synthetic noise whose PSD matches ``gain`` times the given shape.

    Per-bin magnitudes are derived from the one-sided density and phases are
    drawn uniformly; the DC bin stays zero. ``gain=0`` returns an untouched
    copy.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ContractError("spectral_corruption needs a 1-D record of >= 2 samples")
    if gain < 0.0:
        raise ContractError(f"gain must be >= 0, got {gain}")
    if gain == 0.0:
        return x.copy()
    n = x.size
    k = n // 2 + 1
    if density.power.shape != (k,):
        raise DimensionError(
            f"density has {density.power.shape[0]} bins but record needs {k}"
        )
    # invert the one-sided periodogram convention: S_k = c_k |X_k|^2 / (fs n)
    c = np.full(k, 2.0)
    c[0] = 1.0
    if n % 2 == 0:
        c[-1] = 1.0
    mags = np.sqrt(gain * density.power * sample_rate * n / c)
    spec = np.zeros(k, dtype=np.complex128)
    phases = rng.uniform(0.0, 2.0 * math.pi, k)
    spec[1:] = mags[1:] * np.exp(1j * phases[1:])
    if n % 2 == 0:
        spec[-1] = mags[-1] * (1.0 if phases[-1] < math.pi else -1.0)
    return x + np.fft.irfft(spec, n=n)


def augment_segment(
    noise: SampleSeries,
    aug: AugmentConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, InjectionResult]:
    """Full augmentation chain: inject a weak snippet, then corrupt the mix."""
    density = psd(noise)
    floor = noise_floor(density)
    snippet = aug.snippet_pool[int(rng.integers(0, len(aug.snippet_pool)))]
    inj = inject_weak_signal(noise, snippet, aug.beta, rng, floor=floor)
    x_mix = spectral_corruption(inj.x_mix, noise.sample_rate, density, aug.corruption_gain, rng)
    return x_mix, inj.x_clean, inj


# ---------------------------------------------------------------------------
# Forward passes, loss, training.


def dual_forward(
    ctx: DiffContext,
    de_params: DeParams,
    config: DeConfig,
    values_norm,
    mask_a: np.ndarray,
    mask_b: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Both branches over a ``[B, L]`` batch; each branch's mask is shared by every row."""
    pred_a = bb.forward(ctx, de_params.branch_a, config.backbone, values_norm, mask_a)
    pred_b = bb.forward(ctx, de_params.branch_b, config.backbone, values_norm, mask_b)
    return pred_a, pred_b


def branch_loss(target, pred, mask: np.ndarray, patch_len: int, ctx: DiffContext | None = None) -> Tensor:
    """Mean squared error at the samples the branch had hidden, for one
    segment ``[L]`` or over a batch ``[B, L]``."""
    ctx = dm.resolve_ctx(ctx, pred)
    tv = np.asarray(dm.value(target), dtype=np.float64)
    ph = pred if isinstance(pred, (Tensor, Param)) else dm.constant(pred)
    idx = np.flatnonzero(np.repeat(mask, patch_len))
    if idx.size == 0:
        raise ContractError("branch mask hides no patches")
    diff = dm.sub(ctx, dm.constant(tv[..., idx]), dm.gather(ctx, ph, idx, axis=tv.ndim - 1))
    return dm.mean(ctx, dm.square(ctx, diff))


def de_pair_loss(
    target,
    pred_a,
    pred_b,
    mask_a: np.ndarray,
    mask_b: np.ndarray,
    patch_len: int,
    ctx: DiffContext | None = None,
) -> Tensor:
    """Sum of the two branch losses on complementary masks."""
    ctx = dm.resolve_ctx(ctx, pred_a, pred_b)
    la = branch_loss(target, pred_a, mask_a, patch_len, ctx=ctx)
    lb = branch_loss(target, pred_b, mask_b, patch_len, ctx=ctx)
    return dm.add(ctx, la, lb)


def train_de(
    noise_segments,
    sample_rate: float,
    aug: AugmentConfig,
    config: DeConfig,
    epochs: int,
    seed: int,
) -> tuple[DeParams, TrainTrace]:
    """Train both branches on freshly augmented noise segments each epoch."""
    segs = [np.asarray(s, dtype=np.float64) for s in noise_segments]
    if not segs:
        raise ConfigError("train_de needs at least one noise segment")
    P = config.backbone.patch_len
    seg_len = segs[0].size
    if seg_len % P != 0 or seg_len // P < 2:
        raise ContractError(
            f"segment length {seg_len} must tile into >= 2 patches of {P}"
        )
    for s in segs:
        if s.shape != (seg_len,):
            raise ContractError("all noise segments must share one length")
    rng = np.random.default_rng(seed)
    de_params = build_de_params(config, rng)
    mask_a, mask_b = cross_masks(seg_len // P)
    level = config.clip.level

    def chunk_loss(ctx, chunk, rng):
        # augmentation draws stay in minibatch order; one forward per branch over the chunk
        mixes, cleans = [], []
        for i in chunk:
            x_mix, x_clean, _ = augment_segment(SampleSeries(segs[i], sample_rate), aug, rng)
            mixes.append(x_mix)
            cleans.append(x_clean)
        pred_a, pred_b = dual_forward(ctx, de_params, config, np.stack(mixes) / level, mask_a, mask_b)
        return de_pair_loss(np.stack(cleans) / level, pred_a, pred_b, mask_a, mask_b, P, ctx=ctx)

    trace = fit(de_params, config, len(segs), chunk_loss, epochs, rng, "de")
    return de_params, trace


def denoise(windows, de_params: DeParams, config: DeConfig) -> np.ndarray:
    """Run both branches on a ``[k, L]`` array, one window per row, and
    fuse each window's hidden-side outputs into a new ``[k, L]`` array.

    The cross masks are the same for every window, so the whole array runs
    as one batch.
    """
    x = np.asarray(windows, dtype=np.float64)
    P = config.backbone.patch_len
    if x.ndim != 2 or x.shape[1] % P != 0:
        raise DimensionError(f"denoise needs [k, L] windows with L a multiple of {P}, got {x.shape}")
    if not len(x):
        return x.copy()
    mask_a, mask_b = cross_masks(x.shape[1] // P)
    level = config.clip.level
    pred_a, pred_b = dual_forward(DiffContext(record=False), de_params, config, x / level, mask_a, mask_b)
    return fuse(pred_a.data, pred_b.data, mask_a, mask_b, P) * level


def make_noise_fn(de_params: DeParams, config: DeConfig):
    """Adapter giving the gate a ``[k, L]`` -> ``[k, L]`` prediction callable."""
    return lambda windows: denoise(windows, de_params, config)


# ---------------------------------------------------------------------------
# Checkpoint glue.

_KIND_DE = 2.0


def save_de(path, de_params: DeParams, config: DeConfig) -> None:
    share = {"weight_share": SHARE_MODES.index(config.weight_share)}
    save_expert(path, de_params.to_arrays(), _KIND_DE, config.backbone, config.clip, extra=share)


def load_de(path) -> tuple[DeParams, DeConfig]:
    arrays, backbone_cfg, clip_spec, meta = load_expert(path, _KIND_DE, "noise-expert")
    try:
        share = bb.meta_choice(meta, "weight_share", SHARE_MODES)
    except KeyError:
        raise ConfigError("checkpoint metadata is missing the weight-share mode") from None
    config = DeConfig(clip=clip_spec, backbone=backbone_cfg, weight_share=share)
    de_params = build_de_params(config, np.random.default_rng(0))
    de_params.load_arrays(arrays)
    return de_params, config
