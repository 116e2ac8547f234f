"""Masked-autoencoder transformer backbone for 1-D rate segments.

A segment is split into fixed-length patches, linearly embedded with
sinusoidal position codes, and a subset of patch tokens (the mask) is
hidden from the encoder. The decoder sees encoder latents re-expanded to
the full grid, with a learned mask token standing in at hidden positions,
and predicts every patch.

The pass is batch-first over a ``[B, L]`` batch. A mask is a boolean array
that flags the hidden patches, in one of three forms:

* ``[n]``: one mask shared by every row. The hidden tokens are dropped
  before the encoder (compact gather/scatter, as in MAE).
* ``[G, n]`` with a ``[G, B, L]`` stack of G groups of B rows: one mask
  per group, shared by its rows, every mask hiding the same number of
  patches. The groups run as one batch on the compact path and the
  prediction keeps the ``[G, B, L]`` shape; ``[n]`` is the one-group case.
  (:func:`apply_mask` and :func:`pad_with_mask_tokens` see the stack's
  rows flattened, with the masks as ``[G, 1, n]``.)
* ``[B, n]``: one mask per row. Every row stays on the full grid, and a
  key-padding bias hides each row's hidden tokens from encoder attention.

Rows never mix, so a row's output does not depend on its batch-mates.
Training records the pass on a tape; inference runs the same pass on a
context that records none (:func:`forward_values`).

Attention logits can carry an additive distance penalty
``B[i, j] = -(pos_i - pos_j)^2 / (2 sigma^2)`` with a single learnable
sigma shared across layers and heads. As sigma grows the penalty vanishes
and the block reduces to plain dot-product attention; sigma is kept inside
[sigma_min, sigma_max] by clamping after each optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diffmath as dm
from .diffmath import DiffContext, Param, Tensor
from .errors import ConfigError, DimensionError, MaskError

GD_PLACEMENTS = ("none", "encoder", "decoder", "both")
KEY_PAD = -1e30  # logit bias on a hidden key: finite, and its exp is exactly 0


@dataclass
class BackboneConfig:
    patch_len: int = 16
    embed_dim: int = 64
    enc_layers: int = 4
    dec_layers: int = 2
    heads: int = 4
    mlp_ratio: int = 2
    gd_placement: str = "decoder"
    sigma_init: float = 8.0
    sigma_min: float = 0.5
    sigma_max: float = 1e6

    def __post_init__(self):
        if self.patch_len < 1:
            raise ConfigError(f"patch_len must be >= 1, got {self.patch_len}")
        if self.embed_dim < 1 or self.embed_dim % self.heads != 0 or self.embed_dim % 2 != 0:
            raise ConfigError(  # even: the position codes pair sine and cosine columns
                f"embed_dim {self.embed_dim} must be an even, positive multiple of heads {self.heads}"
            )
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ConfigError("need at least one encoder and one decoder layer")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if self.gd_placement not in GD_PLACEMENTS:
            raise ConfigError(
                f"gd_placement must be one of {GD_PLACEMENTS}, got {self.gd_placement!r}"
            )
        if not 0.0 < self.sigma_min <= self.sigma_init <= self.sigma_max:
            raise ConfigError(
                f"need 0 < sigma_min <= sigma_init <= sigma_max, got "
                f"({self.sigma_min}, {self.sigma_init}, {self.sigma_max})"
            )


@dataclass
class TokenSequence:
    """Token batch ``[B, n, d]`` plus the patch-grid positions ``[B, n]``
    each token came from; ``hidden`` (``[B, n]`` flags, or None) marks the
    tokens attention must not read."""

    tokens: Tensor
    positions: np.ndarray
    hidden: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Parameter store.


class ModelParams:
    """Ordered name -> Param store for one backbone."""

    def __init__(self, store: dict, config: BackboneConfig):
        self.store = store
        self.config = config

    def __getitem__(self, name: str) -> Param:
        try:
            return self.store[name]
        except KeyError:
            raise ConfigError(f"unknown parameter '{name}'") from None

    def all_params(self):
        return list(self.store.values())

    def clamp_sigma(self):
        """Clip every learned attention width that :meth:`sigmas` names."""
        cfg = self.config
        for name in self.sigmas():
            arr = self.store[name].tensor.data
            np.clip(arr, cfg.sigma_min, cfg.sigma_max, out=arr)

    def sigmas(self) -> dict:
        """Learned attention widths by store name; empty without GD attention."""
        return {
            name: float(p.tensor.data) for name, p in self.store.items()
            if name.rpartition(".")[2] == "gd_sigma"
        }

    def buffers(self) -> dict:
        """Each parameter's own value array by store name, not a copy."""
        return {name: p.tensor.data for name, p in self.store.items()}

    def to_arrays(self) -> dict:
        return {name: arr.copy() for name, arr in self.buffers().items()}


def _block_spec(prefix: str, d: int, r: int) -> list:
    return [
        (f"{prefix}.ln1.g", (d,), "ln_gain"),
        (f"{prefix}.ln1.b", (d,), "bias"),
        (f"{prefix}.attn.wq", (d, d), "weight"),
        (f"{prefix}.attn.bq", (d,), "bias"),
        (f"{prefix}.attn.wk", (d, d), "weight"),
        (f"{prefix}.attn.wv", (d, d), "weight"),
        (f"{prefix}.attn.bv", (d,), "bias"),
        (f"{prefix}.attn.wo", (d, d), "weight"),
        (f"{prefix}.attn.bo", (d,), "bias"),
        (f"{prefix}.ln2.g", (d,), "ln_gain"),
        (f"{prefix}.ln2.b", (d,), "bias"),
        (f"{prefix}.mlp.w1", (d, r * d), "weight"),
        (f"{prefix}.mlp.b1", (r * d,), "bias"),
        (f"{prefix}.mlp.w2", (r * d, d), "weight"),
        (f"{prefix}.mlp.b2", (d,), "bias"),
    ]


def param_spec(config: BackboneConfig) -> list:
    """Ordered (name, shape, init_kind) triples for one backbone."""
    d = config.embed_dim
    spec = [
        ("embed.w", (config.patch_len, d), "weight"),
        ("embed.b", (d,), "bias"),
    ]
    for i in range(config.enc_layers):
        spec.extend(_block_spec(f"enc{i}", d, config.mlp_ratio))
    spec.append(("mask_token", (1, d), "weight"))
    for i in range(config.dec_layers):
        spec.extend(_block_spec(f"dec{i}", d, config.mlp_ratio))
    spec.extend(
        [
            ("dec_norm.g", (d,), "ln_gain"),
            ("dec_norm.b", (d,), "bias"),
            ("head.w", (d, config.patch_len), "weight"),
            ("head.b", (config.patch_len,), "bias"),
        ]
    )
    if config.gd_placement != "none":
        spec.append(("gd_sigma", (), "sigma"))
    return spec


def is_encoder_param(name: str) -> bool:
    """Encoder-side scope: patch embedding and encoder blocks."""
    return name.startswith("embed.") or name.startswith("enc")


def init_param_array(kind: str, shape, rng: np.random.Generator, config: BackboneConfig) -> np.ndarray:
    if kind == "weight":
        return rng.normal(0.0, 0.02, shape)
    if kind == "bias":
        return np.zeros(shape)
    if kind == "ln_gain":
        return np.ones(shape)
    if kind == "sigma":
        return np.asarray(config.sigma_init)
    raise ConfigError(f"unknown init kind '{kind}'")


def draw_arrays(spec, rng: np.random.Generator, config: BackboneConfig) -> dict:
    """Fresh arrays for a ``(name, shape, init_kind)`` spec, drawn from ``rng`` in spec order."""
    return {name: init_param_array(kind, shape, rng, config) for name, shape, kind in spec}


def build_params(config: BackboneConfig, fill) -> ModelParams:
    """One backbone's store: a Param per :func:`param_spec` entry, in spec
    order, over the array ``fill(spec)`` maps its name to: fresh draws
    (:func:`draw_arrays`) or a checkpoint's (see ``checkpoint.load_expert``)."""
    return ModelParams({name: Param(arr) for name, arr in fill(param_spec(config)).items()}, config)


def init_params(config: BackboneConfig, rng: np.random.Generator) -> ModelParams:
    return build_params(config, lambda spec: draw_arrays(spec, rng, config))


# ---------------------------------------------------------------------------
# Patching and position codes.


def patchify(values: np.ndarray, patch_len: int) -> np.ndarray:
    """Reshape segments ``[..., L]`` into patch rows ``[..., n_patches, patch_len]``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 1:
        raise DimensionError(f"patchify needs at least one axis, got {arr.shape}")
    L = arr.shape[-1]
    if patch_len < 1 or L % patch_len != 0:
        raise DimensionError(
            f"segment length {L} is not a multiple of patch length {patch_len}"
        )
    return arr.reshape(arr.shape[:-1] + (L // patch_len, patch_len))


def mask_from_flags(flags: np.ndarray, patch_len: int) -> np.ndarray:
    """Hide every patch containing at least one flagged sample: ``[..., L]``
    sample flags become ``[..., L // patch_len]`` patch flags."""
    return patchify(flags, patch_len).any(axis=-1)


@lru_cache(maxsize=32)  # few geometries per process; the bound caps a long-lived one
def pe_table(n_positions: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position codes, [n_positions, dim]; computed once per
    ``(n_positions, dim)`` and returned read-only, since every caller shares it."""
    if dim % 2 != 0:
        raise ConfigError(f"position code width must be even, got {dim}")
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((n_positions, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Gaussian-decay attention.


def gd_bias(ctx: DiffContext, sigma, positions: np.ndarray) -> Tensor:
    """Additive logit penalty ``-(pos_i - pos_j)^2 / (2 sigma^2)`` for
    patch-grid positions ``[B, n]``, shaped ``[B, 1, n, n]`` to broadcast
    over heads; differentiable in ``sigma``."""
    pos = np.asarray(positions, dtype=np.float64)
    d = pos[:, None, :, None] - pos[:, None, None, :]
    d2 = dm.constant(d * d)
    s2 = dm.square(ctx, sigma)
    inv = dm.reciprocal(ctx, s2)
    coef = dm.scale(ctx, inv, -0.5)
    return dm.scalar_mul(ctx, coef, d2)


def gd_attention(ctx: DiffContext, qkv, bias) -> Tensor:
    """Per-head attention ``softmax(q k^T / sqrt(d_k) + bias) v``.

    Takes queries, keys and values stacked on axis 1 as one
    ``[B, 3 * heads, n, d_k]`` array (the :func:`~gyromoe.diffmath.split_heads`
    output of a block) and returns ``[B, heads, n, d_k]``. ``bias`` is a
    :func:`gd_bias` term, key padding, their sum, or None for plain
    dot-product attention, which a large sigma approaches smoothly. The
    pass is four tape nodes: a transpose for the keys,
    :func:`~gyromoe.diffmath.scores`, row softmax and
    :func:`~gyromoe.diffmath.values`.
    """
    logits = dm.scores(ctx, qkv, dm.transpose(ctx, qkv), bias)
    return dm.values(ctx, dm.row_softmax(ctx, logits), qkv)


# ---------------------------------------------------------------------------
# Transformer blocks (pre-norm) on [B, n, d] token batches.


def _attention_sublayer(ctx, params, prefix, config, x, bias_term):
    a = f"{prefix}.attn."
    h = dm.layer_norm(ctx, x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    # q, k and v are three products stacked afterwards, not one product over
    # concatenated weights, so each input-gradient term sums over d entries
    # (a 3d-wide product would round differently). The keys carry no bias:
    # q . b_k is the same for every key of a query, and softmax ignores it.
    qkv = dm.concat(ctx, [dm.linear(ctx, h, params[a + "wq"], params[a + "bq"]),
                          dm.matmul(ctx, h, params[a + "wk"]),
                          dm.linear(ctx, h, params[a + "wv"], params[a + "bv"])], axis=2)  # [B, n, 3d]
    # column (part * heads + head) * d_k + j of qkv is entry j of that head's
    # query (part 0), key (1) or value (2)
    per_head = gd_attention(ctx, dm.split_heads(ctx, qkv, 3 * config.heads), bias_term)
    return dm.linear(ctx, dm.merge_heads(ctx, per_head), params[a + "wo"], params[a + "bo"], residual=x)


def _mlp_sublayer(ctx, params, prefix, x):
    h = dm.layer_norm(ctx, x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    h = dm.gelu(ctx, dm.linear(ctx, h, params[f"{prefix}.mlp.w1"], params[f"{prefix}.mlp.b1"]))
    return dm.linear(ctx, h, params[f"{prefix}.mlp.w2"], params[f"{prefix}.mlp.b2"], residual=x)


def _run_blocks(ctx, params, config, seq, prefix, n_layers, use_gd):
    bias_term = None
    if use_gd:
        bias_term = gd_bias(ctx, params["gd_sigma"], seq.positions)
    if seq.hidden is not None:
        pad = dm.constant(np.where(seq.hidden, KEY_PAD, 0.0)[:, None, None, :])
        bias_term = pad if bias_term is None else dm.add(ctx, bias_term, pad)
    x = seq.tokens
    for i in range(n_layers):
        x = _attention_sublayer(ctx, params, f"{prefix}{i}", config, x, bias_term)
        x = _mlp_sublayer(ctx, params, f"{prefix}{i}", x)
    return x


# ---------------------------------------------------------------------------
# Backbone passes.


def _grid(batch: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.arange(n, dtype=np.int64), (batch, n))


def embed(ctx: DiffContext, params: ModelParams, config: BackboneConfig, values) -> TokenSequence:
    """Patchify a ``[B, L]`` batch, project linearly, and add position codes."""
    patches = patchify(dm.value(values), config.patch_len)
    if patches.ndim != 3:
        raise DimensionError(f"embed needs a [B, L] batch, got {dm.value(values).shape}")
    B, n, _ = patches.shape
    tok = dm.linear(ctx, dm.constant(patches), params["embed.w"], params["embed.b"])
    tok = dm.add(ctx, tok, dm.constant(pe_table(n, config.embed_dim)))
    return TokenSequence(tok, _grid(B, n))


def _row_index(hidden: np.ndarray, rows: int, flag: bool) -> np.ndarray:
    """``[rows, k]`` patch indices where a shared mask (``[n]``, or ``[G, 1, n]``
    for G groups of ``rows // G`` rows) equals ``flag``, repeated over each
    group's rows. Raises :class:`DimensionError` unless every mask hides the
    same number of patches."""
    groups = hidden.reshape(-1, hidden.shape[-1])
    counts = groups.sum(axis=1)
    if (counts != counts[0]).any():
        raise DimensionError(f"stacked masks hide different patch counts {counts.tolist()}")
    idx = np.nonzero(groups == flag)[1].reshape(len(groups), -1)
    return np.repeat(idx, rows // len(groups), axis=0)


def apply_mask(ctx: DiffContext, seq: TokenSequence, hidden: np.ndarray) -> TokenSequence:
    """Keep each row's hidden-position tokens out of the encoder.

    ``hidden`` flags the hidden patches: a ``[n]`` array is one mask for the
    whole batch, and a ``[G, 1, n]`` stack one mask per group of ``B // G``
    consecutive rows; both drop the hidden tokens. A ``[B, n]`` array holds
    one mask per row, whose hidden tokens stay on the grid flagged in the
    result's ``hidden``. Raises :class:`MaskError` if a row keeps nothing
    visible.
    """
    B, n = seq.positions.shape
    stacked = hidden.ndim == 3 and hidden.shape[1:] == (1, n) and B % len(hidden) == 0
    if hidden.shape not in ((n,), (B, n)) and not stacked:
        raise DimensionError(f"mask of shape {hidden.shape} does not fit a batch of {B} x {n} patches")
    if hidden.all(axis=-1).any():
        raise MaskError("mask hides every patch; encoder needs at least one visible token")
    if hidden.ndim == 2:
        return TokenSequence(seq.tokens, seq.positions, hidden)
    vis = _row_index(hidden, B, False)
    return TokenSequence(dm.gather(ctx, seq.tokens, vis, axis=1), vis)


def encode(ctx: DiffContext, params: ModelParams, config: BackboneConfig, seq: TokenSequence) -> TokenSequence:
    use_gd = config.gd_placement in ("encoder", "both")
    x = _run_blocks(ctx, params, config, seq, "enc", config.enc_layers, use_gd)
    return TokenSequence(x, seq.positions, seq.hidden)


def pad_with_mask_tokens(
    ctx: DiffContext,
    params: ModelParams,
    config: BackboneConfig,
    latent: TokenSequence,
    hidden: np.ndarray,
) -> TokenSequence:
    """Re-expand latents to the full grid, mask token at hidden slots; the
    mask forms are those of :func:`apply_mask`."""
    B, d = latent.positions.shape[0], config.embed_dim
    n_total = hidden.shape[-1]
    if hidden.ndim != 2:
        full = dm.scatter(ctx, latent.tokens, latent.positions, n_total, axis=1)
        slots = _row_index(hidden, B, True)
        if slots.shape[1]:
            ones = dm.constant(np.ones((B, slots.shape[1], 1)))
            tiled = dm.matmul(ctx, ones, params["mask_token"])
            full = dm.add(ctx, full, dm.scatter(ctx, tiled, slots, n_total, axis=1))
    else:
        # per-row blend: keep the latent at visible slots, the mask token at hidden ones
        hide = hidden[..., None].astype(np.float64)  # [B, n, 1]
        kept = dm.mul(ctx, latent.tokens, dm.constant(np.broadcast_to(1.0 - hide, (B, n_total, d))))
        full = dm.add(ctx, kept, dm.matmul(ctx, dm.constant(hide), params["mask_token"]))
    # fresh position codes for the decoder stack
    full = dm.add(ctx, full, dm.constant(pe_table(n_total, d)))
    return TokenSequence(full, _grid(B, n_total))


def decode(ctx: DiffContext, params: ModelParams, config: BackboneConfig, seq: TokenSequence) -> Tensor:
    """Decoder blocks, final norm, and per-patch linear prediction head."""
    use_gd = config.gd_placement in ("decoder", "both")
    x = _run_blocks(ctx, params, config, seq, "dec", config.dec_layers, use_gd)
    x = dm.layer_norm(ctx, x, params["dec_norm.g"], params["dec_norm.b"])
    return dm.linear(ctx, x, params["head.w"], params["head.b"])


def forward(
    ctx: DiffContext,
    params: ModelParams,
    config: BackboneConfig,
    values,
    hidden,
) -> Tensor:
    """Full masked-autoencoder pass: a ``[B, L]`` batch with a shared ``[n]``
    or per-row ``[B, n]`` mask of hidden patches, or a ``[G, B, L]`` stack
    with one ``[G, n]`` mask per group (see the module docstring). Returns
    the prediction in the shape of ``values``."""
    vals = dm.value(values)
    hidden = np.asarray(hidden, dtype=bool)
    rows = vals
    if vals.ndim == 3:
        if hidden.shape[:-1] != vals.shape[:1]:
            raise DimensionError(f"a stack of {vals.shape[0]} groups needs one mask each, got {hidden.shape}")
        rows, hidden = vals.reshape(-1, vals.shape[-1]), hidden[:, None]
    seq = embed(ctx, params, config, rows)
    visible = apply_mask(ctx, seq, hidden)
    latent = encode(ctx, params, config, visible)
    full = pad_with_mask_tokens(ctx, params, config, latent, hidden)
    patches = decode(ctx, params, config, full)
    return dm.reshape(ctx, patches, vals.shape)


def forward_values(params: ModelParams, config: BackboneConfig, values, hidden) -> np.ndarray:
    """Inference: :func:`forward` on a context that records no tape."""
    return forward(DiffContext(record=False), params, config, values, hidden).data
