"""Flat named-array checkpoint container, format tag ``gyromoe-ckpt-v2``.

v2 experts run the tanh GELU. A v1 file holds weights trained under the
exact erf GELU, so it is refused at load rather than run under another
activation; such an expert must be retrained.

Layout: a UTF-8 text header (format tag, entry count, then one
``name ndim dims... byte_offset`` line per array, then a blank line)
followed by raw little-endian float64 data. Entries are written in sorted
name order so identical contents give identical bytes.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from functools import partial

import numpy as np

from .backbone import GD_PLACEMENTS, BackboneConfig
from .errors import CheckpointError, ConfigError, ContractError, DimensionError
from .signal import ClipSpec

FORMAT_TAG = "gyromoe-ckpt-v2"


def save_arrays(path, arrays: dict) -> None:
    """Write named float64 arrays; names must be whitespace-free. The
    header goes first, then each array's bytes straight from its buffer
    (copied only if it is not contiguous little-endian float64)."""
    names = sorted(arrays.keys())
    data = []
    lines = [FORMAT_TAG, str(len(names))]
    offset = 0
    for name in names:
        if not name or any(c.isspace() for c in name):
            raise CheckpointError(f"invalid array name {name!r}")
        # note: ascontiguousarray would promote 0-d to 1-d and lose the shape
        arr = np.asarray(arrays[name], dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        entry = f"{name} {arr.ndim}"
        if dims:
            entry += f" {dims}"
        entry += f" {offset}"
        lines.append(entry)
        data.append(arr)
        offset += arr.size * 8
    header = "\n".join(lines) + "\n\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for arr in data:
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_arrays(path) -> dict:
    """Read a checkpoint back into name -> float64 ndarray."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError("checkpoint header is not terminated")
    try:
        header_lines = raw[:sep].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint header is not UTF-8: {exc}") from None
    data = memoryview(raw)[sep + 2 :]
    if not header_lines or header_lines[0] != FORMAT_TAG:
        got = header_lines[0] if header_lines else "<empty>"
        raise CheckpointError(f"unknown checkpoint format {got!r}, expected {FORMAT_TAG!r}")
    if len(header_lines) < 2:
        raise CheckpointError("checkpoint header is missing the entry count")
    try:
        count = int(header_lines[1])
    except ValueError:
        raise CheckpointError(f"bad entry count {header_lines[1]!r}") from None
    if count < 0 or len(header_lines) != 2 + count:
        raise CheckpointError(
            f"header declares {count} entries but carries {len(header_lines) - 2}"
        )
    out = {}
    for line in header_lines[2:]:
        fields = line.split(" ")
        if len(fields) < 3:
            raise CheckpointError(f"malformed entry line {line!r}")
        name = fields[0]
        try:
            ndim = int(fields[1])
            dims = tuple(int(d) for d in fields[2 : 2 + ndim])
            offset = int(fields[2 + ndim])
        except (ValueError, IndexError):
            raise CheckpointError(f"malformed entry line {line!r}") from None
        if len(fields) != 3 + ndim:
            raise CheckpointError(f"malformed entry line {line!r}")
        size = 1
        for d in dims:
            if d < 0:
                raise CheckpointError(f"negative dimension in entry {line!r}")
            size *= d
        end = offset + size * 8
        if offset < 0 or end > len(data):
            raise CheckpointError(
                f"entry '{name}' spans [{offset}, {end}) outside data of {len(data)} bytes"
            )
        out[name] = np.frombuffer(data, "<f8", count=size, offset=offset).astype(np.float64).reshape(dims)
    return out


def save_checkpoint(path, arrays: dict, meta: dict | None = None) -> None:
    """Save arrays along with scalar metadata stored under ``meta.*``."""
    merged = dict(arrays)
    for key, val in (meta or {}).items():
        name = f"meta.{key}"
        if name in merged:
            raise CheckpointError(f"metadata key collides with array name '{name}'")
        merged[name] = np.asarray(float(val))
    save_arrays(path, merged)


def load_checkpoint(path) -> tuple[dict, dict]:
    """Inverse of :func:`save_checkpoint`; returns (arrays, meta). Metadata
    must be finite, as config values are."""
    raw = load_arrays(path)
    arrays = {}
    meta = {}
    for name, arr in raw.items():
        if name.startswith("meta."):
            if arr.shape != ():
                raise CheckpointError(f"metadata entry '{name}' has shape {arr.shape}, not a scalar")
            if not np.isfinite(arr):
                raise ConfigError(f"checkpoint metadata '{name[5:]}' = {float(arr)} is not a finite number")
            meta[name[5:]] = float(arr)
        else:
            arrays[name] = arr
    return arrays, meta


# ---------------------------------------------------------------------------
# Expert checkpoints: the one codec from an expert file to its config and
# parameter store. The metadata holds all the config inference needs, each
# value one finite float, a choice stored as its index in its table (so the
# tables are part of the format).

# which backbone stacks the noise expert's two branches share
SHARE_MODES = ("none", "encoder", "decoder", "both")
_CHOICES = {"gd_placement": GD_PLACEMENTS, "weight_share": SHARE_MODES}
# each expert's kind tag and the choices its file adds
_EXPERTS = {"peak-expert": (1.0, ()), "noise-expert": (2.0, ("weight_share",))}


def _meta_int(meta: dict, key: str) -> int:
    """The whole number stored under ``key``; a fractional one is a :class:`ConfigError`."""
    val = meta[key]
    if not val.is_integer():
        raise ConfigError(f"checkpoint metadata '{key}' = {val} is not an integer")
    return int(val)


def meta_choice(meta: dict, key: str) -> str:
    """The entry of ``key``'s table whose index is stored under ``key``."""
    i = _meta_int(meta, key)
    if not 0 <= i < len(_CHOICES[key]):
        raise ConfigError(f"checkpoint metadata '{key}' = {i} is no index into {_CHOICES[key]}")
    return _CHOICES[key][i]


def save_expert(path, arrays: dict, expert: str, backbone: BackboneConfig, clip: ClipSpec,
                choices: dict) -> None:
    """Write an expert's arrays and metadata; ``choices`` holds the choices its file adds."""
    meta = dict(asdict(backbone), **choices, kind=_EXPERTS[expert][0], clip_level=clip.level)
    save_checkpoint(path, arrays, {k: _CHOICES[k].index(v) if k in _CHOICES else v
                                   for k, v in meta.items()})


def _spec_arrays(path, arrays: dict, spec) -> dict:
    """The arrays that a spec of ``(name, shape, init_kind)`` triples names,
    in spec order, once the file at ``path`` holds exactly those names in
    those shapes, every entry finite."""
    names = [name for name, _, _ in spec]
    if set(names) != arrays.keys():
        raise ConfigError(f"checkpoint parameters {sorted(arrays.keys() ^ set(names))[:3]} "
                          "disagree with its metadata")
    for name, shape, _ in spec:
        if arrays[name].shape != shape:
            raise DimensionError(f"parameter '{name}' shape {arrays[name].shape} does not match {shape}")
        if not np.isfinite(arrays[name]).all():
            raise ContractError(f"checkpoint {path}: parameter '{name}' holds a non-finite value")
    return {name: arrays[name] for name in names}


def load_expert(path, expert: str) -> tuple:
    """Read an expert checkpoint into ``(backbone, clip, picks, fill)``:
    ``picks`` holds the choices the expert's file adds, and ``fill`` hands
    the file's arrays to :func:`~gyromoe.backbone.build_params` or the
    denoise store once their names match the spec it is given
    (:class:`ConfigError` if not), their shapes too (:class:`DimensionError`)
    and every entry is finite (:class:`ContractError`, naming the file and
    the parameter).
    Bad metadata or a file of another kind is a :class:`ConfigError`."""
    kind, choices = _EXPERTS[expert]
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise ConfigError(f"checkpoint at {path} is not a {expert} checkpoint")
    try:
        read = {int: _meta_int, float: dict.__getitem__, str: meta_choice}  # by field type
        backbone = BackboneConfig(**{f.name: read[type(f.default)](meta, f.name)
                                     for f in fields(BackboneConfig)})
        clip = ClipSpec(meta["clip_level"])
        picks = tuple(meta_choice(meta, key) for key in choices)
    except KeyError as exc:
        raise ConfigError(f"checkpoint metadata incomplete: {exc}") from None
    return backbone, clip, picks, partial(_spec_arrays, path, arrays)
