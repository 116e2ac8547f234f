"""Flat named-array checkpoint container, format tag ``gyromoe-ckpt-v1``.

Layout: a UTF-8 text header (format tag, entry count, then one
``name ndim dims... byte_offset`` line per array, then a blank line)
followed by raw little-endian float64 data. Entries are written in sorted
name order so identical contents give identical bytes.
"""

from __future__ import annotations

import numpy as np

from .backbone import BackboneConfig, config_from_meta, config_to_meta
from .errors import CheckpointError, ConfigError
from .signal import ClipSpec

FORMAT_TAG = "gyromoe-ckpt-v1"


def save_arrays(path, arrays: dict) -> None:
    """Write named float64 arrays; names must be whitespace-free."""
    names = sorted(arrays.keys())
    blobs = []
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
        blobs.append(arr.astype("<f8").tobytes())
        offset += arr.size * 8
    header = "\n".join(lines) + "\n\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for blob in blobs:
            fh.write(blob)


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
    data = raw[sep + 2 :]
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
        arr = np.frombuffer(data[offset:end], dtype="<f8").astype(np.float64).reshape(dims)
        out[name] = arr
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
    """Inverse of :func:`save_checkpoint`; returns (arrays, meta)."""
    raw = load_arrays(path)
    arrays = {}
    meta = {}
    for name, arr in raw.items():
        if name.startswith("meta."):
            if arr.shape != ():
                raise CheckpointError(f"metadata entry '{name}' has shape {arr.shape}, not a scalar")
            meta[name[5:]] = float(arr)
        else:
            arrays[name] = arr
    return arrays, meta


# ---------------------------------------------------------------------------
# Expert checkpoints. The backbone geometry and clip level ride along as
# metadata so inference needs nothing beyond the file; ``kind`` tells the
# experts' files apart.


def save_expert(
    path, arrays: dict, kind: float, backbone: BackboneConfig, clip: ClipSpec, extra: dict | None = None
) -> None:
    meta = config_to_meta(backbone)
    meta.update(kind=kind, clip_level=clip.level, **(extra or {}))
    save_checkpoint(path, arrays, meta)


def load_expert(path, kind: float, expert: str) -> tuple[dict, BackboneConfig, ClipSpec, dict]:
    """Load an expert checkpoint; returns (arrays, backbone, clip, meta)."""
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise ConfigError(f"checkpoint at {path} is not a {expert} checkpoint")
    if "clip_level" not in meta:
        raise ConfigError("checkpoint metadata incomplete: 'clip_level'")
    return arrays, config_from_meta(meta), ClipSpec(meta["clip_level"]), meta
