"""Expert files, format tag ``gyromoe-ckpt-v3``.

v3 experts have no key-projection bias, which softmax ignores. A v2 file
holds one, and a v1 file weights trained under the exact erf GELU, so both
are refused at load; such an expert must be retrained.

Layout: a UTF-8 text header (format tag; the expert's settings as one
sorted-key JSON object in the config file's own key names; entry count;
one ``name ndim dims... byte_offset`` line per array; a blank line)
followed by raw little-endian float64 data. Entries are written in sorted
name order so identical contents give identical bytes. The settings are
read back by the config file's own reader (:func:`gyromoe.config.read`).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import partial

import numpy as np

from .backbone import BackboneConfig
from .config import BACKBONE_KEYS, number, read, string
from .errors import CheckpointError, ConfigError, ContractError, DimensionError
from .signal import ClipSpec

FORMAT_TAG = "gyromoe-ckpt-v3"

# the settings every expert file holds, and each expert's: those plus the
# fields its config adds
_COMMON = {"kind": string, "clip_level": number, "backbone": BACKBONE_KEYS}
_SETTINGS = {"peak-expert": _COMMON, "noise-expert": {**_COMMON, "weight_share": string}}


def save_checkpoint(path, arrays: dict, settings: dict) -> None:
    """Write named float64 arrays, names whitespace-free, and a JSON object
    of ``settings``. The header goes first, then each array's bytes straight
    from its buffer (copied only if it is not contiguous little-endian
    float64)."""
    names = sorted(arrays.keys())
    data = []
    lines = [FORMAT_TAG, json.dumps(settings, sort_keys=True), str(len(names))]
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


def load_checkpoint(path) -> tuple[dict, dict]:
    """Inverse of :func:`save_checkpoint`: ``(arrays, settings)``, each
    array a float64 copy, the settings as parsed and not yet checked."""
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
    if header_lines[0] != FORMAT_TAG:
        raise CheckpointError(f"unknown checkpoint format {header_lines[0]!r}, expected {FORMAT_TAG!r}")
    if len(header_lines) < 3:
        raise CheckpointError("checkpoint header is missing its settings or entry count")
    try:
        settings = json.loads(header_lines[1])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint settings are not JSON: {exc}") from None
    if not isinstance(settings, dict):
        raise CheckpointError("checkpoint settings are not a JSON object")
    try:
        count = int(header_lines[2])
    except ValueError:
        raise CheckpointError(f"bad entry count {header_lines[2]!r}") from None
    if count < 0 or len(header_lines) != 3 + count:
        raise CheckpointError(
            f"header declares {count} entries but carries {len(header_lines) - 3}"
        )
    out = {}
    for line in header_lines[3:]:
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
    return out, settings


# ---------------------------------------------------------------------------
# Expert checkpoints: the one codec from an expert file to its config and
# parameter store.


def save_expert(path, arrays: dict, expert: str, config) -> None:
    """Write an expert's arrays and the settings of its ``config``: the
    clip level, the backbone and the fields ``expert``'s file adds."""
    settings = {key: getattr(config, key) for key in _SETTINGS[expert].keys() - _COMMON.keys()}
    settings.update(kind=expert, clip_level=config.clip.level, backbone=asdict(config.backbone))
    save_checkpoint(path, arrays, settings)


def _spec_arrays(path, arrays: dict, spec) -> dict:
    """The arrays that a spec of ``(name, shape, init_kind)`` triples names,
    in spec order, once the file at ``path`` holds exactly those names in
    those shapes, every entry finite."""
    names = [name for name, _, _ in spec]
    if set(names) != arrays.keys():
        raise ConfigError(f"checkpoint parameters {sorted(arrays.keys() ^ set(names))[:3]} "
                          "disagree with its settings")
    for name, shape, _ in spec:
        if arrays[name].shape != shape:
            raise DimensionError(f"parameter '{name}' shape {arrays[name].shape} does not match {shape}")
        if not np.isfinite(arrays[name]).all():
            raise ContractError(f"checkpoint {path}: parameter '{name}' holds a non-finite value")
    return {name: arrays[name] for name in names}


def load_expert(path, expert: str, config_cls) -> tuple:
    """Read an expert checkpoint into ``(config, fill)``: ``config_cls``
    built from the file's settings, and ``fill``, which hands the file's
    arrays to :func:`~gyromoe.backbone.build_params` or the denoise store
    once their names match the spec it is given (:class:`ConfigError` if
    not), their shapes too (:class:`DimensionError`) and every entry is
    finite (:class:`ContractError`, naming the file and the parameter).
    Settings of another kind, or any they lack, add or hold wrong, are a
    :class:`ConfigError` naming the file and the key."""
    arrays, settings = load_checkpoint(path)
    try:
        if settings.get("kind") != expert:
            raise ConfigError(f"settings value kind = {settings.get('kind')!r} is not {expert!r}")
        settings = read(settings, _SETTINGS[expert], source="settings", complete=True)
        del settings["kind"]
        config = config_cls(clip=ClipSpec(settings.pop("clip_level")),
                            backbone=BackboneConfig(**settings.pop("backbone")), **settings)
    except (ConfigError, ContractError) as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None
    return config, partial(_spec_arrays, path, arrays)
