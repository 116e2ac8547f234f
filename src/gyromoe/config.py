"""The one reader of settings, shared by the config file and expert files.

Settings are a JSON object read against a table that gives, for each key
it accepts, the cast that reads the key's value or, for a section, the
table of that section. A cast takes a JSON value and returns it checked,
or raises ``ValueError``/``TypeError``; :func:`read` turns that into a
:class:`ConfigError` that names the ``section.key``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .backbone import BackboneConfig
from .errors import ConfigError


def number(value) -> float:
    """``value`` as a float: a finite JSON number, not a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def integer(value) -> int:
    """``value`` as an int; a fractional number is rejected, not truncated."""
    if not number(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def positive_integer(value) -> int:
    """``value`` as an int of at least 1."""
    n = integer(value)
    if n < 1:
        raise ValueError(f"{value!r} is not a positive whole number")
    return n


def string(value) -> str:
    """``value`` as given: a JSON string, not a number or a boolean."""
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


# the backbone section: each BackboneConfig field read by the cast of its type
BACKBONE_KEYS = {
    f.name: {int: positive_integer, float: number, str: string}[type(f.default)]
    for f in dataclasses.fields(BackboneConfig)
}


def read(mapping, casts: dict, section: str | None = None, source: str = "config",
         complete: bool = False) -> dict:
    """Every value of ``mapping`` cast by its key's entry in ``casts``, a
    section read by its own table. ``source`` names the settings in errors.
    An absent key stays absent, so a dataclass default applies, unless
    ``complete`` asks for every key. An unknown key, a missing one or a
    value its cast rejects raises ConfigError naming ``section.key``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{source} {section or 'root'} must be a JSON object")
    unknown = set(mapping) - set(casts)
    if unknown:
        raise ConfigError(f"unknown {section or source} keys: {sorted(unknown)}")
    if complete and not casts.keys() <= mapping.keys():
        missing = [key if section is None else f"{section}.{key}" for key in casts if key not in mapping]
        raise ConfigError(f"missing {source} keys: {missing}")
    out = {}
    for key, value in mapping.items():
        cast = casts[key]
        name = key if section is None else f"{section}.{key}"
        try:
            out[key] = read(value, cast, key, source, complete) if isinstance(cast, dict) else cast(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{source} value {name} = {value!r} is invalid: {exc}") from None
    return out
