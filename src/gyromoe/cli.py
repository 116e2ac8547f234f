"""Command-line front end.

Subcommands: ``synth`` (generate a synthetic stream), ``train-ore`` and
``train-de`` (desk-scale expert training), ``enhance`` (gate + experts over
a CSV stream), ``bench`` (metric report), and ``allan`` (deviation curve).
Configuration is one JSON file shared by every command but ``allan``; each
of them reads and checks the whole file, cross-field rules included, at
startup. ``--seed`` makes every data-dependent step reproducible, and the
``GYROMOE_LOG`` environment variable (debug/info/warning/error) controls
verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .denoise import AugmentConfig, DeConfig, load_de, make_noise_fn, save_de, train_de
from . import gate as gate_mod
from . import metrics as me
from . import ore as ore_mod
from .backbone import BackboneConfig
from .errors import ConfigError, GyroMoeError
from .signal import (
    RATE_RTOL,
    ClipSpec,
    SampleSeries,
    SynthConfig,
    clip,
    load_csv,
    make_snippet_pool,
    save_csv,
    synth_motion,
    synth_noise_segments,
    synth_peak_segments,
    write_csv,
)

log = logging.getLogger("gyromoe.cli")

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING, "error": logging.ERROR}


def _number(value) -> float:
    """``value`` as a float: a finite JSON number, not a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _integer(value) -> int:
    """``value`` as an int; a fractional number is rejected, not truncated."""
    if not _number(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _positive_integer(value) -> int:
    """``value`` as an int of at least 1."""
    n = _integer(value)
    if n < 1:
        raise ValueError(f"{value!r} is not a positive whole number")
    return n


def _string(value) -> str:
    """``value`` as given: a JSON string, not a number or a boolean."""
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _sample_range(value) -> tuple:
    """``value`` as a half-open sample range ``(lo, hi)`` with ``0 <= lo < hi``."""
    lo, hi = map(_integer, value)
    if lo < 0 or hi <= lo:
        raise ValueError(f"{value!r} is not a sample range [lo, hi) with 0 <= lo < hi")
    return lo, hi


# the keys the config accepts, each with the cast that reads its value or,
# for a section, the keys that section accepts; any other key is a typo
_CONFIG_KEYS = {
    "clip_level": _number,
    "sample_rate": _number,
    "segment_len": _positive_integer,
    "backbone": {
        f.name: {int: _positive_integer, float: _number, str: _string}[type(f.default)]
        for f in dataclasses.fields(BackboneConfig)
    },
    "synth": {
        "duration_s": _number, "white_noise_sigma": _number, "drift_rate": _number,
        "peak_events": lambda events: [tuple(map(_number, event)) for event in events],
    },
    "train_ore": {
        "n_segments": _positive_integer, "epochs": _positive_integer, "batch_size": _positive_integer,
        "learn_rate": _number, "amp_lo_x": _number, "amp_hi_x": _number, "width_lo_s": _number,
        "width_hi_s": _number, "noise_sigma": _number,
    },
    "train_de": {
        "n_segments": _positive_integer, "epochs": _positive_integer, "batch_size": _positive_integer,
        "learn_rate": _number, "noise_sigma": _number, "beta": _number, "corruption_gain": _number,
        "n_snippets": _positive_integer, "weight_share": _string,
    },
    "gate": {
        "peak_run": _positive_integer, "quiet_run": _positive_integer,
        "quiet_threshold": lambda tau: None if tau is None else _number(tau),
    },
    "bench": {"static_region": _sample_range},
}


def _setup_logging():
    name = os.environ.get("GYROMOE_LOG", "warning").lower()
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"GYROMOE_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    logging.basicConfig(
        level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@dataclasses.dataclass(frozen=True)
class _Config:
    """A config file read and checked once: every object the commands build
    from it. ``sample_rate`` is None when the file gives none; synthetic data
    always runs at ``synth.sample_rate``, 100 Hz by default. ``synth.rng_seed``
    (0) and ``augment.snippet_pool`` (empty) are set by the command that uses
    them. ``train_ore`` and ``train_de`` hold every data-recipe default."""

    sample_rate: float | None
    gate: gate_mod.GateConfig
    ore: ore_mod.OreConfig
    de: DeConfig
    augment: AugmentConfig
    synth: SynthConfig
    train_ore: dict
    train_de: dict
    static_region: tuple | None


def _load_config(path) -> _Config:
    """The config file at ``path`` with every check run, cross-field ones
    included, so a file fails the same way on every command that reads it."""
    if path is None:
        raise ConfigError("this command needs --config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    cfg = _read(cfg, _CONFIG_KEYS, None)
    if "clip_level" not in cfg:
        raise ConfigError("config is missing 'clip_level'")
    spec = ClipSpec(cfg["clip_level"])
    backbone = BackboneConfig(**cfg.get("backbone", {}))
    ore = {"n_segments": 400, "epochs": 4, "amp_lo_x": 1.25, "amp_hi_x": 2.0, "width_lo_s": 0.15,
           "width_hi_s": 0.45, "noise_sigma": 0.01, **cfg.get("train_ore", {})}
    de = {"n_segments": 300, "epochs": 4, "noise_sigma": 2.0, "n_snippets": 32, **cfg.get("train_de", {})}
    for lo, hi in (("amp_lo_x", "amp_hi_x"), ("width_lo_s", "width_hi_s")):
        if not 0.0 < ore[lo] <= ore[hi]:
            raise ConfigError(f"config values train_ore.{lo} = {ore[lo]!r} and train_ore.{hi} = {ore[hi]!r} "
                              f"are invalid: need 0 < {lo} <= {hi}")
    for section, recipe in (("train_ore", ore), ("train_de", de)):
        if recipe["noise_sigma"] < 0.0:
            raise ConfigError(f"config value {section}.noise_sigma = {recipe['noise_sigma']!r} is invalid: "
                              f"need noise_sigma >= 0")
        if recipe.get("learn_rate", 1.0) <= 0.0:
            raise ConfigError(f"config value {section}.learn_rate = {recipe['learn_rate']!r} is invalid: "
                              f"need learn_rate > 0")
    return _Config(
        sample_rate=cfg.get("sample_rate"),
        gate=gate_mod.GateConfig(spec, cfg.get("segment_len", gate_mod.GateConfig.segment_len),
                                 **cfg.get("gate", {})),
        ore=ore_mod.OreConfig(spec, backbone, **_fields(ore_mod.OreConfig, ore)),
        de=DeConfig(spec, backbone, **_fields(DeConfig, de)),
        augment=AugmentConfig([], **_fields(AugmentConfig, de)),
        synth=SynthConfig(**{"duration_s": 60.0, **cfg.get("synth", {})},
                          sample_rate=cfg.get("sample_rate", 100.0)),
        train_ore=ore,
        train_de=de,
        static_region=cfg.get("bench", {}).get("static_region"),
    )


def _read(mapping, casts: dict, section: str | None) -> dict:
    """Every value of ``mapping`` cast by its key's entry in ``casts``, a
    section read by its own table; the one way a config value is read. An
    absent key stays absent, so the dataclass default applies. An unknown
    key or a value its cast rejects raises ConfigError naming ``section.key``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config {section or 'root'} must be a JSON object")
    unknown = set(mapping) - set(casts)
    if unknown:
        raise ConfigError(f"unknown {section or 'config'} keys: {sorted(unknown)}")
    out = {}
    for key, value in mapping.items():
        cast = casts[key]
        try:
            out[key] = _read(value, cast, key) if isinstance(cast, dict) else cast(value)
        except (TypeError, ValueError, OverflowError) as exc:
            name = key if section is None else f"{section}.{key}"
            raise ConfigError(f"config value {name} = {value!r} is invalid: {exc}") from None
    return out


def _fields(cls, section: dict) -> dict:
    """The entries of ``section`` that name fields of the dataclass ``cls``;
    a field the section leaves out keeps its default."""
    return {f.name: section[f.name] for f in dataclasses.fields(cls) if f.name in section}


def _require_seed(args) -> int:
    if args.seed is None:
        raise ConfigError("this command needs --seed")
    return int(args.seed)


def _check_outputs(args, out_kind: str | None) -> None:
    """Fail before any work on an output path the command could not write:
    ``--out`` left out though the command needs one (``out_kind`` says what
    it names), or an ``--out`` or ``--trace`` that is not a file in an existing directory."""
    if args.out is None and out_kind is not None:
        raise ConfigError(f"{args.command} needs --out <{out_kind}>")
    for flag in ("out", "trace"):
        path = getattr(args, flag, None)
        if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ConfigError(f"--{flag} {path} is not a file path in an existing directory")


def _open_out(path):
    """``path`` opened for writing UTF-8 text with LF line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_trace(path, losses):
    with _open_out(path) as fh:
        write_csv(fh, "step,loss", range(len(losses)), losses)


# ---------------------------------------------------------------------------
# Commands.


def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    synth_cfg = dataclasses.replace(cfg.synth, rng_seed=_require_seed(args))
    if args.out is None:
        raise ConfigError("synth needs --out <directory>")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = synth_motion(synth_cfg)
    clipped = SampleSeries(clip(series.values, cfg.gate.clip), series.sample_rate)
    save_csv(series, out_dir / "clean.csv")
    save_csv(clipped, out_dir / "clipped.csv")
    log.info("synth: wrote %d samples to %s", len(series), out_dir)
    print(f"wrote {out_dir / 'clean.csv'} and {out_dir / 'clipped.csv'}")
    return 0


def cmd_train_ore(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args)
    _check_outputs(args, "checkpoint path")
    recipe, rail = cfg.train_ore, cfg.gate.clip.level
    segments = synth_peak_segments(
        np.random.default_rng([seed, 0]),
        n_segments=recipe["n_segments"],
        seg_len=cfg.gate.segment_len,
        sample_rate=cfg.synth.sample_rate,
        amp_range=(recipe["amp_lo_x"] * rail, recipe["amp_hi_x"] * rail),
        width_range=(recipe["width_lo_s"], recipe["width_hi_s"]),
        noise_sigma=recipe["noise_sigma"] * rail,
    )
    params, trace = ore_mod.train_ore(segments, cfg.ore, epochs=recipe["epochs"], seed=[seed, 1])
    ore_mod.save_ore(args.out, params, cfg.ore)
    if args.trace is not None:
        _write_trace(args.trace, trace.step_losses)
    print(f"trained peak expert on {len(segments)} segments, checkpoint at {args.out}")
    return 0


def cmd_train_de(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args)
    _check_outputs(args, "checkpoint path")
    recipe, seg_len, fs = cfg.train_de, cfg.gate.segment_len, cfg.synth.sample_rate
    if seg_len < 16:  # the motion snippets span seg_len // 4 to 3 * seg_len // 4 samples, at least 4
        raise ConfigError(f"train-de needs segment_len >= 16, got segment_len {seg_len}")
    data_rng = np.random.default_rng([seed, 0])
    noise_segments = synth_noise_segments(
        data_rng, n_segments=recipe["n_segments"], seg_len=seg_len, sigma=recipe["noise_sigma"]
    )
    pool = make_snippet_pool(
        data_rng,
        n_snippets=recipe["n_snippets"],
        len_range=(seg_len // 4, (3 * seg_len) // 4),
        sample_rate=fs,
    )
    aug = dataclasses.replace(cfg.augment, snippet_pool=pool)
    de_params, trace = train_de(noise_segments, fs, aug, cfg.de, epochs=recipe["epochs"], seed=[seed, 1])
    save_de(args.out, de_params, cfg.de)
    if args.trace is not None:
        _write_trace(args.trace, trace.step_losses)
    print(f"trained noise expert on {len(noise_segments)} segments, checkpoint at {args.out}")
    return 0


def _check_expert(expert: str, expert_cfg, gate_cfg: gate_mod.GateConfig, min_patches: int):
    """Reject a checkpoint whose geometry or rail disagrees with the config."""
    P = expert_cfg.backbone.patch_len
    L = gate_cfg.segment_len
    if L % P != 0 or L // P < min_patches:
        raise ConfigError(
            f"{expert} checkpoint needs segment_len to tile into >= {min_patches} "
            f"patches of {P}, got segment_len {L}"
        )
    if expert_cfg.clip.level != gate_cfg.clip.level:
        raise ConfigError(
            f"{expert} checkpoint was trained at clip_level {expert_cfg.clip.level}, "
            f"config has {gate_cfg.clip.level}"
        )


def _check_sample_rate(cfg: _Config, series: SampleSeries):
    """Reject a stream whose CSV-derived rate differs from the config's
    ``sample_rate`` by more than ``signal.RATE_RTOL``."""
    want = cfg.sample_rate
    if want is not None and abs(series.sample_rate - want) > RATE_RTOL * want:
        raise ConfigError(
            f"input stream is sampled at {series.sample_rate!r} Hz, config sample_rate is {want!r} Hz"
        )


def cmd_enhance(args) -> int:
    cfg = _load_config(args.config)
    _check_outputs(args, "csv path")
    peak_fn = None
    noise_fn = None
    if args.ore_ckpt is not None:
        params, ore_cfg = ore_mod.load_ore(args.ore_ckpt)
        _check_expert("peak-expert", ore_cfg, cfg.gate, min_patches=1)
        peak_fn = ore_mod.make_peak_fn(params, ore_cfg)
    if args.de_ckpt is not None:
        de_params, de_cfg = load_de(args.de_ckpt)
        _check_expert("noise-expert", de_cfg, cfg.gate, min_patches=2)
        noise_fn = make_noise_fn(de_params, de_cfg)
    series = load_csv(args.input)
    _check_sample_rate(cfg, series)
    enhanced = gate_mod.enhance(series, cfg.gate, peak_fn=peak_fn, noise_fn=noise_fn)
    save_csv(enhanced, args.out)
    print(f"enhanced {len(series)} samples into {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    _check_outputs(args, "json path")
    raw = load_csv(args.raw)
    enhanced = load_csv(args.enhanced)
    truth = load_csv(args.truth)
    rep = me.report(
        raw,
        enhanced,
        truth,
        cfg.gate.clip,
        segment_len=cfg.gate.segment_len,
        static_region=cfg.static_region,
    )
    with _open_out(args.out) as fh:
        fh.write(rep.to_json())
    print(rep.to_json(), end="")
    return 0


def cmd_allan(args) -> int:
    _check_outputs(args, None)
    series = load_csv(args.input)
    curve = me.allan_deviation(series)
    if args.out is None:
        write_csv(sys.stdout, "tau_s,sigma", curve.taus, curve.devs)
    else:
        with _open_out(args.out) as fh:
            write_csv(fh, "tau_s,sigma", curve.taus, curve.devs)
    return 0


# ---------------------------------------------------------------------------
# Parser plumbing.


def _build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON configuration file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, help="master seed for data and training")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (file or directory, per command)")

    parser = argparse.ArgumentParser(prog="gyromoe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[config, seed, out], help="generate a synthetic stream")

    p = sub.add_parser("train-ore", parents=[config, seed, out], help="train the peak expert")
    p.add_argument("--trace", help="optional loss-trace CSV path")

    p = sub.add_parser("train-de", parents=[config, seed, out], help="train the noise expert")
    p.add_argument("--trace", help="optional loss-trace CSV path")

    p = sub.add_parser("enhance", parents=[config, out], help="run the gate over a CSV stream")
    p.add_argument("--input", required=True, help="input CSV (t,omega)")
    p.add_argument("--ore-ckpt", help="peak-expert checkpoint")
    p.add_argument("--de-ckpt", help="noise-expert checkpoint")

    p = sub.add_parser("bench", parents=[config, out], help="metric report for an enhanced stream")
    p.add_argument("--raw", required=True, help="raw (clipped) CSV")
    p.add_argument("--enhanced", required=True, help="enhanced CSV")
    p.add_argument("--truth", required=True, help="ground-truth CSV")

    p = sub.add_parser("allan", parents=[out], help="Allan deviation curve of a CSV stream")
    p.add_argument("--input", required=True, help="input CSV (t,omega)")

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "train-ore": cmd_train_ore,
    "train-de": cmd_train_de,
    "enhance": cmd_enhance,
    "bench": cmd_bench,
    "allan": cmd_allan,
}


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (GyroMoeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
