"""Command-line front end.

Subcommands: ``synth`` (generate a synthetic stream), ``train-ore`` and
``train-de`` (desk-scale expert training), ``enhance`` (gate + experts over
a CSV stream), ``bench`` (metric report), and ``allan`` (deviation curve).
Configuration is one JSON file shared by all commands; a command checks
every key and the type of every value in it at startup. ``--seed`` makes
every data-dependent step reproducible, and the ``GYROMOE_LOG`` environment
variable (debug/info/warning/error) controls verbosity.
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
)

log = logging.getLogger("gyromoe.cli")

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING, "error": logging.ERROR}


def _integer(value) -> int:
    """``value`` as an int; a fractional number is rejected, not truncated."""
    if not float(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(float(value))


def _int_pair(value) -> tuple:
    lo, hi = value
    return _integer(lo), _integer(hi)


# the keys the config accepts, each with the cast that reads its value or,
# for a section, the keys that section accepts; any other key is a typo
_CONFIG_KEYS = {
    "clip_level": float,
    "sample_rate": float,
    "segment_len": _integer,
    "backbone": {
        f.name: _integer if isinstance(f.default, int) else type(f.default)
        for f in dataclasses.fields(BackboneConfig)
    },
    "synth": {
        "duration_s": float, "white_noise_sigma": float, "drift_rate": float,
        "peak_events": lambda events: [tuple(map(float, event)) for event in events],
    },
    "train_ore": {
        "n_segments": _integer, "epochs": _integer, "batch_size": _integer, "learn_rate": float,
        "amp_lo_x": float, "amp_hi_x": float, "width_lo_s": float, "width_hi_s": float, "noise_sigma": float,
    },
    "train_de": {
        "n_segments": _integer, "epochs": _integer, "batch_size": _integer, "learn_rate": float,
        "noise_sigma": float, "beta": float, "corruption_gain": float, "n_snippets": _integer,
        "weight_share": str,
    },
    "gate": {
        "peak_run": _integer, "quiet_run": _integer,
        "quiet_threshold": lambda tau: None if tau is None else float(tau),
    },
    "bench": {"static_region": _int_pair},
}

# sample rate, in Hz, of the synthetic streams and training corpora when the
# config gives none
_DEFAULT_SAMPLE_RATE = 100.0


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


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("this command needs --config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return _read(cfg, _CONFIG_KEYS, None)


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
        except (TypeError, ValueError) as exc:
            name = key if section is None else f"{section}.{key}"
            raise ConfigError(f"config value {name} = {value!r} is invalid: {exc}") from None
    return out


def _present(values: dict, *keys) -> dict:
    """The entries of ``values`` under ``keys``; absent keys are left out,
    so the dataclass default applies."""
    return {key: values[key] for key in keys if key in values}


def _clip_spec(cfg: dict) -> ClipSpec:
    if "clip_level" not in cfg:
        raise ConfigError("config is missing 'clip_level'")
    return ClipSpec(cfg["clip_level"])


def _backbone_config(cfg: dict) -> BackboneConfig:
    return BackboneConfig(**cfg.get("backbone", {}))


def _segment_len(cfg: dict) -> int:
    return cfg.get("segment_len", gate_mod.GateConfig.segment_len)


def _sample_rate(cfg: dict) -> float:
    return cfg.get("sample_rate", _DEFAULT_SAMPLE_RATE)


def _require_seed(args) -> int:
    if args.seed is None:
        raise ConfigError("this command needs --seed")
    return int(args.seed)


def _check_outputs(args, out_kind: str | None) -> None:
    """Fail before any work on an output path the command could not write:
    ``--out`` left out though the command needs one (``out_kind`` says what
    it names), or an ``--out`` or ``--trace`` whose directory does not exist."""
    if args.out is None and out_kind is not None:
        raise ConfigError(f"{args.command} needs --out <{out_kind}>")
    for flag in ("out", "trace"):
        path = getattr(args, flag, None)
        if path is not None and not Path(path).parent.is_dir():
            raise ConfigError(f"--{flag} {path}: {Path(path).parent} is not an existing directory")


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Commands.


def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    spec = _clip_spec(cfg)
    synth_cfg = SynthConfig(
        **{"duration_s": 60.0, **cfg.get("synth", {})},
        sample_rate=_sample_rate(cfg),
        rng_seed=_require_seed(args),
    )
    if args.out is None:
        raise ConfigError("synth needs --out <directory>")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = synth_motion(synth_cfg)
    clipped = SampleSeries(clip(series.values, spec), series.sample_rate)
    save_csv(series, out_dir / "clean.csv")
    save_csv(clipped, out_dir / "clipped.csv")
    log.info("synth: wrote %d samples to %s", len(series), out_dir)
    print(f"wrote {out_dir / 'clean.csv'} and {out_dir / 'clipped.csv'}")
    return 0


def _trace_csv(step_losses) -> str:
    lines = ["step,loss"]
    for i, loss in enumerate(step_losses):
        lines.append(f"{i},{loss!r}")
    return "\n".join(lines) + "\n"


def cmd_train_ore(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args)
    _check_outputs(args, "checkpoint path")
    section = cfg.get("train_ore", {})
    spec = _clip_spec(cfg)
    seg_len = _segment_len(cfg)
    fs = _sample_rate(cfg)
    ore_cfg = ore_mod.OreConfig(
        clip=spec,
        backbone=_backbone_config(cfg),
        **_present(section, "learn_rate", "batch_size"),
    )
    data_rng = np.random.default_rng([seed, 0])
    rail = spec.level
    segments = synth_peak_segments(
        data_rng,
        n_segments=section.get("n_segments", 400),
        seg_len=seg_len,
        sample_rate=fs,
        amp_range=(section.get("amp_lo_x", 1.25) * rail, section.get("amp_hi_x", 2.0) * rail),
        width_range=(section.get("width_lo_s", 0.15), section.get("width_hi_s", 0.45)),
        noise_sigma=section.get("noise_sigma", 0.01) * rail,
    )
    params, trace = ore_mod.train_ore(
        segments, ore_cfg, epochs=section.get("epochs", 4), seed=[seed, 1]
    )
    ore_mod.save_ore(args.out, params, ore_cfg)
    if args.trace is not None:
        _write_text(args.trace, _trace_csv(trace.step_losses))
    print(f"trained peak expert on {len(segments)} segments, checkpoint at {args.out}")
    return 0


def cmd_train_de(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args)
    _check_outputs(args, "checkpoint path")
    section = cfg.get("train_de", {})
    spec = _clip_spec(cfg)
    seg_len = _segment_len(cfg)
    fs = _sample_rate(cfg)
    de_cfg = DeConfig(
        clip=spec,
        backbone=_backbone_config(cfg),
        **_present(section, "weight_share", "learn_rate", "batch_size"),
    )
    data_rng = np.random.default_rng([seed, 0])
    noise_segments = synth_noise_segments(
        data_rng,
        n_segments=section.get("n_segments", 300),
        seg_len=seg_len,
        sigma=section.get("noise_sigma", 2.0),
    )
    pool = make_snippet_pool(
        data_rng,
        n_snippets=section.get("n_snippets", 32),
        len_range=(seg_len // 4, max(seg_len // 4, (3 * seg_len) // 4)),
        sample_rate=fs,
    )
    aug = AugmentConfig(snippet_pool=pool, **_present(section, "beta", "corruption_gain"))
    de_params, trace = train_de(
        noise_segments, fs, aug, de_cfg, epochs=section.get("epochs", 4), seed=[seed, 1]
    )
    save_de(args.out, de_params, de_cfg)
    if args.trace is not None:
        _write_text(args.trace, _trace_csv(trace.step_losses))
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


def _check_sample_rate(cfg: dict, series: SampleSeries):
    """Reject a stream whose CSV-derived rate differs from the config's
    ``sample_rate``, within the uniformity tolerance ``load_csv`` allows."""
    if "sample_rate" not in cfg:
        return
    want = _sample_rate(cfg)
    if abs(series.sample_rate - want) > 1e-6 * want:
        raise ConfigError(
            f"input stream is sampled at {series.sample_rate!r} Hz, config sample_rate is {want!r} Hz"
        )


def cmd_enhance(args) -> int:
    cfg = _load_config(args.config)
    _check_outputs(args, "csv path")
    spec = _clip_spec(cfg)
    gate_cfg = gate_mod.GateConfig(clip=spec, segment_len=_segment_len(cfg), **cfg.get("gate", {}))
    peak_fn = None
    noise_fn = None
    if args.ore_ckpt is not None:
        params, ore_cfg = ore_mod.load_ore(args.ore_ckpt)
        _check_expert("peak-expert", ore_cfg, gate_cfg, min_patches=1)
        peak_fn = ore_mod.make_peak_fn(params, ore_cfg)
    if args.de_ckpt is not None:
        de_params, de_cfg = load_de(args.de_ckpt)
        _check_expert("noise-expert", de_cfg, gate_cfg, min_patches=2)
        noise_fn = make_noise_fn(de_params, de_cfg)
    series = load_csv(args.input)
    _check_sample_rate(cfg, series)
    enhanced = gate_mod.enhance(series, gate_cfg, peak_fn=peak_fn, noise_fn=noise_fn)
    save_csv(enhanced, args.out)
    print(f"enhanced {len(series)} samples into {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    _check_outputs(args, "json path")
    spec = _clip_spec(cfg)
    static_region = cfg.get("bench", {}).get("static_region")
    raw = load_csv(args.raw)
    enhanced = load_csv(args.enhanced)
    truth = load_csv(args.truth)
    rep = me.report(
        raw,
        enhanced,
        truth,
        spec,
        segment_len=_segment_len(cfg),
        static_region=static_region,
    )
    _write_text(args.out, rep.to_json())
    print(rep.to_json(), end="")
    return 0


def cmd_allan(args) -> int:
    _check_outputs(args, None)
    series = load_csv(args.input)
    curve = me.allan_deviation(series)
    lines = ["tau_s,sigma"]
    for tau, dev in zip(curve.taus, curve.devs):
        lines.append(f"{float(tau)!r},{float(dev)!r}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser plumbing.


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON configuration file")
    shared.add_argument("--seed", type=int, help="master seed for data and training")
    shared.add_argument("--out", help="output path (file or directory, per command)")

    parser = argparse.ArgumentParser(prog="gyromoe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[shared], help="generate a synthetic stream")

    p = sub.add_parser("train-ore", parents=[shared], help="train the peak expert")
    p.add_argument("--trace", help="optional loss-trace CSV path")

    p = sub.add_parser("train-de", parents=[shared], help="train the noise expert")
    p.add_argument("--trace", help="optional loss-trace CSV path")

    p = sub.add_parser("enhance", parents=[shared], help="run the gate over a CSV stream")
    p.add_argument("--input", required=True, help="input CSV (t,omega)")
    p.add_argument("--ore-ckpt", help="peak-expert checkpoint")
    p.add_argument("--de-ckpt", help="noise-expert checkpoint")

    p = sub.add_parser("bench", parents=[shared], help="metric report for an enhanced stream")
    p.add_argument("--raw", required=True, help="raw (clipped) CSV")
    p.add_argument("--enhanced", required=True, help="enhanced CSV")
    p.add_argument("--truth", required=True, help="ground-truth CSV")

    p = sub.add_parser("allan", parents=[shared], help="Allan deviation curve of a CSV stream")
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
