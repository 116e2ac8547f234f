"""Command-line front end.

Subcommands: ``synth`` (generate a synthetic stream), ``train-ore`` and
``train-de`` (desk-scale expert training), ``enhance`` (gate + experts over
a CSV stream), ``bench`` (metric report), and ``allan`` (deviation curve).
Configuration is one JSON file shared by all commands; ``--seed`` makes
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

# the keys each config section accepts; anything else is rejected as a typo
_SECTION_KEYS = {
    "backbone": tuple(f.name for f in dataclasses.fields(BackboneConfig)),
    "synth": ("duration_s", "white_noise_sigma", "drift_rate", "peak_events"),
    "train_ore": (
        "n_segments", "epochs", "batch_size", "learn_rate",
        "amp_lo_x", "amp_hi_x", "width_lo_s", "width_hi_s", "noise_sigma",
    ),
    "train_de": (
        "n_segments", "epochs", "batch_size", "learn_rate", "noise_sigma",
        "beta", "corruption_gain", "n_snippets", "weight_share",
    ),
    "gate": ("peak_run", "quiet_run", "quiet_threshold"),
    "bench": ("static_region",),
}
_TOP_KEYS = ("clip_level", "sample_rate", "segment_len", *_SECTION_KEYS)

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
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    return cfg


def _reject_unknown(mapping: dict, allowed, where: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be a JSON object")
    _reject_unknown(section, _SECTION_KEYS[name], name)
    return section


def _clip_spec(cfg: dict) -> ClipSpec:
    if "clip_level" not in cfg:
        raise ConfigError("config is missing 'clip_level'")
    return ClipSpec(float(cfg["clip_level"]))


def _backbone_config(cfg: dict) -> BackboneConfig:
    return BackboneConfig(**_section(cfg, "backbone"))


def _present(section: dict, casts: dict) -> dict:
    """Cast the keys of ``section`` named in ``casts``; absent keys are left
    out, so the dataclass default applies."""
    return {key: cast(section[key]) for key, cast in casts.items() if key in section}


def _segment_len(cfg: dict) -> int:
    return int(cfg.get("segment_len", gate_mod.GateConfig.segment_len))


def _sample_rate(cfg: dict) -> float:
    return float(cfg.get("sample_rate", _DEFAULT_SAMPLE_RATE))


def _require_seed(args) -> int:
    if args.seed is None:
        raise ConfigError("this command needs --seed")
    return int(args.seed)


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Commands.


def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    spec = _clip_spec(cfg)
    section = _section(cfg, "synth")
    synth_cfg = SynthConfig(
        duration_s=float(section.get("duration_s", 60.0)),
        sample_rate=_sample_rate(cfg),
        white_noise_sigma=float(section.get("white_noise_sigma", 0.0)),
        drift_rate=float(section.get("drift_rate", 0.0)),
        peak_events=[tuple(ev) for ev in section.get("peak_events", [])],
        rng_seed=_require_seed(args),
    )
    if args.out is None:
        raise ConfigError("synth needs --out <directory>")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series, _ = synth_motion(synth_cfg)
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
    if args.out is None:
        raise ConfigError("train-ore needs --out <checkpoint path>")
    section = _section(cfg, "train_ore")
    spec = _clip_spec(cfg)
    seg_len = _segment_len(cfg)
    fs = _sample_rate(cfg)
    ore_cfg = ore_mod.OreConfig(
        clip=spec,
        backbone=_backbone_config(cfg),
        **_present(section, {"learn_rate": float, "batch_size": int}),
    )
    data_rng = np.random.default_rng([seed, 0])
    rail = spec.level
    segments = synth_peak_segments(
        data_rng,
        n_segments=int(section.get("n_segments", 400)),
        seg_len=seg_len,
        sample_rate=fs,
        amp_range=(
            float(section.get("amp_lo_x", 1.25)) * rail,
            float(section.get("amp_hi_x", 2.0)) * rail,
        ),
        width_range=(
            float(section.get("width_lo_s", 0.15)),
            float(section.get("width_hi_s", 0.45)),
        ),
        noise_sigma=float(section.get("noise_sigma", 0.01)) * rail,
    )
    params, trace = ore_mod.train_ore(
        segments, ore_cfg, epochs=int(section.get("epochs", 4)), seed=[seed, 1]
    )
    ore_mod.save_ore(args.out, params, ore_cfg)
    if args.trace is not None:
        _write_text(args.trace, _trace_csv(trace.step_losses))
    print(f"trained peak expert on {len(segments)} segments, checkpoint at {args.out}")
    return 0


def cmd_train_de(args) -> int:
    cfg = _load_config(args.config)
    seed = _require_seed(args)
    if args.out is None:
        raise ConfigError("train-de needs --out <checkpoint path>")
    section = _section(cfg, "train_de")
    spec = _clip_spec(cfg)
    seg_len = _segment_len(cfg)
    fs = _sample_rate(cfg)
    de_cfg = DeConfig(
        clip=spec,
        backbone=_backbone_config(cfg),
        **_present(section, {"weight_share": str, "learn_rate": float, "batch_size": int}),
    )
    data_rng = np.random.default_rng([seed, 0])
    noise_segments = synth_noise_segments(
        data_rng,
        n_segments=int(section.get("n_segments", 300)),
        seg_len=seg_len,
        sigma=float(section.get("noise_sigma", 2.0)),
    )
    pool = make_snippet_pool(
        data_rng,
        n_snippets=int(section.get("n_snippets", 32)),
        len_range=(seg_len // 4, max(seg_len // 4, (3 * seg_len) // 4)),
        sample_rate=fs,
    )
    aug = AugmentConfig(
        snippet_pool=pool,
        beta=float(section.get("beta", 8.0)),
        corruption_gain=float(section.get("corruption_gain", 1.0)),
    )
    de_params, trace = train_de(
        noise_segments, fs, aug, de_cfg, epochs=int(section.get("epochs", 4)), seed=[seed, 1]
    )
    save_de(args.out, de_params, de_cfg)
    if args.trace is not None:
        _write_text(args.trace, _trace_csv(trace.step_losses))
    print(f"trained noise expert on {len(noise_segments)} segments, checkpoint at {args.out}")
    return 0


def _gate_config(cfg: dict, spec: ClipSpec) -> gate_mod.GateConfig:
    section = _section(cfg, "gate")
    return gate_mod.GateConfig(
        clip=spec,
        segment_len=_segment_len(cfg),
        **_present(section, {"peak_run": int, "quiet_run": int}),
        quiet_threshold=(
            float(section["quiet_threshold"])
            if section.get("quiet_threshold") is not None
            else None
        ),
    )


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
    if args.out is None:
        raise ConfigError("enhance needs --out <csv path>")
    spec = _clip_spec(cfg)
    gate_cfg = _gate_config(cfg, spec)
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
    if args.out is None:
        raise ConfigError("bench needs --out <json path>")
    spec = _clip_spec(cfg)
    raw = load_csv(args.raw)
    enhanced = load_csv(args.enhanced)
    truth = load_csv(args.truth)
    section = _section(cfg, "bench")
    static_region = section.get("static_region")
    if static_region is not None:
        static_region = (int(static_region[0]), int(static_region[1]))
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
    except GyroMoeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
