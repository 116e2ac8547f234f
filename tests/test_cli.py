import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gyromoe.backbone import BackboneConfig, init_params
from gyromoe.checkpoint import load_checkpoint, save_checkpoint
import gyromoe.cli as cli
from gyromoe.cli import main
from gyromoe.config import read
from gyromoe.denoise import DeConfig, build_de_params, save_de
from gyromoe.ore import OreConfig, save_ore
from gyromoe.signal import ClipSpec, SampleSeries, load_csv, save_csv

TINY_BACKBONE = {
    "patch_len": 4,
    "embed_dim": 8,
    "enc_layers": 1,
    "dec_layers": 1,
    "heads": 2,
    "mlp_ratio": 2,
}


def write_config(tmp_path, **extra):
    cfg = {
        "clip_level": 450.0,
        "sample_rate": 100.0,
        "segment_len": 32,
        "backbone": TINY_BACKBONE,
        "synth": {
            "duration_s": 4.0,
            "white_noise_sigma": 1.0,
            "drift_rate": 0.5,
            "peak_events": [[1.0, 600.0, 0.08], [2.5, -520.0, 0.1]],
        },
        "train_ore": {
            "n_segments": 6,
            "epochs": 1,
            "batch_size": 4,
            # widths sized to the 0.32 s window so the rail run stays partial
            "width_lo_s": 0.03,
            "width_hi_s": 0.06,
        },
        "train_de": {"n_segments": 6, "epochs": 1, "batch_size": 4, "n_snippets": 4},
        "gate": {"quiet_run": 8},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSynth:
    def test_writes_both_streams(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        clean = load_csv(out / "clean.csv")
        clipped = load_csv(out / "clipped.csv")
        assert len(clean) == 400
        assert np.abs(clipped.values).max() <= 450.0
        assert np.abs(clean.values).max() > 450.0
        assert "clean.csv" in capsys.readouterr().out

    def test_byte_determinism_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        for d in ("a", "b"):
            main(["synth", "--config", cfg, "--seed", "11", "--out", str(tmp_path / d)])
        for name in ("clean.csv", "clipped.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_the_stream(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["synth", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "a")])
        main(["synth", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "clean.csv").read_bytes() != (tmp_path / "b" / "clean.csv").read_bytes()

    def test_missing_seed_is_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_is_error(self, tmp_path, capsys):
        assert main(["synth", "--seed", "1", "--out", str(tmp_path / "d")]) == 2
        assert "--config" in capsys.readouterr().err


class TestConfigKeys:
    @pytest.mark.parametrize(
        "extra, bad",
        [
            ({"train_ore": {"epoch": 1}}, "epoch"),
            ({"segment_length": 32}, "segment_length"),
            # a value of the wrong type is named, not raised as a traceback
            ({"train_ore": {"epochs": "four"}}, "train_ore.epochs"),
            ({"clip_level": "high"}, "clip_level"),
            ({"backbone": {"embed_dim": "wide"}}, "backbone.embed_dim"),
            # a number must be a finite JSON number: no boolean, string, Infinity or NaN
            ({"sample_rate": float("inf")}, "sample_rate"),
            ({"gate": {"quiet_threshold": float("nan")}}, "gate.quiet_threshold"),
            ({"clip_level": True}, "clip_level"),
            ({"clip_level": "450"}, "clip_level"),
            ({"train_ore": {"epochs": True}}, "train_ore.epochs"),
            ({"backbone": {"sigma_init": float("inf")}}, "backbone.sigma_init"),
            # a string key takes a JSON string, not a boolean or a number
            ({"train_de": {"weight_share": True}}, "train_de.weight_share"),
            ({"backbone": {"gd_placement": 1}}, "backbone.gd_placement"),
            # a window holds at least one sample
            ({"segment_len": 0}, "segment_len"),
            ({"segment_len": -8}, "segment_len"),
            # every count is a positive whole number
            ({"gate": {"peak_run": 0}}, "gate.peak_run"),
            ({"gate": {"quiet_run": -4}}, "gate.quiet_run"),
            ({"train_ore": {"n_segments": 0}}, "train_ore.n_segments"),
            ({"train_ore": {"epochs": 0}}, "train_ore.epochs"),
            ({"train_ore": {"batch_size": 0}}, "train_ore.batch_size"),
            ({"train_de": {"n_segments": 0}}, "train_de.n_segments"),
            ({"train_de": {"epochs": -1}}, "train_de.epochs"),
            ({"train_de": {"batch_size": 0}}, "train_de.batch_size"),
            ({"train_de": {"n_snippets": 0}}, "train_de.n_snippets"),
            ({"backbone": {**TINY_BACKBONE, "dec_layers": 0}}, "backbone.dec_layers"),
            # a static region is a half-open range [lo, hi) with 0 <= lo < hi
            ({"bench": {"static_region": [300, 100]}}, "bench.static_region"),
            ({"bench": {"static_region": [-1, 100]}}, "bench.static_region"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, extra, bad):
        cfg = write_config(tmp_path, **extra)
        out = tmp_path / "ore.ckpt"
        assert main(["train-ore", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err
        assert not out.exists()


    def test_readme_config_block_matches_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        assert set(block) == set(cli._CONFIG_KEYS)
        for key, casts in cli._CONFIG_KEYS.items():
            if isinstance(casts, dict):
                assert set(block[key]) == set(casts), key
        read(block, cli._CONFIG_KEYS)  # every value shown passes its cast


class TestTraining:
    def test_ore_checkpoints_are_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        for name in ("a.ckpt", "b.ckpt"):
            code = main(
                [
                    "train-ore",
                    "--config",
                    cfg,
                    "--seed",
                    "5",
                    "--out",
                    str(tmp_path / name),
                    "--trace",
                    str(tmp_path / (name + ".trace.csv")),
                ]
            )
            assert code == 0
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        trace = (tmp_path / "a.ckpt.trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) >= 2
        float(trace[1].split(",")[1])
        assert trace == (tmp_path / "b.ckpt.trace.csv").read_text().splitlines()

    def test_de_checkpoint_round_trips(self, tmp_path):
        from gyromoe.denoise import load_de

        cfg = write_config(tmp_path)
        out = tmp_path / "de.ckpt"
        assert main(["train-de", "--config", cfg, "--seed", "6", "--out", str(out)]) == 0
        params, de_cfg = load_de(out)
        assert de_cfg.weight_share == "both"
        assert de_cfg.backbone.patch_len == 4

    def test_de_segment_len_below_16_fails_before_drawing_data(self, tmp_path, capsys, monkeypatch):
        def drew(*args, **kwargs):
            pytest.fail("train-de drew its noise corpus before checking segment_len")

        monkeypatch.setattr(cli, "synth_noise_segments", drew)
        cfg = write_config(tmp_path, segment_len=8)
        out = tmp_path / "de.ckpt"
        assert main(["train-de", "--config", cfg, "--seed", "6", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "segment_len >= 16" in err
        assert not out.exists()


class TestEnhance:
    def test_pass_through_without_checkpoints(self, tmp_path):
        cfg = write_config(tmp_path)
        rng = np.random.default_rng(0)
        vals = rng.uniform(60.0, 400.0, size=96) * rng.choice([-1.0, 1.0], size=96)
        src = tmp_path / "in.csv"
        save_csv(SampleSeries(vals, 100.0), src)
        out = tmp_path / "out.csv"
        code = main(["enhance", "--config", cfg, "--input", str(src), "--out", str(out)])
        assert code == 0
        np.testing.assert_array_equal(load_csv(out).values, vals)

    def test_peak_route_without_checkpoint_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        vals = np.full(64, 100.0)
        vals[10:20] = 450.0
        src = tmp_path / "in.csv"
        save_csv(SampleSeries(vals, 100.0), src)
        code = main(["enhance", "--config", cfg, "--input", str(src), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "peak" in err

    def test_full_pipeline_with_trained_experts(self, tmp_path):
        cfg = write_config(tmp_path)
        ore_ckpt = tmp_path / "ore.ckpt"
        de_ckpt = tmp_path / "de.ckpt"
        assert main(["train-ore", "--config", cfg, "--seed", "7", "--out", str(ore_ckpt)]) == 0
        assert main(["train-de", "--config", cfg, "--seed", "8", "--out", str(de_ckpt)]) == 0
        main(["synth", "--config", cfg, "--seed", "9", "--out", str(tmp_path / "data")])
        out = tmp_path / "enhanced.csv"
        code = main(
            [
                "enhance",
                "--config",
                cfg,
                "--input",
                str(tmp_path / "data" / "clipped.csv"),
                "--ore-ckpt",
                str(ore_ckpt),
                "--de-ckpt",
                str(de_ckpt),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        enhanced = load_csv(out)
        clipped = load_csv(tmp_path / "data" / "clipped.csv")
        assert len(enhanced) == len(clipped)
        # saturated samples must have been rewritten somewhere
        assert not np.array_equal(enhanced.values, clipped.values)


def untrained_checkpoints(tmp_path, clip_level=450.0):
    """Paths of freshly initialized peak and noise expert checkpoints."""
    backbone = BackboneConfig(**TINY_BACKBONE)
    rng = np.random.default_rng(0)
    ore_cfg = OreConfig(clip=ClipSpec(clip_level), backbone=backbone)
    de_cfg = DeConfig(clip=ClipSpec(clip_level), backbone=backbone)
    ore_path, de_path = tmp_path / "ore.ckpt", tmp_path / "de.ckpt"
    save_ore(ore_path, init_params(backbone, rng), ore_cfg)
    save_de(de_path, build_de_params(de_cfg, rng), de_cfg)
    return {"--ore-ckpt": str(ore_path), "--de-ckpt": str(de_path)}


# each command with the function doing its work, and the flags naming its
# outputs; an output path that cannot be written fails before that work
_OUTPUT_CASES = [
    ("train-ore", "ore_mod.train_ore", "--out"),
    ("train-ore", "ore_mod.train_ore", "--trace"),
    ("train-de", "train_de", "--out"),
    ("train-de", "train_de", "--trace"),
    ("enhance", "gate_mod.enhance", "--out"),
    ("bench", "me.report", "--out"),
    ("allan", "me.allan_deviation", "--out"),
]


class TestEnhanceStartupChecks:
    """A misconfigured expert fails before any window, even on a stream that
    would route nowhere."""

    def run(self, tmp_path, cfg, ckpt_args):
        vals = np.full(64, 200.0)
        src = tmp_path / "in.csv"
        save_csv(SampleSeries(vals, 100.0), src)
        out = tmp_path / "out.csv"
        argv = ["enhance", "--config", cfg, "--input", str(src), "--out", str(out)]
        for flag, path in ckpt_args.items():
            argv += [flag, path]
        code = main(argv)
        assert not out.exists()
        return code

    def test_segment_len_must_tile_into_patches(self, tmp_path, capsys):
        cfg = write_config(tmp_path, segment_len=30)
        ckpt = untrained_checkpoints(tmp_path)
        assert self.run(tmp_path, cfg, {"--ore-ckpt": ckpt["--ore-ckpt"]}) == 2
        assert "segment_len" in capsys.readouterr().err

    def test_segment_len_8_runs_a_patch_4_noise_expert(self, tmp_path):
        # two patches of 4 per window: train-de needs 16, enhance does not
        cfg = write_config(tmp_path, segment_len=8)
        vals = np.random.default_rng(3).normal(0.0, 1.0, 64)  # quiet, so every window routes to noise
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        save_csv(SampleSeries(vals, 100.0), src)
        ckpt = untrained_checkpoints(tmp_path)["--de-ckpt"]
        argv = ["enhance", "--config", cfg, "--input", str(src), "--de-ckpt", ckpt, "--out", str(out)]
        assert main(argv) == 0
        enhanced = load_csv(out).values
        assert enhanced.shape == vals.shape and not np.array_equal(enhanced, vals)

    def test_noise_expert_needs_two_patches(self, tmp_path, capsys):
        cfg = write_config(tmp_path, segment_len=4)
        ckpt = untrained_checkpoints(tmp_path)
        assert self.run(tmp_path, cfg, {"--de-ckpt": ckpt["--de-ckpt"]}) == 2
        assert "noise-expert" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--ore-ckpt", "--de-ckpt"])
    def test_clip_level_must_match(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path)
        ckpt = untrained_checkpoints(tmp_path, clip_level=300.0)
        assert self.run(tmp_path, cfg, {flag: ckpt[flag]}) == 2
        assert "clip_level" in capsys.readouterr().err

    def test_quiet_threshold_on_the_rail_fails_before_reading_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gate={"quiet_run": 8, "quiet_threshold": 450.0})  # clip_level 450
        out = tmp_path / "out.csv"
        code = main(["enhance", "--config", cfg, "--input", str(tmp_path / "absent.csv"), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("error: quiet_threshold ")

    def test_stream_rate_must_match_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # sample_rate 100
        src = tmp_path / "in.csv"
        save_csv(SampleSeries(np.full(64, 200.0), 50.0), src)
        out = tmp_path / "out.csv"
        code = main(["enhance", "--config", cfg, "--input", str(src), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "sample_rate" in capsys.readouterr().err

    def test_rate_error_names_the_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # sample_rate 100
        src = tmp_path / "in.csv"
        save_csv(SampleSeries(np.full(64, 200.0), 50.0), src)
        main(["enhance", "--config", cfg, "--input", str(src), "--out", str(tmp_path / "out.csv")])
        rate = load_csv(src).sample_rate
        assert f"error: --input stream is sampled at {rate!r} Hz, config sample_rate is 100.0 Hz" in capsys.readouterr().err

    def test_stream_rate_is_free_without_a_config_rate(self, tmp_path):
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        del cfg["sample_rate"]
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        src = tmp_path / "in.csv"
        save_csv(SampleSeries(np.full(64, 200.0), 50.0), src)
        out = tmp_path / "out.csv"
        argv = ["enhance", "--config", str(tmp_path / "config.json"), "--input", str(src), "--out", str(out)]
        assert main(argv) == 0 and out.exists()

    def test_corrupt_checkpoint_metadata(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        path = untrained_checkpoints(tmp_path)["--ore-ckpt"]
        arrays, settings = load_checkpoint(path)
        settings["backbone"]["heads"] = 2.5
        save_checkpoint(path, arrays, settings)
        assert self.run(tmp_path, cfg, {"--ore-ckpt": path}) == 2
        assert f"error: checkpoint {path}: settings value backbone.heads = 2.5 is invalid" in capsys.readouterr().err
        assert self.run(tmp_path, cfg, {"--ore-ckpt": str(tmp_path / "missing.ckpt")}) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"t,omega\n0.0,\xb0\n0.01,1.0\n"], ids=["missing", "not_utf8"])
    def test_unreadable_input(self, tmp_path, capsys, content):
        # a missing file and a non-UTF-8 file both print an error, not a traceback
        cfg = write_config(tmp_path)
        src = tmp_path / "in.csv"
        if content is not None:
            src.write_bytes(content)
        out = tmp_path / "out.csv"
        assert main(["enhance", "--config", cfg, "--input", str(src), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err
        if content is not None:
            assert main(["allan", "--input", str(src)]) == 2
            assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command, work, flag", _OUTPUT_CASES,
                             ids=[f"{c}{f}" for c, _, f in _OUTPUT_CASES])
    def test_output_directory_missing(self, tmp_path, capsys, monkeypatch, command, work, flag):
        owner, _, name = work.rpartition(".")
        target = getattr(cli, owner) if owner else cli

        def work_ran(*args, **kwargs):
            pytest.fail(f"{command} did its work before checking {flag}")

        monkeypatch.setattr(target, name, work_ran)
        cfg = write_config(tmp_path)
        src = tmp_path / "in.csv"
        save_csv(SampleSeries(np.full(64, 200.0), 100.0), src)
        existing_dir = tmp_path / "out_dir"
        existing_dir.mkdir()
        made = set(tmp_path.iterdir())
        argv = {
            "train-ore": ["--config", cfg, "--seed", "1"],
            "train-de": ["--config", cfg, "--seed", "1"],
            "enhance": ["--config", cfg, "--input", str(src)],
            "bench": ["--config", cfg, "--raw", str(src), "--enhanced", str(src), "--truth", str(src)],
            "allan": ["--input", str(src)],
        }[command]
        # a path whose directory is missing, and a path that names a directory
        for bad in (str(tmp_path / "no" / "such" / "out.file"), str(existing_dir)):
            if flag == "--out":
                args = argv + ["--out", bad]
            else:
                args = argv + ["--out", str(tmp_path / "out.file"), flag, bad]
            assert main([command] + args) == 2
            assert "error:" in capsys.readouterr().err
            assert set(tmp_path.iterdir()) == made
            assert not any(existing_dir.iterdir())


# config files whose every value passes its own cast but that break a rule a
# config object or a data recipe checks, with the key the error names
_INVALID_FILES = [
    ({"gate.quiet_threshold": 450.0}, "quiet_threshold"),  # on the rail at clip_level 450
    ({"backbone.heads": 3}, "heads 3"),  # embed_dim 8
    ({"backbone.embed_dim": 9, "backbone.heads": 3}, "embed_dim"),
    ({"backbone.sigma_min": 9.0}, "sigma_min"),  # above sigma_init 8
    ({"backbone.gd_placement": "x"}, "gd_placement"),
    ({"train_de.beta": -1}, "beta"),
    ({"train_de.weight_share": "x"}, "weight_share"),
    ({"synth.duration_s": -1}, "duration_s"),
    ({"sample_rate": -5}, "sample_rate"),
    ({"train_de.noise_sigma": -1}, "train_de.noise_sigma"),
    ({"train_ore.amp_lo_x": 3, "train_ore.amp_hi_x": 1.5}, "train_ore.amp_lo_x"),
    ({"train_ore.width_lo_s": 0, "train_ore.width_hi_s": 0}, "train_ore.width_lo_s"),
    ({"train_ore.noise_sigma": -1}, "train_ore.noise_sigma"),
    ({"train_ore.learn_rate": 0}, "train_ore.learn_rate"),
    ({"train_de.learn_rate": -0.001}, "train_de.learn_rate"),
]


class TestEveryCommandChecksTheWholeConfig:
    @pytest.mark.parametrize("changes, named", _INVALID_FILES,
                             ids=["+".join(c) for c, _ in _INVALID_FILES])
    def test_invalid_file_fails_alike_before_any_input(self, tmp_path, capsys, monkeypatch, changes, named):
        work = {command: name for command, name, _ in _OUTPUT_CASES} | {"synth": "synth_motion"}
        for command, name in work.items():
            owner, _, attr = name.rpartition(".")

            def work_ran(*args, command=command, **kwargs):
                pytest.fail(f"{command} did its work on an invalid config")

            monkeypatch.setattr(getattr(cli, owner) if owner else cli, attr, work_ran)
        cfg = json.loads(Path(write_config(tmp_path)).read_text())
        for key, value in changes.items():
            section, _, name = key.rpartition(".")
            (cfg[section] if section else cfg)[name] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        made = set(tmp_path.iterdir())
        missing = str(tmp_path / "absent.csv")
        out = ["--out", str(tmp_path / "out.file")]
        argv = {
            "synth": ["--seed", "1"] + out,
            "train-ore": ["--seed", "1", "--trace", str(tmp_path / "trace.csv")] + out,
            "train-de": ["--seed", "1", "--trace", str(tmp_path / "trace.csv")] + out,
            "enhance": ["--input", missing, "--ore-ckpt", missing, "--de-ckpt", missing] + out,
            "bench": ["--raw", missing, "--enhanced", missing, "--truth", missing] + out,
        }
        errors = set()
        for command, args in argv.items():
            assert main([command, "--config", str(path)] + args) == 2, command
            errors.add(capsys.readouterr().err)
            assert set(tmp_path.iterdir()) == made, command
        (err,) = errors
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err


class TestBench:
    def test_identity_report(self, tmp_path):
        cfg = write_config(tmp_path, bench={"static_region": [0, 256]})
        rng = np.random.default_rng(4)
        truth = rng.normal(0.0, 5.0, size=512)
        truth[300:306] = 500.0
        raw = np.clip(truth, -450.0, 450.0)
        for name, vals in [("truth.csv", truth), ("raw.csv", raw)]:
            save_csv(SampleSeries(vals, 100.0), tmp_path / name)
        out = tmp_path / "report.json"
        code = main(
            [
                "bench",
                "--config",
                cfg,
                "--raw",
                str(tmp_path / "raw.csv"),
                "--enhanced",
                str(tmp_path / "raw.csv"),
                "--truth",
                str(tmp_path / "truth.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["p_mse_reduction_pct"] == pytest.approx(0.0, abs=1e-9)
        assert data["p_mse"] == pytest.approx(2500.0)  # rail sits 50 below the peak
        assert list(data) == sorted(data)

    def test_report_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        rng = np.random.default_rng(5)
        truth = rng.normal(0.0, 5.0, size=256)
        truth[100:104] = 470.0
        save_csv(SampleSeries(truth, 100.0), tmp_path / "t.csv")
        raw = np.clip(truth, -450.0, 450.0)
        save_csv(SampleSeries(raw, 100.0), tmp_path / "r.csv")
        args = [
            "bench",
            "--config",
            cfg,
            "--raw",
            str(tmp_path / "r.csv"),
            "--enhanced",
            str(tmp_path / "r.csv"),
            "--truth",
            str(tmp_path / "t.csv"),
        ]
        main(args + ["--out", str(tmp_path / "rep1.json")])
        main(args + ["--out", str(tmp_path / "rep2.json")])
        assert (tmp_path / "rep1.json").read_bytes() == (tmp_path / "rep2.json").read_bytes()

    def test_each_stream_rate_must_match_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sample_rate=200.0, bench={"static_region": [0, 256]})
        values = np.random.default_rng(6).normal(0.0, 5.0, size=512)
        paths = []
        for name, fs in [("raw", 100.0), ("enhanced", 50.0), ("truth", 25.0)]:
            paths += [f"--{name}", str(tmp_path / f"{name}.csv")]
            save_csv(SampleSeries(values, fs), paths[-1])
        out = tmp_path / "report.json"
        assert main(["bench", "--config", cfg, *paths, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"sampled at {load_csv(paths[1]).sample_rate!r} Hz" in err and "sample_rate is 200.0 Hz" in err
        assert not out.exists()

    @pytest.mark.parametrize("off", ["raw", "enhanced", "truth"])
    def test_rate_error_names_the_stream(self, tmp_path, capsys, off):
        cfg = write_config(tmp_path, sample_rate=200.0, bench={"static_region": [0, 256]})
        values = np.random.default_rng(6).normal(0.0, 5.0, size=512)
        paths = []
        for name in ("raw", "enhanced", "truth"):
            paths += [f"--{name}", str(tmp_path / f"{name}.csv")]
            save_csv(SampleSeries(values, 50.0 if name == off else 200.0), paths[-1])
        out = tmp_path / "report.json"
        assert main(["bench", "--config", cfg, *paths, "--out", str(out)]) == 2
        rate = load_csv(tmp_path / f"{off}.csv").sample_rate
        assert f"error: --{off} stream is sampled at {rate!r} Hz, config sample_rate is 200.0 Hz" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_fails_before_reading_inputs(self, tmp_path, capsys):
        # the inputs do not exist, so only an up-front --out check gives this error
        cfg = write_config(tmp_path)
        missing = str(tmp_path / "absent.csv")
        code = main(["bench", "--config", cfg, "--raw", missing, "--enhanced", missing, "--truth", missing])
        assert code == 2
        assert "bench needs --out" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param("segment_len", 0, id="0"),
        pytest.param("segment_len", -5, id="-5"),
        pytest.param("gate.peak_run", 0, id="gate.peak_run"),
        pytest.param("bench.static_region", [300, 100], id="bench.static_region"),
    ])
    def test_bad_segment_len_fails_before_reading_inputs(self, tmp_path, capsys, key, value):
        section, _, name = key.rpartition(".")
        cfg = write_config(tmp_path, **({section: {name: value}} if section else {name: value}))
        missing = str(tmp_path / "absent.csv")
        out = tmp_path / "report.json"
        code = main(["bench", "--config", cfg, "--raw", missing, "--enhanced", missing, "--truth", missing,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config value {key} = {value!r} ")
        assert not out.exists()


class TestAllan:
    def test_curve_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        save_csv(SampleSeries(rng.normal(size=1024), 100.0), tmp_path / "in.csv")
        out = tmp_path / "curve.csv"
        code = main(["allan", "--input", str(tmp_path / "in.csv"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_s,sigma"
        assert len(lines) == 1 + len([1, 2, 4, 8, 16, 32, 64, 128])
        tau, dev = lines[1].split(",")
        assert float(tau) == pytest.approx(0.01)
        assert float(dev) > 0.0

    def test_stdout_fallback(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        save_csv(SampleSeries(rng.normal(size=64), 10.0), tmp_path / "in.csv")
        assert main(["allan", "--input", str(tmp_path / "in.csv")]) == 0
        assert capsys.readouterr().out.startswith("tau_s,sigma")

    @pytest.mark.parametrize("command, flag", [("allan", "--config"), ("allan", "--seed"),
                                               ("enhance", "--seed"), ("bench", "--seed")])
    def test_flags_the_command_does_not_read_are_rejected(self, tmp_path, command, flag):
        src = str(tmp_path / "in.csv")
        argv = {"allan": ["--input", src], "enhance": ["--config", "c.json", "--input", src],
                "bench": ["--config", "c.json", "--raw", src, "--enhanced", src, "--truth", src]}[command]
        with pytest.raises(SystemExit) as exit_:
            main([command] + argv + [flag, "9"])
        assert exit_.value.code == 2


class TestPublicApi:
    def test_star_import_resolves_every_name(self):
        import gyromoe

        namespace = {}
        exec("from gyromoe import *", namespace)
        assert sorted(gyromoe.__all__) == sorted(n for n in namespace if n != "__builtins__")

    def test_no_module_imports_a_name_it_never_reads(self):
        import gyromoe

        # __init__ imports names only to re-export them
        unread = []
        for path in sorted(Path(gyromoe.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in tree.body:
                if isinstance(node, ast.Import):
                    imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported.update({(a.asname or a.name): node.lineno for a in node.names})
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unread += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
        assert unread == []


# runs every command through the CLI entry point, experts included, and
# reports the exit codes and whether scipy was ever loaded
SCIPY_CHILD = """
import json
import sys

from gyromoe.cli import main

cfg, out = sys.argv[1], sys.argv[2]
data, ore, de = out + "/data", out + "/ore.ckpt", out + "/de.ckpt"
clean, clipped, enhanced = data + "/clean.csv", data + "/clipped.csv", out + "/enhanced.csv"
codes = [
    main(["synth", "--config", cfg, "--seed", "1", "--out", data]),
    main(["train-ore", "--config", cfg, "--seed", "2", "--out", ore]),
    main(["train-de", "--config", cfg, "--seed", "3", "--out", de]),
    main(["enhance", "--config", cfg, "--input", clipped, "--ore-ckpt", ore, "--de-ckpt", de,
          "--out", enhanced]),
    main(["bench", "--config", cfg, "--raw", clipped, "--enhanced", enhanced, "--truth", clean,
          "--out", out + "/report.json"]),
    main(["allan", "--input", clean, "--out", out + "/curve.csv"]),
]
print(json.dumps([codes, "scipy" not in sys.modules]))
"""


class TestNoCommandLoadsScipy:
    def test_every_command_runs_without_scipy(self, tmp_path):
        cfg = write_config(tmp_path)
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", SCIPY_CHILD, cfg, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
        ).stdout
        codes, unloaded = json.loads(out.splitlines()[-1])
        assert codes == [0] * 6
        assert unloaded


class TestLogging:
    def test_invalid_level_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GYROMOE_LOG", "chatty")
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "d")]) == 2
        assert "GYROMOE_LOG" in capsys.readouterr().err

    def test_valid_level_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GYROMOE_LOG", "info")
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "d")]) == 0
