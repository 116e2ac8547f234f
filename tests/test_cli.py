import json
from pathlib import Path

import numpy as np
import pytest

from gyromoe.backbone import BackboneConfig, init_params
from gyromoe.checkpoint import load_arrays, save_arrays
import gyromoe.cli as cli
from gyromoe.cli import main
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
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, extra, bad):
        cfg = write_config(tmp_path, **extra)
        out = tmp_path / "ore.ckpt"
        assert main(["train-ore", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        assert bad in capsys.readouterr().err
        assert not out.exists()


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

    def test_stream_rate_must_match_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # sample_rate 100
        src = tmp_path / "in.csv"
        save_csv(SampleSeries(np.full(64, 200.0), 50.0), src)
        out = tmp_path / "out.csv"
        code = main(["enhance", "--config", cfg, "--input", str(src), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "sample_rate" in capsys.readouterr().err

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
        arrays = load_arrays(path)
        arrays["meta.gd_placement"] = np.asarray(-1.0)
        save_arrays(path, arrays)
        for ckpt in (path, str(tmp_path / "missing.ckpt")):
            assert self.run(tmp_path, cfg, {"--ore-ckpt": ckpt}) == 2
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
        made = set(tmp_path.iterdir())
        argv = {
            "train-ore": ["--config", cfg, "--seed", "1"],
            "train-de": ["--config", cfg, "--seed", "1"],
            "enhance": ["--config", cfg, "--input", str(src)],
            "bench": ["--config", cfg, "--raw", str(src), "--enhanced", str(src), "--truth", str(src)],
            "allan": ["--input", str(src)],
        }[command]
        missing = str(tmp_path / "no" / "such" / "out.file")
        if flag == "--out":
            argv += ["--out", missing]
        else:
            argv += ["--out", str(tmp_path / "out.file"), flag, missing]
        assert main([command] + argv) == 2
        assert "error:" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == made


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

    def test_missing_out_fails_before_reading_inputs(self, tmp_path, capsys):
        # the inputs do not exist, so only an up-front --out check gives this error
        cfg = write_config(tmp_path)
        missing = str(tmp_path / "absent.csv")
        code = main(["bench", "--config", cfg, "--raw", missing, "--enhanced", missing, "--truth", missing])
        assert code == 2
        assert "bench needs --out" in capsys.readouterr().err


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


class TestPublicApi:
    def test_star_import_resolves_every_name(self):
        import gyromoe

        namespace = {}
        exec("from gyromoe import *", namespace)
        assert sorted(gyromoe.__all__) == sorted(n for n in namespace if n != "__builtins__")


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
