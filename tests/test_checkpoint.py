import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from gyromoe import backbone as bb
from gyromoe.backbone import GD_PLACEMENTS, BackboneConfig, init_params
from gyromoe.checkpoint import (
    FORMAT_TAG,
    load_arrays,
    load_checkpoint,
    save_arrays,
    save_checkpoint,
)
from gyromoe.denoise import SHARE_MODES, DeConfig, build_de_params, load_de, save_de
from gyromoe.errors import CheckpointError, ConfigError, ContractError, DimensionError
from gyromoe.ore import OreConfig, load_ore, save_ore
from gyromoe.signal import ClipSpec


def sample_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=4),
        "sigma": np.asarray(rng.normal()),
    }


class TestRoundTrip:
    def test_exact_values(self, tmp_path):
        arrays = sample_arrays()
        path = tmp_path / "model.ckpt"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].shape == arr.shape

    def test_scalar_shape_preserved(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_arrays(path, {"x": np.asarray(2.5)})
        assert load_arrays(path)["x"].shape == ()

    def test_byte_determinism(self, tmp_path):
        arrays = sample_arrays(1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_arrays(p1, arrays)
        save_arrays(p2, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_sorted_text(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_arrays(path, sample_arrays(2))
        header = path.read_bytes().split(b"\n\n", 1)[0].decode()
        lines = header.split("\n")
        assert lines[0] == FORMAT_TAG
        assert lines[1] == "3"
        names = [ln.split()[0] for ln in lines[2:]]
        assert names == sorted(names)

    def test_meta_round_trip(self, tmp_path):
        path = tmp_path / "meta.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))}, {"kind": 1.0, "patch_len": 16.0})
        arrays, meta = load_checkpoint(path)
        assert set(arrays) == {"w"}
        assert meta == {"kind": 1.0, "patch_len": 16.0}


class TestValidation:
    def test_bad_name_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_arrays(tmp_path / "x.ckpt", {"has space": np.ones(2)})

    def test_wrong_tag(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_arrays(path, {"w": np.ones(2)})
        raw = path.read_bytes().replace(FORMAT_TAG.encode(), b"other-format-v9")
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="format"):
            load_arrays(path)

    def test_v1_file_is_refused(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_arrays(path, {"w": np.ones(2)})
        path.write_bytes(path.read_bytes().replace(FORMAT_TAG.encode(), b"gyromoe-ckpt-v1"))
        with pytest.raises(CheckpointError) as err:
            load_arrays(path)
        assert str(err.value) == "unknown checkpoint format 'gyromoe-ckpt-v1', expected 'gyromoe-ckpt-v2'"

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_arrays(path, {"w": np.ones(8)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_arrays(path)

    def test_missing_header_terminator(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(FORMAT_TAG.encode() + b"\n1\nw 1 2 0\n")
        with pytest.raises(CheckpointError):
            load_arrays(path)

    def test_garbled_entry_line(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(FORMAT_TAG.encode() + b"\n1\nw one 2 0\n\n" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_arrays(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_arrays(path, {"w": np.ones(2)})
        raw = path.read_bytes().replace(b"\n1\n", b"\n2\n", 1)
        path.write_bytes(raw)
        with pytest.raises(CheckpointError):
            load_arrays(path)


# every field away from its default, so a field the codec drops shows up
ODD_BACKBONE = BackboneConfig(
    patch_len=2, embed_dim=6, enc_layers=2, dec_layers=3, heads=3, mlp_ratio=3,
    gd_placement="both", sigma_init=2.5, sigma_min=0.25, sigma_max=50.0,
)


# the geometry of the C11 pipeline's experts
C11_BACKBONE = BackboneConfig(patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2)
LOADERS = {"ore": load_ore, "de": load_de}


def write_expert(tmp_path, expert: str, backbone: BackboneConfig):
    """An untrained ``expert`` checkpoint at ``backbone`` geometry; returns its path."""
    path = tmp_path / f"{expert}.ckpt"
    rng = np.random.default_rng(4)
    if expert == "ore":
        save_ore(path, init_params(backbone, rng), OreConfig(clip=ClipSpec(1.0), backbone=backbone))
    else:
        cfg = DeConfig(clip=ClipSpec(1.0), backbone=backbone)
        save_de(path, build_de_params(cfg, rng), cfg)
    return path


def assert_same_arrays(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


class TestExpertCodec:
    def test_odd_backbone_sets_every_field(self):
        default = BackboneConfig()
        same = [f.name for f in dataclasses.fields(BackboneConfig)
                if getattr(ODD_BACKBONE, f.name) == getattr(default, f.name)]
        assert same == []

    @pytest.mark.parametrize("placement", GD_PLACEMENTS)
    def test_ore_round_trip_keeps_every_field(self, tmp_path, placement):
        backbone = dataclasses.replace(ODD_BACKBONE, gd_placement=placement)
        cfg = OreConfig(clip=ClipSpec(123.5), backbone=backbone)
        params = init_params(backbone, np.random.default_rng(1))
        path = tmp_path / "ore.ckpt"
        save_ore(path, params, cfg)
        params2, cfg2 = load_ore(path)
        assert cfg2.backbone == backbone
        assert cfg2.clip == cfg.clip
        assert_same_arrays(params.to_arrays(), params2.to_arrays())

    @pytest.mark.parametrize("share", SHARE_MODES)
    def test_de_round_trip_keeps_every_field(self, tmp_path, share):
        cfg = DeConfig(clip=ClipSpec(77.0), backbone=ODD_BACKBONE, weight_share=share)
        params = build_de_params(cfg, np.random.default_rng(2))
        path = tmp_path / "de.ckpt"
        save_de(path, params, cfg)
        params2, cfg2 = load_de(path)
        assert (cfg2.backbone, cfg2.clip, cfg2.weight_share) == (ODD_BACKBONE, cfg.clip, share)
        assert_same_arrays(params.to_arrays(), params2.to_arrays())

    def test_truncated_expert_checkpoint(self, tmp_path):
        cfg = OreConfig(clip=ClipSpec(1.0), backbone=ODD_BACKBONE)
        path = tmp_path / "ore.ckpt"
        save_ore(path, init_params(ODD_BACKBONE, np.random.default_rng(3)), cfg)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_ore(path)

    @pytest.mark.parametrize(
        "expert, key, value, error",
        [
            ("ore", "patch_len", np.array([2.0, 2.0]), CheckpointError),
            ("ore", "patch_len", math.nan, ConfigError),
            ("ore", "patch_len", 2.7, ConfigError),
            ("ore", "heads", math.inf, ConfigError),
            ("ore", "sigma_max", math.inf, ConfigError),
            ("ore", "gd_placement", -1.0, ConfigError),
            ("de", "weight_share", math.nan, ConfigError),
            ("de", "weight_share", -1.0, ConfigError),
        ],
        ids=["non-scalar", "nan-int", "fractional-int", "inf-int", "inf-float", "negative-placement",
             "nan-share", "negative-share"],
    )
    def test_corrupt_metadata_is_a_named_error(self, tmp_path, expert, key, value, error):
        path = write_expert(tmp_path, expert, ODD_BACKBONE)
        arrays = load_arrays(path)
        arrays[f"meta.{key}"] = np.asarray(value)
        save_arrays(path, arrays)
        with pytest.raises(error):
            LOADERS[expert](path)

    @pytest.mark.parametrize("expert", ["ore", "de"])
    def test_non_finite_weight_is_a_contract_error(self, tmp_path, expert):
        path = write_expert(tmp_path, expert, ODD_BACKBONE)
        arrays = load_arrays(path)
        name = next(n for n in sorted(arrays) if n.endswith("attn.wq"))
        arrays[name][1, 2] = math.nan
        save_arrays(path, arrays)
        with pytest.raises(ContractError, match=f"{re.escape(str(path))}.*'{re.escape(name)}'"):
            LOADERS[expert](path)

    @pytest.mark.parametrize("expert", ["ore", "de"])
    @pytest.mark.parametrize(
        "key, value, error",
        [("embed_dim", 256.0, DimensionError), ("gd_placement", 0.0, ConfigError),
         ("enc_layers", 2.0, ConfigError)],
        ids=["wider", "array-unknown", "array-missing"],
    )
    def test_arrays_that_disagree_with_metadata_fail_first(self, tmp_path, expert, key, value, error):
        # C11 geometry; the metadata claims another, so the arrays no longer fit it
        path = write_expert(tmp_path, expert, C11_BACKBONE)
        arrays = load_arrays(path)
        arrays[f"meta.{key}"] = np.asarray(value)
        save_arrays(path, arrays)
        tracemalloc.start()
        try:
            with pytest.raises(error):
                LOADERS[expert](path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("expert", ["ore", "de"])
    def test_loading_draws_no_parameters(self, tmp_path, monkeypatch, expert):
        path = write_expert(tmp_path, expert, ODD_BACKBONE)
        want = load_arrays(path)

        def refuse(*args):
            raise AssertionError("a loader drew a parameter")

        monkeypatch.setattr(bb, "init_param_array", refuse)
        params, _ = LOADERS[expert](path)
        assert_same_arrays(params.to_arrays(), {k: v for k, v in want.items() if not k.startswith("meta.")})
