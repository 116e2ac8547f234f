import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from gyromoe import backbone as bb
from gyromoe.backbone import GD_PLACEMENTS, BackboneConfig, init_params
from gyromoe.checkpoint import FORMAT_TAG, load_checkpoint, save_checkpoint
from gyromoe.denoise import SHARE_MODES, DeConfig, build_de_params, denoise, load_de, save_de
from gyromoe.errors import CheckpointError, ConfigError, ContractError, DimensionError, GyroMoeError
from gyromoe.ore import OreConfig, load_ore, reconstruct, save_ore
from gyromoe.signal import ClipSpec


def sample_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=4),
        "sigma": np.asarray(rng.normal()),
    }


def write_arrays(path, arrays):
    save_checkpoint(path, arrays, {})


def read_arrays(path):
    return load_checkpoint(path)[0]


class TestRoundTrip:
    def test_exact_values(self, tmp_path):
        arrays = sample_arrays()
        path = tmp_path / "model.ckpt"
        write_arrays(path, arrays)
        loaded = read_arrays(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].shape == arr.shape

    def test_any_layout_writes_its_float64_values(self, tmp_path):
        # strided, big-endian, float32, integer and empty arrays, the empty one last in the file
        w = np.random.default_rng(5).normal(size=(4, 3))
        arrays = {"t": w.T, "be": w.astype(">f8"), "f32": w.astype(np.float32), "i": np.arange(5),
                  "zz": np.zeros((0, 3))}
        plain = {name: np.array(arr, dtype=np.float64, order="C") for name, arr in arrays.items()}
        p1, p2 = tmp_path / "any.ckpt", tmp_path / "plain.ckpt"
        write_arrays(p1, arrays)
        write_arrays(p2, plain)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = read_arrays(p1)
        for name, arr in plain.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].shape == arr.shape and loaded[name].dtype == np.float64
            assert loaded[name].flags.writeable  # a copy: a view of the file's bytes is read-only

    def test_scalar_shape_preserved(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_arrays(path, {"x": np.asarray(2.5)})
        assert read_arrays(path)["x"].shape == ()

    def test_byte_determinism(self, tmp_path):
        arrays = sample_arrays(1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, arrays, {"kind": "x", "clip_level": 2.0})
        save_checkpoint(p2, dict(reversed(list(arrays.items()))), {"clip_level": 2.0, "kind": "x"})
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_sorted_text(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, sample_arrays(2), {"kind": "x", "backbone": {"heads": 2, "embed_dim": 8}})
        header = path.read_bytes().split(b"\n\n", 1)[0].decode()
        lines = header.split("\n")
        assert lines[0] == FORMAT_TAG
        assert lines[1] == '{"backbone": {"embed_dim": 8, "heads": 2}, "kind": "x"}'
        assert lines[2] == "3"
        names = [ln.split()[0] for ln in lines[3:]]
        assert names == sorted(names)

    def test_settings_round_trip(self, tmp_path):
        path = tmp_path / "settings.ckpt"
        settings = {"kind": "peak-expert", "clip_level": 0.1 + 0.2, "backbone": {"patch_len": 16}}
        save_checkpoint(path, {"w": np.ones((2, 2))}, settings)
        arrays, loaded = load_checkpoint(path)
        assert set(arrays) == {"w"}
        assert loaded == settings


class TestValidation:
    def test_bad_name_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            write_arrays(tmp_path / "x.ckpt", {"has space": np.ones(2)})

    def test_wrong_tag(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_arrays(path, {"w": np.ones(2)})
        raw = path.read_bytes().replace(FORMAT_TAG.encode(), b"other-format-v9")
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="format"):
            read_arrays(path)

    @pytest.mark.parametrize("tag", ["gyromoe-ckpt-v1", "gyromoe-ckpt-v2"])
    def test_v1_file_is_refused(self, tmp_path, tag):
        path = tmp_path / "x.ckpt"
        write_arrays(path, {"w": np.ones(2)})
        path.write_bytes(path.read_bytes().replace(FORMAT_TAG.encode(), tag.encode()))
        with pytest.raises(CheckpointError) as err:
            read_arrays(path)
        assert str(err.value) == f"unknown checkpoint format '{tag}', expected 'gyromoe-ckpt-v3'"

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_arrays(path, {"w": np.ones(8)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            read_arrays(path)

    def test_missing_header_terminator(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(FORMAT_TAG.encode() + b"\n{}\n1\nw 1 2 0\n")
        with pytest.raises(CheckpointError):
            read_arrays(path)

    def test_garbled_entry_line(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(FORMAT_TAG.encode() + b"\n{}\n1\nw one 2 0\n\n" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            read_arrays(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_arrays(path, {"w": np.ones(2)})
        raw = path.read_bytes().replace(b"\n1\n", b"\n2\n", 1)
        path.write_bytes(raw)
        with pytest.raises(CheckpointError):
            read_arrays(path)

    @pytest.mark.parametrize("line", [b"{kind: 1}", b"[1, 2]", b""], ids=["not-json", "not-object", "empty"])
    def test_settings_line_must_be_a_json_object(self, tmp_path, line):
        path = tmp_path / "x.ckpt"
        path.write_bytes(FORMAT_TAG.encode() + b"\n" + line + b"\n1\nw 1 2 0\n\n" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="settings"):
            read_arrays(path)


# every field away from its default, so a field the codec drops shows up
ODD_BACKBONE = BackboneConfig(
    patch_len=2, embed_dim=6, enc_layers=2, dec_layers=3, heads=3, mlp_ratio=3,
    gd_placement="both", sigma_init=2.5, sigma_min=0.25, sigma_max=50.0,
)


# the geometry of the C11 pipeline's experts
C11_BACKBONE = BackboneConfig(patch_len=4, embed_dim=8, enc_layers=1, dec_layers=1, heads=2, mlp_ratio=2)
LOADERS = {"ore": load_ore, "de": load_de}


def write_expert(tmp_path, expert: str, backbone: BackboneConfig, weight_share: str = "both"):
    """An untrained ``expert`` checkpoint at ``backbone`` geometry; returns its path."""
    path = tmp_path / f"{expert}.ckpt"
    rng = np.random.default_rng(4)
    if expert == "ore":
        save_ore(path, init_params(backbone, rng), OreConfig(clip=ClipSpec(1.0), backbone=backbone))
    else:
        cfg = DeConfig(clip=ClipSpec(1.0), backbone=backbone, weight_share=weight_share)
        save_de(path, build_de_params(cfg, rng), cfg)
    return path


DROP = object()  # an edit_settings value that removes the key


def edit_settings(path, key: str, value):
    """Rewrite the expert file at ``path`` with its settings key ``key``
    (``section.key`` inside a section) set to ``value``, or removed."""
    arrays, settings = load_checkpoint(path)
    *sections, last = key.split(".")
    owner = settings
    for section in sections:
        owner = owner[section]
    if value is DROP:
        del owner[last]
    else:
        owner[last] = value
    save_checkpoint(path, arrays, settings)


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

    # each bad value, and what the error names beside the file
    @pytest.mark.parametrize(
        "expert, key, value, named",
        [
            ("ore", "backbone.patch_len", math.nan, "backbone.patch_len"),
            ("ore", "backbone.patch_len", 2.7, "backbone.patch_len"),
            ("ore", "backbone.heads", math.inf, "backbone.heads"),
            ("ore", "backbone.heads", True, "backbone.heads"),
            ("ore", "backbone.sigma_max", math.inf, "backbone.sigma_max"),
            ("ore", "clip_level", math.nan, "clip_level"),
            ("ore", "clip_level", -1.0, "clip level"),
            ("ore", "backbone.gd_placement", "sideways", "gd_placement"),
            ("ore", "backbone.gd_placement", 1, "backbone.gd_placement"),
            ("de", "weight_share", "halves", "weight_share"),
            ("de", "weight_share", 3, "weight_share"),
            ("ore", "backbone.heads", DROP, "backbone.heads"),
            ("ore", "clip_level", DROP, "clip_level"),
            ("de", "weight_share", DROP, "weight_share"),
            ("ore", "backbone.depth", 3, "depth"),
            ("ore", "weight_share", "both", "weight_share"),
            ("ore", "backbone", [1], "backbone"),
            ("ore", "kind", "noise-expert", "kind"),
            ("ore", "kind", DROP, "kind"),
        ],
        ids=["nan-int", "fractional-int", "inf-int", "bool-int", "inf-float", "nan-clip", "negative-clip",
             "unknown-placement", "placement-index", "unknown-share", "share-index", "missing-backbone-key",
             "missing-clip", "missing-share", "unknown-backbone-key", "unknown-key", "section-not-object",
             "wrong-kind", "missing-kind"],
    )
    def test_bad_settings_are_errors_naming_file_and_key(self, tmp_path, expert, key, value, named):
        path = write_expert(tmp_path, expert, ODD_BACKBONE)
        edit_settings(path, key, value)
        with pytest.raises(ConfigError) as err:
            LOADERS[expert](path)
        assert str(path) in str(err.value) and named in str(err.value)

    @pytest.mark.parametrize("written, read_as", [("ore", "de"), ("de", "ore")])
    def test_file_of_the_other_kind_is_refused(self, tmp_path, written, read_as):
        path = write_expert(tmp_path, written, ODD_BACKBONE)
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: settings value kind"):
            LOADERS[read_as](path)

    @pytest.mark.parametrize("expert", ["ore", "de"])
    def test_non_finite_weight_is_a_contract_error(self, tmp_path, expert):
        path = write_expert(tmp_path, expert, ODD_BACKBONE)
        arrays, settings = load_checkpoint(path)
        name = next(n for n in sorted(arrays) if n.endswith("attn.wq"))
        arrays[name][1, 2] = math.nan
        save_checkpoint(path, arrays, settings)
        with pytest.raises(ContractError, match=f"{re.escape(str(path))}.*'{re.escape(name)}'"):
            LOADERS[expert](path)

    @pytest.mark.parametrize("expert", ["ore", "de"])
    @pytest.mark.parametrize(
        "key, value, error",
        [("backbone.embed_dim", 256, DimensionError), ("backbone.gd_placement", "none", ConfigError),
         ("backbone.enc_layers", 2, ConfigError)],
        ids=["wider", "array-unknown", "array-missing"],
    )
    def test_arrays_that_disagree_with_settings_fail_first(self, tmp_path, expert, key, value, error):
        # C11 geometry; the settings claim another, so the arrays no longer fit it
        path = write_expert(tmp_path, expert, C11_BACKBONE)
        edit_settings(path, key, value)
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
        want = read_arrays(path)

        def refuse(*args):
            raise AssertionError("a loader drew a parameter")

        monkeypatch.setattr(bb, "init_param_array", refuse)
        params, _ = LOADERS[expert](path)
        assert_same_arrays(params.to_arrays(), want)


SAVERS = {"ore": save_ore, "de": save_de}
# (expert, weight_share): the peak expert has no branches to share
EXPERT_FILES = [("ore", "both"), ("de", "none"), ("de", "both")]
EXPERT_IDS = ["ore", "de-none", "de-both"]
RUNNERS = {"ore": reconstruct, "de": denoise}


def traced(fn):
    """``fn()``'s result with the bytes it left allocated and its peak."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
        return out, held, peak
    finally:
        tracemalloc.stop()


def param_bytes(params) -> int:
    return sum(p.tensor.data.nbytes for p in params.all_params())


class TestExpertMemory:
    """At the default geometry a save holds no copy of the parameters, and a
    loaded expert holds them once: the file's bytes are freed after the load,
    and no gradient buffer is made unless training asks for one."""

    @pytest.fixture(params=EXPERT_FILES, ids=EXPERT_IDS)
    def expert_file(self, request, tmp_path):
        expert, share = request.param
        return expert, write_expert(tmp_path, expert, BackboneConfig(), share)

    def test_save_copies_no_parameter(self, expert_file):
        expert, path = expert_file
        params, config = LOADERS[expert](path)
        SAVERS[expert](path, params, config)  # warm: one-time allocations stay out of the peak
        _, _, peak = traced(lambda: SAVERS[expert](path, params, config))
        assert peak <= 0.25 * param_bytes(params)

    def test_load_holds_the_parameters_once(self, expert_file):
        expert, path = expert_file
        LOADERS[expert](path)
        (params, _), held, peak = traced(lambda: LOADERS[expert](path))
        assert peak <= 2.25 * param_bytes(params)  # the file's bytes and the arrays read from them
        assert held <= 1.25 * param_bytes(params)

    def test_inference_makes_no_gradient_buffer(self, expert_file):
        expert, path = expert_file
        # one quiet window with a short run on the rail
        x = 0.01 * np.sin(np.arange(BackboneConfig().patch_len * 8))[None, :]
        x[:, 20:26] = 1.0

        def load_and_run():
            params, config = LOADERS[expert](path)
            RUNNERS[expert](x * config.clip.level, params, config)
            return params

        load_and_run()
        params, held, _ = traced(load_and_run)
        assert held <= 1.25 * param_bytes(params)

    @pytest.mark.parametrize("expert, share", EXPERT_FILES, ids=EXPERT_IDS)
    def test_save_load_save_keeps_the_bytes(self, tmp_path, expert, share):
        path = write_expert(tmp_path, expert, ODD_BACKBONE, share)
        params, config = LOADERS[expert](path)
        again = tmp_path / "again.ckpt"
        SAVERS[expert](again, params, config)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "expert, share, digest",
        [
            ("ore", "both", "0389f5f9938429ddad0506b24b469c518cc6c22ca53db30328fe46328964e011"),
            ("de", "none", "628dd664399042ff84682bc4a6025f253c690b80ed16b6a9fb13ca611849b2a3"),
            ("de", "both", "0fcb82d99679c9ffab872e077ae6b2659cd29798aa99ccf16233eb31ae5c61e3"),
        ],
        ids=EXPERT_IDS,
    )
    def test_seeded_c11_expert_bytes_are_pinned(self, tmp_path, expert, share, digest):
        path = write_expert(tmp_path, expert, C11_BACKBONE, share)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestHeaderBitFlips:
    """A flipped bit in an expert file's header either loads or fails with a
    named error, never another exception."""

    @pytest.mark.parametrize("expert, share", [("ore", "both"), ("de", "none")], ids=["ore", "de-none"])
    def test_each_flip_loads_or_is_a_named_error(self, tmp_path, expert, share):
        path = write_expert(tmp_path, expert, C11_BACKBONE, share)
        raw = path.read_bytes()
        tag_end = raw.index(b"\n")
        settings_end = raw.index(b"\n", tag_end + 1)
        # every bit of the settings line, and one bit of each other header byte
        flips = [(i, bit) for i in range(tag_end + 1, settings_end) for bit in range(8)]
        flips += [(i, i % 8) for i in (*range(tag_end + 1), *range(settings_end, raw.index(b"\n\n") + 2))]
        for i, bit in flips:
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            path.write_bytes(flipped)
            try:
                LOADERS[expert](path)
            except GyroMoeError:
                pass
            except Exception as exc:  # any other type fails the test, naming the flip
                pytest.fail(f"flipping bit {bit} of header byte {i} raised {exc!r}")
