"""Range-and-noise enhancement for MEMS gyro streams.

Two self-supervised experts share a masked-autoencoder backbone: one
reconstructs saturated peaks past the sensor's clip rail, the other
suppresses noise on quiet stretches. A rule-based gate routes fixed-length
segments to whichever expert its signal shape calls for and splices the
outputs back into the stream. The ``metrics`` module carries the
evaluation bench (peak PSNR/MSE/correlation, SNR, Allan-deviation noise
figures) plus classical smoothing and extrapolation baselines.
"""

from .backbone import BackboneConfig, gd_attention, gd_bias
from .denoise import (
    AugmentConfig,
    DeConfig,
    cross_masks,
    load_de,
    make_noise_fn,
    save_de,
    train_de,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    CsvFormatError,
    CsvParseError,
    DimensionError,
    GyroMoeError,
    MaskError,
)
from .gate import GateConfig, RouteDecision, enhance, route
from .metrics import (
    AllanCurve,
    MetricReport,
    allan_deviation,
    angle_random_walk,
    bias_instability,
    pearson_corr,
    percent_reduction,
    poly_extrapolate_peaks,
    psnr,
    quantization_noise,
    report,
    savgol,
    snr,
)
from .ore import (
    OreConfig,
    corr_loss,
    load_ore,
    make_peak_fn,
    ore_total_loss,
    pinn_loss,
    reconstruct,
    save_ore,
    train_ore,
)
from .signal import ClipSpec, SampleSeries, SynthConfig, load_csv, save_csv, synth_motion

__version__ = "0.1.0"

__all__ = [
    "AllanCurve",
    "AugmentConfig",
    "BackboneConfig",
    "CheckpointError",
    "ClipSpec",
    "ConfigError",
    "ContractError",
    "CsvFormatError",
    "CsvParseError",
    "DeConfig",
    "DimensionError",
    "GateConfig",
    "GyroMoeError",
    "MaskError",
    "MetricReport",
    "OreConfig",
    "RouteDecision",
    "SampleSeries",
    "SynthConfig",
    "allan_deviation",
    "angle_random_walk",
    "bias_instability",
    "corr_loss",
    "cross_masks",
    "enhance",
    "gd_attention",
    "gd_bias",
    "load_csv",
    "load_de",
    "load_ore",
    "make_noise_fn",
    "make_peak_fn",
    "ore_total_loss",
    "pearson_corr",
    "percent_reduction",
    "pinn_loss",
    "poly_extrapolate_peaks",
    "psnr",
    "quantization_noise",
    "reconstruct",
    "report",
    "route",
    "save_csv",
    "save_de",
    "save_ore",
    "savgol",
    "snr",
    "synth_motion",
    "train_de",
    "train_ore",
]
