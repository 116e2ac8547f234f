"""Range-and-noise enhancement for MEMS gyro streams.

Two self-supervised experts share a masked-autoencoder backbone: one
reconstructs saturated peaks past the sensor's clip rail, the other
suppresses noise on quiet stretches. A rule-based gate routes fixed-length
segments to whichever expert its signal shape calls for and splices the
outputs back into the stream. The ``metrics`` module carries the
evaluation bench (peak PSNR/MSE/correlation, SNR, Allan-deviation noise
figures) plus classical smoothing and extrapolation baselines.
"""

import logging
import os

# glibc malloc policy set once on import: blocks below _MMAP_THRESHOLD come
# from the heap, and up to _TRIM_THRESHOLD of freed heap stays mapped, so one
# training tape's freed activations are reused by the next chunk's forward
# instead of being returned to the kernel and faulted back in
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 16 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of glibc's <malloc.h>
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def _keep_heap() -> bool:
    """Set the malloc thresholds above on glibc; returns whether they were set.

    A policy already chosen in the environment (glibc's ``MALLOC_*_``
    variables or a ``glibc.malloc.`` tunable) is left alone.
    """
    log = logging.getLogger("gyromoe")
    if any(name in os.environ for name in _MALLOC_ENV) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        log.debug("malloc policy left to the environment")
        return False
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        log.debug("not glibc: malloc policy left as is")
        return False
    import ctypes

    libc = ctypes.CDLL(None)
    if not (libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) and libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)):
        log.debug("mallopt refused the malloc thresholds: policy left as is")
        return False
    return True


_heap_kept = _keep_heap()

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
