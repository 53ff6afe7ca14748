"""End-to-end differentiable twin of the baseline codec.

Learnable quantization tables live in a scaled domain: the stored parameter
v is the integer divisor table times a scale s (so v is clamped to
[1s, 255s] and exported as round(v / s)).  The forward pass multiplies DCT
coefficients by the reciprocal table s / v and by per-block sparse edit
scores, applies the cubic rounding surrogate (hard rounding at evaluation
time), then dequantizes, inverse-transforms, applies the decoder-side
multiplicative block edits, and converts back to RGB.

Exported tables drop into the standalone codec unchanged, so hard-rounded
coefficients always entropy-encode into stock-decodable streams; the real
Huffman stream of those coefficients is also how bits-per-pixel is measured.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codec import CoefficientGrid, QuantTablePair, entropy_encode
from .codec.blocks import partition_plane
from .codec.color import RGB_FROM_YCBCR, rgb_to_ycbcr
from .codec.dct import FDCT_FLAT, IDCT_FLAT
from .codec.huffman import AC_PEAK
from .codec.jfif import CHANNELS, bits_per_pixel, check_raster
from .codec.quant import round_half_away
from .editor import (
    NamedParams,
    RefinerParams,
    StemParams,
    coefficient_edit_scores,
    edit_scores,
    init_refiner,
    init_stem,
)

# Inverse BT.601 rows: channel = wy*Y + wcb*(Cb-128) + wcr*(Cr-128).
_COLOR_ROWS = {name: RGB_FROM_YCBCR[i] for i, name in enumerate(("R", "G", "B"))}


@dataclass
class PipelineConfig:
    """The model fields of a TrainConfig; build it as ``TrainConfig.pipeline``."""

    hidden_size: int
    kwta_k: int
    refine_steps: int
    table_scale: float
    soft_round_alternate: bool


@dataclass
class LearnableTables(NamedParams):
    """Luminance/chrominance table parameters in the scaled-divisor domain."""

    PREFIX = "qtables"

    luma: Tensor
    chroma: Tensor
    scale: float

    def for_channel(self, channel):
        return self.luma if channel == "Y" else self.chroma

    def clamp_(self):
        """Clamp stored entries into [1s, 255s]; call after every update."""
        np.clip(self.luma.data, self.scale, 255.0 * self.scale, out=self.luma.data)
        np.clip(self.chroma.data, self.scale, 255.0 * self.scale, out=self.chroma.data)


@dataclass
class PipelineParams:
    stem: StemParams
    refiner: RefinerParams
    tables: LearnableTables

    def named(self):
        return {**self.stem.named(), **self.refiner.named(), **self.tables.named()}


@dataclass
class PipelineOutput:
    """Reconstruction, the edit scores that shaped it and, when measured,
    each image's bpp."""

    reconstruction: Tensor  # (B, H, W, 3), float in [0, 255]
    scores: tuple  # (c_L, c_C)
    bpp: list | None = None


def init_tables(scale, rng):
    """Uniform initialization on [1s, 2s]."""
    if scale <= 0:
        raise ValueError(f"table scale must be positive, got {scale}")
    luma = Tensor(rng.uniform(scale, 2.0 * scale, (8, 8)), requires_grad=True)
    chroma = Tensor(rng.uniform(scale, 2.0 * scale, (8, 8)), requires_grad=True)
    return LearnableTables(luma, chroma, float(scale))


def init_pipeline(config, seed=0):
    rng = np.random.default_rng(seed)
    return PipelineParams(
        stem=init_stem(rng),
        refiner=init_refiner(rng, config.hidden_size),
        tables=init_tables(config.table_scale, rng),
    )


def export_tables(tables):
    """Integer divisor tables round(v / s), clamped to [1, 255]."""
    def export(v):
        return np.clip(round_half_away(v.data / tables.scale), 1, 255).astype(np.int64)

    return QuantTablePair(export(tables.luma), export(tables.chroma))


def table_multiplier(tables, channel):
    """Differentiable reciprocal table s / v for a channel, shape (8, 8)."""
    return ad.scalar_mul(ad.reciprocal(tables.for_channel(channel)), tables.scale)


def table_divisor(tables, channel):
    """Differentiable divisor table v / s for a channel, shape (8, 8)."""
    return ad.scalar_mul(tables.for_channel(channel), 1.0 / tables.scale)


def _tile_rows(row_tensor, count):
    """Tile a (1, 64) tensor to (count, 64) differentiably."""
    return ad.matmul(ad.ones((count, 1)), row_tensor)


def _pad_batch(images):
    """Promote to (B, H, W, 3) float and edge-pad to multiples of 8."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[3] != 3:
        raise ValueError(f"expected (B, H, W, 3) images, got shape {arr.shape}")
    b, h, w = arr.shape[:3]
    ph, pw = (-h) % 8, (-w) % 8
    if ph or pw:
        arr = np.pad(arr, ((0, 0), (0, ph), (0, pw), (0, 0)), mode="edge")
    return arr, h, w


def _batch_coefficient_rows(padded):
    """DCT coefficients of every block: channel -> (B*rows*cols, 64) array."""
    ycc = rgb_to_ycbcr(padded)
    blocks = {channel: partition_plane(ycc[..., ci]) for ci, channel in enumerate(CHANNELS)}
    rows = {channel: grid.reshape(-1, 64) @ FDCT_FLAT for channel, grid in blocks.items()}
    return rows, blocks["Y"].shape[:3]


def compute_edit_scores(padded, params, config):
    """Encoder-side scores for an already padded float batch."""
    stem_in = Tensor(padded.transpose(0, 3, 1, 2) / 255.0)
    return edit_scores(stem_in, params.stem, params.refiner, config.kwta_k, config.refine_steps)


def quantize_rows(coeff_rows, scores, params, config, rounding="soft"):
    """Edit-weighted quantization of flattened coefficient rows.

    Returns channel -> (N, 64) tensor.  ``rounding`` is "soft" (cubic
    surrogate, differentiable) or "hard" (constant rounded values).
    """
    c_l, c_c = scores
    n = c_l.shape[0]
    quantized = {}
    for channel in CHANNELS:
        f = coeff_rows[channel]
        f = f if isinstance(f, Tensor) else Tensor(f)
        score = c_l if channel == "Y" else c_c
        m = _tile_rows(ad.reshape(table_multiplier(params.tables, channel), (1, 64)), n)
        product = ad.hadamard_mul(ad.hadamard_mul(f, score), m)
        if rounding == "soft":
            quantized[channel] = ad.soft_round(product, config.soft_round_alternate)
        elif rounding == "hard":
            quantized[channel] = Tensor(round_half_away(product.data))
        else:
            raise ValueError(f"unknown rounding mode {rounding!r}")
    return quantized


def decode_rows(quantized, params, config, geometry, out_height, out_width):
    """Differentiable decode of quantized rows back to a (B, H, W, 3) image."""
    b, rows, cols = geometry
    n = b * rows * cols
    planes = {}
    for channel in CHANNELS:
        divisor = _tile_rows(ad.reshape(table_divisor(params.tables, channel), (1, 64)), n)
        dequant = ad.hadamard_mul(quantized[channel], divisor)
        pixels = ad.matmul(dequant, Tensor(IDCT_FLAT))
        c_dec = coefficient_edit_scores(dequant, params.refiner, config.kwta_k,
                                        config.refine_steps)
        edited = ad.hadamard_mul(pixels, ad.scalar_add(c_dec, 1.0))
        grid = ad.reshape(edited, (b, rows, cols, 8, 8))
        plane = ad.reshape(ad.transpose(grid, (0, 1, 3, 2, 4)), (b, rows * 8, cols * 8))
        plane = ad.narrow(ad.narrow(plane, 1, 0, out_height), 2, 0, out_width)
        planes[channel] = ad.scalar_add(plane, 128.0)

    y, cb, cr = planes["Y"], planes["Cb"], planes["Cr"]
    cb_c = ad.scalar_add(cb, -128.0)
    cr_c = ad.scalar_add(cr, -128.0)
    channels = []
    for name in ("R", "G", "B"):
        wy, wcb, wcr = _COLOR_ROWS[name]
        mixed = ad.add(ad.scalar_mul(y, wy),
                       ad.add(ad.scalar_mul(cb_c, wcb), ad.scalar_mul(cr_c, wcr)))
        channels.append(ad.reshape(mixed, (b, out_height, out_width, 1)))
    return ad.clamp(ad.concat(channels, axis=3), 0.0, 255.0)


def hard_grids(quantized, geometry, height, width):
    """Per-image integer CoefficientGrids from quantized row tensors.

    Values are hard-rounded and clipped to the Huffman-codable AC peak, so
    the entropy coder always accepts them: two DC values so clipped differ
    by less than the DC peak.
    """
    b, rows, cols = geometry
    per_image = []
    for i in range(b):
        grids = []
        for channel in CHANNELS:
            data = quantized[channel].data[i * rows * cols : (i + 1) * rows * cols]
            ints = np.clip(round_half_away(data), -AC_PEAK, AC_PEAK).astype(np.int64)
            grids.append(CoefficientGrid(channel, ints.reshape(rows, cols, 8, 8), height, width))
        per_image.append(tuple(grids))
    return per_image


def measure_bpp(grids, tables_pair):
    """Real-bitstream rate of integer grids: encode and count bits."""
    stream = entropy_encode(grids, tables_pair)
    return bits_per_pixel(stream, grids[0].width, grids[0].height)


def _encode_rows(images, params, config, rounding):
    """The encoder half shared by forward and encode_stream."""
    padded, height, width = _pad_batch(images)
    scores = compute_edit_scores(padded, params, config)
    coeff_rows, geometry = _batch_coefficient_rows(padded)
    quantized = quantize_rows(coeff_rows, scores, params, config, rounding)
    return quantized, scores, geometry, height, width


def forward(images, params, config, rounding="soft", measure_rate=False):
    """Full pipeline: edit scores -> quantize -> decode; optionally bpp."""
    quantized, scores, geometry, height, width = _encode_rows(images, params, config, rounding)
    reconstruction = decode_rows(quantized, params, config, geometry, height, width)

    bpp = None
    if measure_rate:
        exported = export_tables(params.tables)
        bpp = [measure_bpp(g, exported) for g in hard_grids(quantized, geometry, height, width)]
    return PipelineOutput(reconstruction, scores, bpp)


def encode_stream(image, params, config):
    """Hard-round one (H, W, 3) image through the learned pipeline into a
    JFIF stream; ``check_raster`` refuses any other input before any work."""
    image = check_raster(image)
    with ad.no_grad():
        quantized, _, geometry, height, width = _encode_rows(image, params, config, "hard")
    grids = hard_grids(quantized, geometry, height, width)[0]
    return entropy_encode(grids, export_tables(params.tables))
