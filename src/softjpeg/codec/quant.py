"""Quantization tables and coefficient quantization.

Rounding is half-away-from-zero throughout, so quantization results are
deterministic and independent of the platform's banker's rounding.
"""

from dataclasses import dataclass

import numpy as np

# Default luminance/chrominance tables (natural row-major order).
LUMA_BASE_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

CHROMA_BASE_TABLE = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int64,
)


@dataclass
class QuantTablePair:
    """Integer luminance + chrominance tables, every entry in [1, 255]."""

    luma: np.ndarray
    chroma: np.ndarray

    def __post_init__(self):
        for name in ("luma", "chroma"):
            # Checked before the int64 cast, which would truncate 1.5 to 1.
            t = np.asarray(getattr(self, name))
            if t.dtype.kind not in "iuf" or not np.all((t >= 1) & (t <= 255) & (t == np.round(t))):
                raise ValueError(f"{name} table entries must be integers in [1, 255]")
            setattr(self, name, t.astype(np.int64).reshape(8, 8))

    def for_channel(self, channel):
        return self.luma if channel == "Y" else self.chroma


def tables_for_quality(quality):
    """Scale the base tables with the conventional libjpeg quality formula.
    ``quality`` is a Python or numpy integer in 1..100, never a bool or a
    float; anything else raises ValueError."""
    if (isinstance(quality, bool) or not isinstance(quality, (int, np.integer))
            or not 1 <= quality <= 100):
        raise ValueError(f"quality must be an integer in 1..100, got {quality!r}")
    q = int(quality)
    scale = 5000 // q if q < 50 else 200 - 2 * q
    luma = np.clip((LUMA_BASE_TABLE * scale + 50) // 100, 1, 255)
    chroma = np.clip((CHROMA_BASE_TABLE * scale + 50) // 100, 1, 255)
    return QuantTablePair(luma, chroma)


def _round_half_away_in_place(x):
    """Round the float64 array ``x`` in place, halves away from zero; one
    temporary (the signs) instead of one per step."""
    sign = np.sign(x)
    np.abs(x, out=x)
    x += 0.5
    np.floor(x, out=x)
    x *= sign
    return x


def round_half_away(x):
    """Round to nearest, halves away from zero."""
    return _round_half_away_in_place(np.array(x, dtype=np.float64))


def quantize_blocks(coeffs, table):
    """Quantize (..., 8, 8) coefficient blocks by an 8x8 divisor table."""
    quotients = np.divide(coeffs, table, dtype=np.float64)
    return _round_half_away_in_place(quotients).astype(np.int64)
