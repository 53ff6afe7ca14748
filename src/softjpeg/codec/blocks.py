"""Plane <-> 8x8 block conversion with edge-replication padding and level shift."""

from dataclasses import dataclass

import numpy as np

BLOCK = 8
LEVEL_SHIFT = 128.0
# MCUs per band: the encoder transforms, quantizes and Huffman-codes a band of
# MCU rows at a time, so its temporaries never cover the whole frame.
BAND_MCUS = 256


@dataclass
class CoefficientGrid:
    """Per-channel grid of 8x8 coefficient blocks.

    ``blocks`` has shape (rows, cols, 8, 8); real-valued before quantization,
    integer afterwards.  ``height``/``width`` are the unpadded plane size.
    """

    channel: str  # one of "Y", "Cb", "Cr"
    blocks: np.ndarray
    height: int
    width: int

    def __post_init__(self):
        if self.blocks.ndim != 4 or self.blocks.shape[2:] != (BLOCK, BLOCK):
            raise ValueError(f"expected (rows, cols, 8, 8) blocks, got {self.blocks.shape}")
        rows = -(-self.height // BLOCK)
        cols = -(-self.width // BLOCK)
        if self.blocks.shape[:2] != (rows, cols):
            raise ValueError(
                f"block grid {self.blocks.shape[:2]} does not cover a "
                f"{self.height}x{self.width} plane"
            )


def partition_plane(plane):
    """Split (..., H, W) planes into level-shifted blocks of shape (..., rows, cols, 8, 8).

    Planes are first padded to multiples of 8 by replicating the last row and column.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.size == 0:
        raise ValueError("cannot partition an empty plane")
    pad = [(0, 0)] * (plane.ndim - 2) + [(0, -n % BLOCK) for n in plane.shape[-2:]]
    if any(after for _, after in pad):
        plane = np.pad(plane, pad, mode="edge")
    padded = plane - LEVEL_SHIFT
    *lead, ph, pw = padded.shape
    return np.swapaxes(padded.reshape(*lead, ph // BLOCK, BLOCK, pw // BLOCK, BLOCK), -3, -2)


def mcu_row_bands(rows, cols):
    """Slices of MCU rows, of about ``BAND_MCUS`` MCUs each, covering a grid
    of ``rows`` x ``cols`` MCUs top to bottom."""
    step = max(1, BAND_MCUS // max(cols, 1))
    return [slice(top, min(top + step, rows)) for top in range(0, rows, step)]
