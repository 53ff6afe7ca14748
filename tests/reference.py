"""Reference code the tests compare the library against.

The codec's float inverse path (dequantize, inverse DCT, stitch, YCbCr to
RGB) is the textbook counterpart of the encoder; the library decodes with
the integer path of ``codec.intdecode`` instead, so only tests use these.
``grad_check`` compares ``autodiff`` gradients with central differences.
``kwta_stable_argsort`` is the sort-based form of ``autodiff.kwta``.
"""

import numpy as np

from softjpeg.autodiff import Tensor, backward
from softjpeg.codec.blocks import BLOCK, LEVEL_SHIFT
from softjpeg.codec.color import RGB_FROM_YCBCR
from softjpeg.codec.dct import DCT_MATRIX

_CHROMA_OFFSET = np.array([0.0, 128.0, 128.0])


def idct_blocks(coeffs):
    """Inverse of ``codec.fdct_blocks`` on every 8x8 block of a (..., 8, 8) array."""
    return np.einsum("ux,...uv,vy->...xy", DCT_MATRIX, coeffs, DCT_MATRIX, optimize=True)


def dequantize_blocks(quantized, table):
    return np.asarray(quantized, dtype=np.float64) * table


def assemble_plane(blocks, height, width):
    """Inverse of ``codec.partition_plane``: unshift, stitch and crop to size."""
    rows, cols = blocks.shape[:2]
    plane = blocks.transpose(0, 2, 1, 3).reshape(rows * BLOCK, cols * BLOCK)
    return plane[:height, :width] + LEVEL_SHIFT


def ycbcr_to_rgb_float(ycc):
    """Inverse of ``codec.rgb_to_ycbcr`` without rounding or clamping."""
    ycc = np.asarray(ycc, dtype=np.float64)
    return (ycc - _CHROMA_OFFSET) @ RGB_FROM_YCBCR.T


def ycbcr_to_rgb(ycc):
    """Convert float YCbCr planes back to an (H, W, 3) uint8 RGB raster."""
    return np.clip(np.rint(ycbcr_to_rgb_float(ycc)), 0.0, 255.0).astype(np.uint8)


def grad_check(fn, x, eps=1e-4):
    """Compare analytic gradients of a scalar-valued closure to central differences.

    Returns the max relative error with denominator max(|a|, |b|, 1e-8).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = fn(probe)
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros(probe.shape)

    numeric = np.zeros(probe.shape)
    flat = probe.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(Tensor(probe.data.copy())).item()
        flat[i] = orig - eps
        lo = fn(Tensor(probe.data.copy())).item()
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def kwta_stable_argsort(values, k):
    """Top-k by magnitude along the last axis through a full stable sort on
    -|v|, so equal magnitudes keep ascending index order; 0 < k < n."""
    n = values.shape[-1]
    flat = values.reshape(-1, n)
    order = np.argsort(-np.abs(flat), axis=1, kind="stable")
    mask = np.zeros_like(flat)
    np.put_along_axis(mask, order[:, :k], 1.0, axis=1)
    return values * mask.reshape(values.shape)
