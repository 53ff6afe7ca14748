"""Orthonormal 8x8 type-II DCT and its inverse.

The basis matrix D satisfies D @ D.T == I, so fdct(x) = D x D^T and
idct(c) = D^T c D invert each other exactly up to float64 rounding.
"""

import numpy as np

from .blocks import BLOCK


def _basis():
    u = np.arange(BLOCK)[:, None]
    x = np.arange(BLOCK)[None, :]
    d = 0.5 * np.cos((2 * x + 1) * u * np.pi / (2 * BLOCK))
    d[0, :] *= 1.0 / np.sqrt(2.0)
    return d


DCT_MATRIX = _basis()

# Flattened-block operators: row-major vec(b) @ FDCT_FLAT == vec(D b D^T).
# Both DCT forms stay: einsum (codec) and matmul (pipeline) round differently; each is pinned.
FDCT_FLAT = np.kron(DCT_MATRIX.T, DCT_MATRIX.T)
IDCT_FLAT = np.kron(DCT_MATRIX, DCT_MATRIX)


# The einsum's contraction order, fixed so the codec's pinned bits never hang
# on numpy's per-call path search: D with the blocks first, then with D.
# It is the order that search picks for every band shape the codec runs.
_FDCT_PATH = ["einsum_path", (0, 1), (0, 1)]


def fdct_blocks(blocks):
    """Apply the forward DCT to every 8x8 block of a (..., 8, 8) array."""
    return np.einsum("ux,...xy,vy->...uv", DCT_MATRIX, blocks, DCT_MATRIX, optimize=_FDCT_PATH)
