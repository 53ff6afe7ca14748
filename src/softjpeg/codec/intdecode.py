"""Integer sample reconstruction for decoding.

Reproduces the fixed-point inverse DCT and color-conversion arithmetic used
by the common deployed decoders, so that decode output is bit-compatible
with them.  The float orthonormal transform in ``dct`` stays the
mathematical inverse; this path exists purely for interchange fidelity.

The inverse DCT is libjpeg's jidctint.c, which T.81 Annex A.3.3 defines as
a sum over an 8x8 cosine basis: a matrix product.  Its butterfly composes
to the integer matrix ``_ISLOW``, so each of its two passes is one product
with ``_ISLOW`` followed by the butterfly's rounding and descale.
"""

import numpy as np

# The 8x8 matrix that jidctint.c's butterfly composes, 13 fractional bits:
# sample x = sum over u of _ISLOW[x, u] * coefficient u.  Sixteen entries
# differ by one from a rounded scaled cosine basis, since the butterfly
# rounds its twelve constants, not the basis; tests derive it from the
# butterfly.
_ISLOW = np.array([
    [8192, 11363, 10703, 9633, 8192, 6437, 4433, 2260],
    [8192, 9633, 4433, -2259, -8192, -11362, -10704, -6436],
    [8192, 6437, -4433, -11362, -8192, 2261, 10704, 9633],
    [8192, 2260, -10703, -6436, 8192, 9633, -4433, -11363],
    [8192, -2260, -10703, 6436, 8192, -9633, -4433, 11363],
    [8192, -6437, -4433, 11362, -8192, -2261, 10704, -9633],
    [8192, -9633, 4433, 2259, -8192, 11362, -10704, 6436],
    [8192, -11363, 10703, -9633, 8192, -6437, 4433, -2260],
], dtype=np.float64)

# libjpeg-turbo's post-IDCT range limit (jdmaster.c ``prepare_range_limit_table``,
# offset by CENTERJSAMPLE), indexed by the unshifted sample masked to 10 bits.
# It equals a clamp of sample + 128 to [0, 255] for samples in [-512, 511];
# farther out the sample wraps modulo 1024 first.
_RANGE_LIMIT = np.concatenate([np.arange(128, 256), np.full(384, 255), np.zeros(384, np.int64),
                               np.arange(0, 128)])


def integer_idct_samples(blocks, table):
    """Dequantize and inverse-transform integer blocks to [0, 255] samples.

    ``blocks`` is (..., 8, 8) int; ``table`` an (8, 8) integer quantization
    table.  Returns samples of the same shape, level shift undone and range
    limited as libjpeg-turbo does, so coefficients that no 8-bit image
    produces decode as they do there.

    With ``C`` a dequantized block, pass 1 is ``W = (_ISLOW @ C + 1024) >> 11``
    and pass 2 ``S = (W @ _ISLOW.T + (16 << 13)) >> 18``, each product taken
    in float64 over every block at once.  The products are exact in any
    summation order: an int16 coefficient times a table entry of at most
    255 is at most 2^23 in magnitude and no row of |``_ISLOW``| sums past
    61214 < 2^16, so pass 1's partial sums stay below 2^39 and, with |W|
    below 2^28, pass 2's below 2^44, integers that float64 holds exactly.
    """
    c = blocks.reshape(-1, 8, 8) * np.asarray(table, dtype=np.float64).reshape(8, 8)
    # Pass 1 runs down the columns: the lanes (u, N*v) give ws as (x, N*v).
    ws = ((_ISLOW @ c.transpose(1, 0, 2).reshape(8, -1)).astype(np.int64) + 1024) >> 11
    # Pass 2 runs along the rows: the lanes (x*N, v) give samples as (x*N, y).
    samples = ((ws.reshape(-1, 8) @ _ISLOW.T).astype(np.int64) + (16 << 13)) >> 18
    samples = samples.reshape(8, -1, 8).transpose(1, 0, 2)
    return _RANGE_LIMIT[samples & 1023].reshape(blocks.shape)


def ycbcr_samples_to_rgb(y, cb, cr):
    """Fixed-point BT.601 conversion of integer [0, 255] planes to RGB bytes."""
    y = y.astype(np.int64)
    cbc = cb.astype(np.int64) - 128
    crc = cr.astype(np.int64) - 128
    half = 1 << 15
    r = y + ((91881 * crc + half) >> 16)
    g = y + ((-22554 * cbc - 46802 * crc + half) >> 16)
    b = y + ((116130 * cbc + half) >> 16)
    return np.clip(np.stack([r, g, b], axis=-1), 0, 255).astype(np.uint8)
