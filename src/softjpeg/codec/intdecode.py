"""Integer sample reconstruction for decoding.

Reproduces the fixed-point inverse DCT and color-conversion arithmetic used
by the common deployed decoders, so that decode output is bit-compatible
with them.  The float orthonormal transform in ``dct`` stays the
mathematical inverse; this path exists purely for interchange fidelity.
"""

import numpy as np

# Fixed-point constants, 13 fractional bits (inverse DCT).
_F0_298631336 = 2446
_F0_390180644 = 3196
_F0_541196100 = 4433
_F0_765366865 = 6270
_F0_899976223 = 7373
_F1_175875602 = 9633
_F1_501321110 = 12299
_F1_847759065 = 15137
_F1_961570560 = 16069
_F2_053119869 = 16819
_F2_562915447 = 20995
_F3_072711026 = 25172

# libjpeg-turbo's post-IDCT range limit (jdmaster.c ``prepare_range_limit_table``,
# offset by CENTERJSAMPLE), indexed by the unshifted sample masked to 10 bits.
# It equals a clamp of sample + 128 to [0, 255] for samples in [-512, 511];
# farther out the sample wraps modulo 1024 first.
_RANGE_LIMIT = np.concatenate([np.arange(128, 256), np.full(384, 255), np.zeros(384, np.int64),
                               np.arange(0, 128)])


def _idct_1d(col, rounding, out_shift):
    """Shared even/odd butterfly for one pass over the 8 lanes on axis 0.

    ``col`` is an (8, ...) int64 array (already dequantized for pass 1).
    Returns the (8, ...) output lanes, descaled by ``out_shift``.
    """
    z2, z3 = col[2], col[6]
    z1 = (z2 + z3) * _F0_541196100
    t2 = z1 + z2 * _F0_765366865
    t3 = z1 - z3 * _F1_847759065
    z2 = (col[0] << 13) + rounding
    z3 = col[4] << 13
    t0, t1 = z2 + z3, z2 - z3
    t10, t13 = t0 + t2, t0 - t2
    t11, t12 = t1 + t3, t1 - t3

    t0, t1, t2, t3 = col[7], col[5], col[3], col[1]
    z2, z3 = t0 + t2, t1 + t3
    z1 = (z2 + z3) * _F1_175875602
    z2 = z2 * -_F1_961570560 + z1
    z3 = z3 * -_F0_390180644 + z1
    z1 = (t0 + t3) * -_F0_899976223
    t0 = t0 * _F0_298631336 + z1 + z2
    t3 = t3 * _F1_501321110 + z1 + z3
    z1 = (t1 + t2) * -_F2_562915447
    t1 = t1 * _F2_053119869 + z1 + z3
    t2 = t2 * _F3_072711026 + z1 + z2

    return np.stack([
        (t10 + t3) >> out_shift,
        (t11 + t2) >> out_shift,
        (t12 + t1) >> out_shift,
        (t13 + t0) >> out_shift,
        (t13 - t0) >> out_shift,
        (t12 - t1) >> out_shift,
        (t11 - t2) >> out_shift,
        (t10 - t3) >> out_shift,
    ])


def integer_idct_samples(blocks, table):
    """Dequantize and inverse-transform integer blocks to [0, 255] samples.

    ``blocks`` is (..., 8, 8) int; ``table`` an (8, 8) integer quantization
    table.  Returns samples of the same shape, level shift undone and range
    limited as libjpeg-turbo does, so coefficients that no 8-bit image
    produces decode as they do there.
    """
    c = blocks.reshape(-1, 8, 8).astype(np.int64)
    c *= np.asarray(table, dtype=np.int64).reshape(8, 8)  # in place: no second plane copy
    # Pass 1 runs down the columns (lanes = rows r), pass 2 along the rows
    # (lanes = columns j); the lane axis leads in each: (r, N, j), then (j, N, r).
    ws = _idct_1d(c.transpose(1, 0, 2), 1024, 11)
    samples = _idct_1d(ws.transpose(2, 1, 0), 16 << 13, 18).transpose(1, 2, 0)
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
