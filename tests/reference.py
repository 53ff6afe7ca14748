"""Reference code the tests compare the library against.

The codec's float inverse path (dequantize, inverse DCT, stitch, YCbCr to
RGB) is the textbook counterpart of the encoder; the library decodes with
the integer path of ``codec.intdecode`` instead, so only tests use these.
``grad_check`` compares ``autodiff`` gradients with central differences.
``kwta_stable_argsort`` is the sort-based form of ``autodiff.kwta``, and
``conv2d_keeping_columns`` the form of ``autodiff.conv2d`` whose kernel
gradient reads im2col columns kept from the forward pass.
``encode_scan_per_symbol`` is the symbol-at-a-time form of
``codec.huffman.encode_scan``, and ``reconstruct_raster_per_row`` the one
MCU row at a time form of ``codec.reconstruct_raster``.
``integer_idct_butterfly`` is libjpeg's jidctint.c butterfly, the form of
``codec.intdecode.integer_idct_samples`` that its matrix is composed from.
"""

import numpy as np

from softjpeg import autodiff as ad
from softjpeg.autodiff import Tensor, backward
from softjpeg.codec.blocks import BLOCK, LEVEL_SHIFT
from softjpeg.codec.color import RGB_FROM_YCBCR
from softjpeg.codec.dct import DCT_MATRIX
from softjpeg.codec.errors import CoefficientRangeError
from softjpeg.codec.huffman import DEFAULT_SPECS, ZIGZAG, code_assignment, extend_magnitude
from softjpeg.codec.intdecode import _RANGE_LIMIT, integer_idct_samples, ycbcr_samples_to_rgb

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



def conv2d_keeping_columns(x, w, bias, stride=1, padding=0, band_rows=None):
    """``autodiff.conv2d`` with its im2col columns filled tap by tap and kept
    for the kernel gradient.  With ``band_rows`` the forward GEMM runs per
    image on bands of that many output rows of the kept columns, as
    ``conv2d`` splits it across bands: BLAS can round a narrower GEMM
    differently, so only the same split gives the same bits."""
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    s, p = int(stride), int(padding)
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    xp_shape, w_shape = xp.shape, w.shape
    cols = np.empty((B, C, kh, kw, Ho, Wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + s * Ho : s, j : j + s * Wo : s]
    cols2 = cols.reshape(B, C * kh * kw, Ho * Wo)
    wf = w.data.reshape(O, C * kh * kw)
    if band_rows is None:
        out = np.matmul(wf, cols2).reshape(B, O, Ho, Wo)
    else:
        out = np.empty((B, O, Ho, Wo))
        for b in range(B):
            for r0 in range(0, Ho, band_rows):
                r1 = min(Ho, r0 + band_rows)
                band = np.ascontiguousarray(cols2[b, :, r0 * Wo : r1 * Wo])
                out[b, :, r0:r1] = (wf @ band).reshape(O, r1 - r0, Wo)
    out = out + bias.data[None, :, None, None]

    def vjp_x(g):
        dcols = np.matmul(wf.T, g.reshape(B, O, Ho * Wo)).reshape(B, C, kh, kw, Ho, Wo)
        dxp = np.zeros(xp_shape)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + s * Ho : s, j : j + s * Wo : s] += dcols[:, :, i, j]
        return dxp[:, :, p : p + H, p : p + W] if p else dxp

    def vjp_w(g):
        gf = g.reshape(B, O, Ho * Wo)
        return np.matmul(gf, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)

    return ad._result(out, "conv2d", [(x, vjp_x), (w, vjp_w),
                                      (bias, lambda g: g.sum(axis=(0, 2, 3)))])

# Every value a baseline scan codes, -2047..2047, to its (category, magnitude
# bits) (T.81 F.1.2.1), the inverse of EXTEND: a negative value's bits are the
# one's complement of its absolute value's.
_MAGNITUDES = {0: (0, ""), **{extend_magnitude(bits, cat): (cat, format(bits, f"0{cat}b"))
                              for cat in range(1, 12) for bits in range(1 << cat)}}

# The default tables' {symbol: code} maps, each code a '0'/'1' string.
CODES = {key: {symbol: format(code, f"0{length}b")
               for symbol, code, length in code_assignment(*spec)}
         for key, spec in DEFAULT_SPECS.items()}


def _encode_block(bits, zz, prev_dc, dc_codes, ac_codes):
    """Append one zigzag-ordered block's code and magnitude strings to
    ``bits`` (T.81 F.1.2)."""
    diff = zz[0] - prev_dc
    if diff not in _MAGNITUDES:
        raise CoefficientRangeError(f"DC difference {diff} is not Huffman-encodable")
    cat, magnitude = _MAGNITUDES[diff]
    bits += dc_codes[cat], magnitude

    run = 0
    for v in zz[1:]:
        if v == 0:
            run += 1
            continue
        while run >= 16:
            bits.append(ac_codes[0xF0])
            run -= 16
        cat, magnitude = _MAGNITUDES[v]
        if cat > 10:
            raise CoefficientRangeError(f"AC coefficient {v} is not Huffman-encodable")
        bits += ac_codes[run << 4 | cat], magnitude
        run = 0
    if run:
        bits.append(ac_codes[0x00])
    return zz[0]


def encode_scan_per_symbol(blocks, dests):
    """``codec.huffman.encode_scan`` one code string at a time: the stuffed
    scan of each component's (rows, cols, 8, 8) blocks, coded with the
    default tables of ``dests``."""
    tables = [(CODES[0, dest], CODES[1, dest]) for dest in dests]
    bits = []
    prev_dc = [0] * len(blocks)
    zigzagged = [b.reshape(-1, 64)[:, ZIGZAG].astype(np.int64).tolist() for b in blocks]
    for mcu in zip(*zigzagged):
        for ci, zz in enumerate(mcu):
            prev_dc[ci] = _encode_block(bits, zz, prev_dc[ci], *tables[ci])
    bits = "".join(bits)
    bits += "1" * (-len(bits) % 8)  # pad the last byte with 1-bits
    scan = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return scan.replace(b"\xff", b"\xff\x00")


def reconstruct_raster_per_row(grids, tables):
    """``codec.reconstruct_raster`` one MCU row at a time: the integer IDCT
    and color conversion of each row of blocks, cropped into the raster."""
    height, width = grids[0].height, grids[0].width
    cols = grids[0].blocks.shape[1]
    raster = np.empty((height, width, 3), dtype=np.uint8)
    for top in range(0, height, BLOCK):
        planes = []
        for grid in grids:
            samples = integer_idct_samples(grid.blocks[top // BLOCK],
                                           tables.for_channel(grid.channel))
            plane = samples.transpose(1, 0, 2).reshape(BLOCK, cols * BLOCK)
            planes.append(plane[: height - top, :width])
        raster[top : top + BLOCK] = ycbcr_samples_to_rgb(*planes)
    return raster


# jidctint.c's fixed-point constants, 13 fractional bits.
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


def idct_1d_butterfly(col, rounding, out_shift):
    """jidctint.c's even/odd butterfly for one pass over the 8 lanes on axis 0.

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


def integer_idct_butterfly(blocks, table):
    """``codec.intdecode.integer_idct_samples`` in int64 through the butterfly:
    pass 1 down the columns, pass 2 along the rows, then the range limit."""
    c = blocks.reshape(-1, 8, 8).astype(np.int64)
    c *= np.asarray(table, dtype=np.int64).reshape(8, 8)
    # The lane axis leads in each pass: (r, N, j), then (j, N, r).
    ws = idct_1d_butterfly(c.transpose(1, 0, 2), 1024, 11)
    samples = idct_1d_butterfly(ws.transpose(2, 1, 0), 16 << 13, 18).transpose(1, 2, 0)
    return _RANGE_LIMIT[samples & 1023].reshape(blocks.shape)
