"""Baseline sequential JFIF bitstream writer and reader (8-bit, 3 components, 4:4:4).

The reader is one header loop in ``entropy_decode`` over plain functions:
``_segment_at`` frames each marker segment, and one function per SOF0, DQT
and SOS payload returns what it parsed.  Huffman tables are opaque here:
``codec.huffman`` parses and checks DHT payloads and picks a scan's tables."""

import struct

import numpy as np

from .blocks import BLOCK, CoefficientGrid, mcu_row_bands, partition_plane
from .color import rgb_to_ycbcr
from .dct import fdct_blocks
from .errors import CoefficientRangeError, JpegFormatError
from .huffman import DC_PEAK, DEFAULT_SPECS, ZIGZAG, decode_scan, encode_scan, parse_dht
from .huffman import scan_tables
from .intdecode import integer_idct_samples, ycbcr_samples_to_rgb
from .ppm import rgb_raster
from .quant import QuantTablePair, quantize_blocks

SOI = 0xD8
EOI = 0xD9
APP0 = 0xE0
DQT = 0xDB
SOF0 = 0xC0
SOF2 = 0xC2
DHT = 0xC4
DAC = 0xCC
SOS = 0xDA
DRI = 0xDD
COM = 0xFE

CHANNELS = ("Y", "Cb", "Cr")
# The largest frame a stream may declare, 4096x4096 pixels: it caps the int16
# coefficient grids and the raster a header can ask for at 96 and 48 MiB.
MAX_PIXELS = 1 << 24
# SOF0 declares each side of the frame in 16 bits.
MAX_SIDE = 0xFFFF
# (component id, quantization/huffman destination) per channel.
_COMPONENTS = ((1, 0), (2, 1), (3, 1))


def check_frame(height, width):
    """Raise JpegFormatError unless SOF0 can declare a ``height`` x ``width``
    frame and decode_baseline accepts it: both sides in 1..MAX_SIDE and at
    most MAX_PIXELS pixels.  The stream parser and the encoder share it, so
    the encoder writes no frame the decoder refuses."""
    if not (0 < height <= MAX_SIDE and 0 < width <= MAX_SIDE):
        raise JpegFormatError(f"frame declares {width}x{height} pixels: each side must be "
                              f"in 1..{MAX_SIDE}")
    if height * width > MAX_PIXELS:
        raise JpegFormatError(f"frame declares {width}x{height} pixels, more than the "
                              f"{MAX_PIXELS}-pixel limit")


def check_raster(rgb):
    """``rgb_raster(rgb)``, once ``check_frame`` takes its frame: the check
    every encoder runs on its input before any work.  The frame goes first,
    so a raster too large to code raises JpegFormatError before any of its
    samples is read."""
    rgb = np.asarray(rgb)
    if rgb.ndim == 3:
        check_frame(*rgb.shape[:2])
    return rgb_raster(rgb)


def _segment(marker, payload):
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def _app0_jfif():
    return _segment(APP0, b"JFIF\x00\x01\x01\x00" + struct.pack(">HHBB", 1, 1, 0, 0))


def _dqt_segment(dest, table):
    zz = np.asarray(table, dtype=np.int64).reshape(64)[ZIGZAG]
    return _segment(DQT, bytes([dest]) + bytes(int(v) for v in zz))


def _sof0_segment(height, width):
    payload = struct.pack(">BHHB", 8, height, width, 3)
    for comp_id, dest in _COMPONENTS:
        payload += struct.pack(">BBB", comp_id, 0x11, dest)
    return _segment(SOF0, payload)


def _dht_segment():
    payload = b""
    for (cls, dest), (lengths, values) in DEFAULT_SPECS.items():
        payload += bytes([cls << 4 | dest]) + lengths + values
    return _segment(DHT, payload)


def _sos_segment():
    payload = bytes([3])
    for comp_id, dest in _COMPONENTS:
        payload += bytes([comp_id, dest << 4 | dest])
    return _segment(SOS, payload + bytes([0, 63, 0]))


def _check_coefficient_range(grids):
    for grid in grids:
        # From min and max, not np.abs: abs(-32768) wraps in an int16 grid.
        peak = max(-int(grid.blocks.min()), int(grid.blocks.max())) if grid.blocks.size else 0
        if peak > DC_PEAK:
            raise CoefficientRangeError(
                f"{grid.channel} coefficient magnitude {peak} exceeds the signed 12-bit range"
            )


def entropy_encode(grids, tables):
    """Assemble a complete JFIF stream from quantized coefficient grids.

    ``grids`` is a (Y, Cb, Cr) tuple of integer CoefficientGrids with a common
    block-grid shape; ``tables`` is the QuantTablePair to embed in the DQT
    segments.  Raises CoefficientRangeError for coefficients the baseline
    Huffman tables cannot represent, and JpegFormatError for a frame that
    ``check_frame`` refuses.
    """
    y, cb, cr = grids
    if not (y.blocks.shape == cb.blocks.shape == cr.blocks.shape):
        raise ValueError("coefficient grids must share one block-grid shape")
    if not all(np.issubdtype(g.blocks.dtype, np.integer) for g in grids):
        raise ValueError("coefficient grids must hold integers")
    check_frame(y.height, y.width)
    _check_coefficient_range(grids)

    scan = encode_scan([g.blocks for g in grids], [dest for _, dest in _COMPONENTS])
    head = (
        struct.pack(">BB", 0xFF, SOI)
        + _app0_jfif()
        + _dqt_segment(0, tables.luma)
        + _dqt_segment(1, tables.chroma)
        + _sof0_segment(y.height, y.width)
        + _dht_segment()
        + _sos_segment()
    )
    return head + scan + struct.pack(">BB", 0xFF, EOI)


def _segment_at(data, pos):
    """Frame the marker segment at ``data[pos]``, past any fill bytes:
    ``(marker, payload, the position after it)``.  EOI and standalone
    markers have no place before the scan."""
    if pos + 2 <= len(data) and data[pos] != 0xFF:
        raise JpegFormatError(f"expected a marker, found byte 0x{data[pos]:02X}")
    while pos + 2 <= len(data) and data[pos + 1] == 0xFF:  # fill bytes
        pos += 1
    if pos + 2 > len(data):
        raise JpegFormatError("truncated stream inside marker")
    marker = data[pos + 1]
    pos += 2
    if marker == EOI:
        raise JpegFormatError("EOI marker before any scan data")
    if marker == 0x01 or 0xD0 <= marker <= 0xD7:
        raise JpegFormatError(f"unexpected standalone marker 0xFF{marker:02X}")
    if pos + 2 > len(data):
        raise JpegFormatError("truncated stream inside segment length")
    seglen = struct.unpack_from(">H", data, pos)[0]
    if seglen < 2 or pos + seglen > len(data):
        raise JpegFormatError(f"segment 0xFF{marker:02X} length mismatch")
    return marker, data[pos + 2 : pos + seglen], pos + seglen


def _parse_sof0(payload):
    """``((height, width), {component id: quantization destination})``."""
    if len(payload) < 6:
        raise JpegFormatError("SOF0 segment length mismatch")
    precision, height, width, ncomp = struct.unpack_from(">BHHB", payload, 0)
    if precision != 8:
        raise JpegFormatError(f"only 8-bit sample precision is supported, got {precision}")
    if ncomp != 3:
        raise JpegFormatError(f"only 3-component YCbCr streams are supported, got {ncomp}")
    check_frame(height, width)
    if len(payload) != 6 + 3 * ncomp:
        raise JpegFormatError("SOF0 segment length mismatch")
    qdest = {}
    for comp_id, sampling, dest in struct.iter_unpack(">BBB", payload[6:]):
        if sampling != 0x11:
            raise JpegFormatError("chroma subsampling is not supported (need 1x1 sampling)")
        if comp_id in qdest:
            raise JpegFormatError(f"SOF0 repeats component id {comp_id}")
        qdest[comp_id] = dest
    return (height, width), qdest


def _parse_dqt(payload):
    """Yield ``(destination, 8x8 natural-order table)`` per table."""
    pos = 0
    while pos < len(payload):
        if payload[pos] >> 4 != 0:
            raise JpegFormatError("16-bit quantization tables are not supported")
        dest = payload[pos] & 0x0F
        if dest > 3:
            raise JpegFormatError(f"invalid quantization table destination {dest}")
        if pos + 65 > len(payload):
            raise JpegFormatError("DQT segment length mismatch")
        table = np.zeros(64, dtype=np.int64)
        table[ZIGZAG] = np.frombuffer(payload, np.uint8, 64, pos + 1)
        pos += 65
        if table.min() < 1:
            raise JpegFormatError("quantization table contains a zero divisor")
        yield dest, table.reshape(8, 8)


def _parse_sos(payload, qdest):
    """``(quantization, DC, AC destination)`` per scan component, given
    SOF0's ``{component id: quantization destination}``."""
    if len(payload) < 1:
        raise JpegFormatError("SOS segment length mismatch")
    ncomp = payload[0]
    if ncomp != 3 or len(payload) != 1 + 2 * ncomp + 3:
        raise JpegFormatError("SOS must describe a 3-component interleaved scan")
    ids, tables = list(payload[1:-3:2]), payload[2:-3:2]
    if ids != list(qdest):  # T.81 B.2.3
        raise JpegFormatError(f"scan components {ids} are not the frame's "
                              f"{list(qdest)} in frame order")
    if tuple(payload[-3:]) != (0, 63, 0):
        raise JpegFormatError("spectral selection / successive approximation not supported")
    return [(qdest[i], t >> 4, t & 0x0F) for i, t in zip(ids, tables)]


def entropy_decode(data):
    """Parse a baseline JFIF stream in the subset ``decode_baseline``
    accepts (see the README), such as any that :func:`entropy_encode` writes.

    Returns ``(grids, tables, (height, width))`` where grids are int16
    (Y, Cb, Cr) CoefficientGrids in natural block order.
    """
    data = bytes(data)
    if len(data) < 2:
        raise JpegFormatError("truncated stream inside SOI")
    if data[:2] != b"\xff\xd8":
        raise JpegFormatError("missing SOI marker at stream start")
    pos, frame, qtables, htables = 2, None, {}, {}
    while True:
        marker, payload, pos = _segment_at(data, pos)
        if marker == SOS:
            break
        if marker == SOF0:
            if frame is not None:
                raise JpegFormatError("duplicate SOF marker")
            frame = _parse_sof0(payload)
        elif marker == SOF2:
            raise JpegFormatError("progressive JPEG is not supported")
        elif marker == DAC or 0xC8 <= marker <= 0xCF:
            raise JpegFormatError("arithmetic-coded JPEG is not supported")
        elif marker in (0xC1, 0xC3) or 0xC5 <= marker <= 0xC7:
            raise JpegFormatError(f"unsupported frame type 0xFF{marker:02X}")
        elif marker == DQT:
            qtables.update(_parse_dqt(payload))
        elif marker == DHT:
            htables.update(parse_dht(payload))
        elif marker == DRI:
            if payload != b"\x00\x00":  # a 2-byte interval of 0 means no restarts
                raise JpegFormatError("restart intervals are not supported")
        elif not (0xE0 <= marker <= 0xEF or marker == COM):  # APPn and COM are skipped
            raise JpegFormatError(f"unsupported marker 0xFF{marker:02X}")
    if frame is None:
        raise JpegFormatError("SOS marker before SOF0")
    (height, width), qdest = frame
    rows, cols = -(-height // 8), -(-width // 8)

    scan_qtables, maps = [], []
    for channel, (dest, dc_dest, ac_dest) in zip(CHANNELS, _parse_sos(payload, qdest)):
        if dest not in qtables:
            raise JpegFormatError(f"missing quantization table {dest}")
        scan_qtables.append(qtables[dest])
        maps.append(scan_tables(htables, dc_dest, ac_dest, channel))
    luma, cb, cr = scan_qtables
    if not np.array_equal(cb, cr):
        raise JpegFormatError("Cb and Cr must share one quantization table")
    blocks, pos = decode_scan(data, pos, rows, cols, maps)

    # Skip padding and fill bytes, then demand EOI.
    while pos + 1 < len(data) and data[pos] == 0xFF and data[pos + 1] == 0xFF:
        pos += 1
    if pos + 2 > len(data) or data[pos] != 0xFF or data[pos + 1] != EOI:
        raise JpegFormatError("missing EOI marker after entropy-coded data")

    grids = tuple(CoefficientGrid(channel, b.reshape(rows, cols, 8, 8), height, width)
                  for channel, b in zip(CHANNELS, blocks))
    return grids, QuantTablePair(luma, cb), (height, width)


def _empty_grids(height, width, dtype):
    shape = (-(-height // BLOCK), -(-width // BLOCK), BLOCK, BLOCK)
    return tuple(CoefficientGrid(channel, np.empty(shape, dtype), height, width)
                 for channel in CHANNELS)


def _transform_band(rgb, band):
    """Transform stage: the float64 DCT coefficients, (Y/Cb/Cr, rows, cols,
    8, 8), of the MCU rows ``band`` of an (H, W, 3) raster."""
    ycc = rgb_to_ycbcr(rgb[band.start * BLOCK : band.stop * BLOCK])
    return fdct_blocks(partition_plane(np.moveaxis(ycc, -1, 0)))


def _quantize_band(coeffs, tables, grids, band):
    """Quantize stage: write one band's coefficients into the integer grids."""
    for plane, grid in zip(coeffs, grids):
        grid.blocks[band] = quantize_blocks(plane, tables.for_channel(grid.channel))


def forward_grids(rgb, tables):
    """Color-convert, block, DCT and quantize an image with a QuantTablePair:
    int16 grids ready for entropy coding (the quantized DCT of 8-bit samples
    lies within +-2048).

    The work runs one band of MCU rows at a time into the preallocated
    grids, so the float image and its planes never exist whole.  An input
    that ``check_raster`` refuses raises before any work."""
    rgb = check_raster(rgb)
    grids = _empty_grids(*rgb.shape[:2], np.int16)
    for band in mcu_row_bands(*grids[0].blocks.shape[:2]):
        _quantize_band(_transform_band(rgb, band), tables, grids, band)
    return grids


def transform_grids(rgb):
    """The transform stage of ``forward_grids`` alone: float64 grids that
    ``quantize_grids`` turns into what ``forward_grids`` returns, so one
    image can be quantized with many tables but transformed once."""
    rgb = check_raster(rgb)
    grids = _empty_grids(*rgb.shape[:2], np.float64)
    for band in mcu_row_bands(*grids[0].blocks.shape[:2]):
        for plane, grid in zip(_transform_band(rgb, band), grids):
            grid.blocks[band] = plane
    return grids


def quantize_grids(grids, tables):
    """The quantize stage of ``forward_grids`` alone, on ``transform_grids``
    output."""
    quantized = _empty_grids(grids[0].height, grids[0].width, np.int16)
    for band in mcu_row_bands(*grids[0].blocks.shape[:2]):
        _quantize_band([grid.blocks[band] for grid in grids], tables, quantized, band)
    return quantized


def encode_baseline(rgb, tables):
    """Compress an (H, W, 3) uint8 raster to a JFIF stream; ``forward_grids``
    runs ``check_raster`` on it before any work."""
    return entropy_encode(forward_grids(rgb, tables), tables)


def reconstruct_raster(grids, tables):
    """The (H, W, 3) uint8 raster that a decoder reconstructs from quantized
    (Y, Cb, Cr) integer grids and their QuantTablePair.

    Sample reconstruction uses the fixed-point arithmetic of the deployed
    decoders, so output is bit-compatible with them.  Huffman coding is
    lossless, so for grids ``entropy_encode`` accepts this equals
    ``decode_baseline(entropy_encode(grids, tables))``.  Samples are
    reconstructed one band of MCU rows at a time into the output raster,
    so the working set is the grids plus one band's temporaries.
    """
    height, width = grids[0].height, grids[0].width
    qtables = [tables.for_channel(grid.channel) for grid in grids]
    raster = np.empty((height, width, 3), dtype=np.uint8)
    for band in mcu_row_bands(*grids[0].blocks.shape[:2]):
        top = band.start * BLOCK
        planes = []
        for grid, table in zip(grids, qtables):
            samples = integer_idct_samples(grid.blocks[band], table)
            rows, cols = samples.shape[:2]
            plane = samples.transpose(0, 2, 1, 3).reshape(rows * BLOCK, cols * BLOCK)
            planes.append(plane[: height - top, :width])
        raster[top : band.stop * BLOCK] = ycbcr_samples_to_rgb(*planes)
    return raster


def decode_baseline(data):
    """Decode a JFIF stream back to an (H, W, 3) uint8 raster: the
    coefficients that ``entropy_decode`` reads, through
    ``reconstruct_raster``.  The working set is the int16 coefficients
    (twice the raster's bytes) plus one band's temporaries.
    """
    grids, tables, _ = entropy_decode(data)
    return reconstruct_raster(grids, tables)


def bits_per_pixel(stream, width, height):
    return len(stream) * 8.0 / (width * height)
