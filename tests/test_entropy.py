import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from softjpeg.codec import (
    CoefficientGrid,
    CoefficientRangeError,
    JpegFormatError,
    QuantTablePair,
    decode_baseline,
    encode_baseline,
    entropy_decode,
    entropy_encode,
    reconstruct_raster,
    tables_for_quality,
)
from softjpeg.codec import blocks as blocks_module
from softjpeg.codec.huffman import (
    _CATEGORY,
    _MAGNITUDE,
    DEFAULT_SPECS,
    ZIGZAG,
    BitReader,
    _decode_table,
    code_assignment,
    decode_scan,
    encode_scan,
    extend_magnitude,
    scan_tables,
)
from softjpeg.codec.jfif import MAX_PIXELS
from tests.reference import CODES, encode_scan_per_symbol, reconstruct_raster_per_row


def scan_bytes(bits):
    """A '0'/'1' string as a scan: padded with 1-bits, packed and stuffed."""
    bits += "1" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big").replace(b"\xff", b"\xff\x00")


def make_grids(rng, rows, cols, height, width, dc_span=400, ac_span=200):
    grids = []
    for channel in ("Y", "Cb", "Cr"):
        blocks = rng.integers(-ac_span, ac_span + 1, (rows, cols, 8, 8))
        blocks[:, :, 0, 0] = rng.integers(-dc_span, dc_span + 1, (rows, cols))
        grids.append(CoefficientGrid(channel, blocks.astype(np.int64), height, width))
    return tuple(grids)


def test_zigzag_is_a_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))
    # spot-check the start and end of the scan
    assert ZIGZAG[:6].tolist() == [0, 1, 8, 16, 9, 2]
    assert ZIGZAG[-2:].tolist() == [62, 63]


def test_encoded_scan_stuffs_every_ff_byte_and_decodes_back():
    rng = np.random.default_rng(4)
    blocks = [rng.integers(-1023, 1024, (3, 4, 8, 8)) for _ in range(3)]
    dests = (0, 1, 1)
    scan = encode_scan(blocks, dests)
    ff = [i for i, byte in enumerate(scan) if byte == 0xFF]
    assert len(ff) > 10
    assert all(scan[i + 1] == 0x00 for i in ff)
    maps = [scan_tables(DEFAULT_SPECS, dest, dest, channel) for channel, dest in enumerate(dests)]
    decoded, end = decode_scan(scan, 0, 3, 4, maps)
    assert end == len(scan)
    for a, b in zip(blocks, decoded):
        assert np.array_equal(a.reshape(12, 64), b)


def scan_test_blocks(rng, rows, cols):
    """Three components' (rows, cols, 8, 8) int16 blocks mixing every case
    the scan syntax has: all-zero blocks, zero runs of 16 or more (ZRL), a
    last coefficient at zigzag index 63 (no EOB), AC values of +-1023,
    dense blocks, and DC values that step by +-2047."""
    zz = np.zeros((3, rows * cols, 64), dtype=np.int16)
    for block in zz.reshape(-1, 64):
        kind = rng.integers(5)
        if kind == 1:  # sparse: long zero runs
            at = rng.choice(np.arange(1, 64), rng.integers(1, 4), replace=False)
            block[at] = rng.choice([-3, -1, 1, 2, 700], at.size)
        elif kind == 2:  # ends at index 63
            block[63] = rng.choice([-1, 1, 1023])
            block[rng.integers(1, 63)] = rng.integers(-5, 6)
        elif kind == 3:  # extreme AC magnitudes
            at = rng.choice(np.arange(1, 64), rng.integers(1, 12), replace=False)
            block[at] = rng.choice([-1023, 1023], at.size)
        elif kind == 4:  # dense
            block[1:] = rng.integers(-1023, 1024, 63)
        block[0] = rng.choice([0, -1023, 1024, rng.integers(-1023, 1025)])
    natural = np.empty_like(zz)
    natural[:, :, ZIGZAG] = zz
    return [b.reshape(rows, cols, 8, 8) for b in natural]


@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_encode_scan_matches_the_per_symbol_encoder(rows, cols, band_mcus, seed):
    # Small bands, so the DC predictor and the bits short of a byte cross
    # many band edges; 1xN and Nx1 grids are among the shapes.
    blocks = scan_test_blocks(np.random.default_rng(seed), rows, cols)
    with mock.patch.object(blocks_module, "BAND_MCUS", band_mcus):
        scan = encode_scan(blocks, (0, 1, 1))
    assert scan == encode_scan_per_symbol(blocks, (0, 1, 1))


@pytest.mark.parametrize("shape", [(2 * blocks_module.BAND_MCUS + 5, 1),
                                   (3, blocks_module.BAND_MCUS + 7)])
def test_encode_scan_matches_the_per_symbol_encoder_across_real_bands(shape):
    blocks = scan_test_blocks(np.random.default_rng(sum(shape)), *shape)
    assert encode_scan(blocks, (0, 1, 1)) == encode_scan_per_symbol(blocks, (0, 1, 1))


def reconstruction_case(rng, height, width):
    """Encodable grids from ``scan_test_blocks`` for a ``height`` x ``width``
    frame, and random tables in 1..255.  With AC values of +-1023 the
    dequantized coefficients reach far past what 8-bit images give, so
    samples wrap in libjpeg's range limit."""
    blocks = scan_test_blocks(rng, -(-height // 8), -(-width // 8))
    grids = tuple(CoefficientGrid(channel, b, height, width)
                  for channel, b in zip(("Y", "Cb", "Cr"), blocks))
    return grids, QuantTablePair(rng.integers(1, 256, (8, 8)), rng.integers(1, 256, (8, 8)))


@given(
    st.integers(1, 72),
    st.integers(1, 72),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
@example(1, 65, 1, 0)
@example(65, 1, 2, 1)
@settings(max_examples=60, deadline=None)
def test_reconstruct_raster_equals_decoding_the_stream(height, width, band_mcus, seed):
    # Bands of 1-4 MCUs, so a frame spans many bands and its bottom edge
    # cuts the last one; 1xN and Nx1 frames are among the sizes.
    grids, tables = reconstruction_case(np.random.default_rng(seed), height, width)
    with mock.patch.object(blocks_module, "BAND_MCUS", band_mcus):
        raster = reconstruct_raster(grids, tables)
    assert np.array_equal(raster, reconstruct_raster_per_row(grids, tables))
    assert np.array_equal(raster, decode_baseline(entropy_encode(grids, tables)))


@pytest.mark.parametrize("shape", [(8 * (2 * blocks_module.BAND_MCUS + 5) - 3, 5),
                                   (21, 8 * (blocks_module.BAND_MCUS + 7) - 1)])
def test_reconstruct_raster_equals_decoding_the_stream_across_real_bands(shape):
    grids, tables = reconstruction_case(np.random.default_rng(sum(shape)), *shape)
    raster = reconstruct_raster(grids, tables)
    assert np.array_equal(raster, reconstruct_raster_per_row(grids, tables))
    assert np.array_equal(raster, decode_baseline(entropy_encode(grids, tables)))


@pytest.mark.parametrize("coefficients, message", [
    # (component, MCU, natural index, value): two of each set are out of range.
    ([(2, 0, 5, 1500), (0, 1, 9, -1200)], "AC coefficient 1500"),
    ([(0, 0, 0, 1100), (0, 1, 0, -1000), (1, 1, 3, 1024)], "DC difference -2100"),
    ([(1, 2, 2, 1200), (1, 2, 8, -1100)], "AC coefficient -1100"),  # zigzag, not row-major
    ([(0, 3, 20, -1024), (2, 2, 0, 2000), (2, 3, 0, -100)], "AC coefficient -1024"),
])
def test_out_of_range_scan_reports_its_first_offender(coefficients, message):
    blocks = [np.zeros((2, 2, 8, 8), dtype=np.int16) for _ in range(3)]
    for comp, mcu, index, value in coefficients:
        blocks[comp].reshape(4, 64)[mcu, index] = value
    with pytest.raises(CoefficientRangeError, match=f"{message} is not Huffman-encodable"):
        encode_scan_per_symbol(blocks, (0, 1, 1))
    for band_mcus in (1, blocks_module.BAND_MCUS):
        with mock.patch.object(blocks_module, "BAND_MCUS", band_mcus):
            with pytest.raises(CoefficientRangeError,
                               match=f"^{message} is not Huffman-encodable$"):
                encode_scan(blocks, (0, 1, 1))


def test_magnitude_bits_have_their_category_length_and_extend_back():
    assert len(_CATEGORY) == len(_MAGNITUDE) == 4095
    for v in range(-2047, 2048):
        cat, bits = int(_CATEGORY[v + 2047]), int(_MAGNITUDE[v + 2047])
        assert cat == abs(v).bit_length()  # SSSS, T.81 Table F.1
        assert 0 <= bits < 1 << cat
        assert extend_magnitude(bits, cat) == v


def test_default_codes_are_prefix_free_and_as_long_as_their_size():
    for lengths, values in DEFAULT_SPECS.values():
        codes = [format(code, f"0{length}b")
                 for _, code, length in code_assignment(lengths, values)]
        sizes = [size for size, count in enumerate(lengths, start=1) for _ in range(count)]
        assert [len(code) for code in codes] == sizes
        assert set("".join(codes)) == {"0", "1"}
        for a in codes:
            assert not any(b != a and b.startswith(a) for b in codes)


@st.composite
def huffman_specs(draw):
    """A (lengths, values) spec that code_assignment accepts: up to 256
    distinct values, each length holding no more codes than leave its
    all-1s code unused."""
    counts, code, total = [], 0, 0
    for size in range(1, 17):
        room = min((1 << size) - 1 - code, 256 - total)
        counts.append(draw(st.integers(0, room)))
        total += counts[-1]
        code = (code + counts[-1]) << 1
    assume(total)
    values = draw(st.permutations(range(256)))[:total]
    return bytes(counts), bytes(values)


@given(huffman_specs())
@example((bytes(15) + b"\x01", b"\x07"))  # one code: sixteen 0-bits
@example((bytes(7) + bytes([254, 2]) + bytes(7), bytes(range(256))))  # 256 values
@settings(max_examples=200, deadline=None)
def test_every_assigned_code_decodes_back_to_its_symbol(spec):
    # Canonical codes of any length 1-16, as libjpeg's optimized tables use
    # them: each decodes to its own symbol, and no code is sixteen 1-bits.
    lengths, values = spec
    assigned = list(code_assignment(lengths, values))
    assert [symbol for symbol, _, _ in assigned] == list(values)
    assert [length for _, _, length in assigned] == [
        size for size, count in enumerate(lengths, start=1) for _ in range(count)]
    table = _decode_table(lengths, values)
    reader = BitReader(scan_bytes("".join(format(code, f"0{length}b")
                                          for _, code, length in assigned)))
    assert [reader.decode_symbol(table) for _ in assigned] == list(values)
    with pytest.raises(JpegFormatError, match="^invalid Huffman code"):
        BitReader(b"\xff\x00\xff\x00").decode_symbol(table)


def test_overfull_huffman_table_rejected_as_by_libjpeg(natural_image, libjpeg_decode):
    # Three 1-bit codes cannot exist; libjpeg's jpeg_make_d_derived_tbl
    # stops at "Bogus Huffman table definition".  Read as a prefix code
    # anyway, this image's scan would decode to a raster.
    stream = encode_baseline(natural_image(16, 16, seed=1), tables_for_quality(50))
    lengths = stream.index(b"\xff\xc4") + 5  # the Y DC table comes first
    assert stream[lengths - 1] == 0x00
    patched = (stream[:lengths] + bytes([3, 0, 4, 1, 1, 1, 1, 1] + [0] * 8)
               + stream[lengths + 16 :])
    with pytest.raises(ValueError, match="Bogus Huffman table definition"):
        libjpeg_decode(patched)
    with pytest.raises(JpegFormatError, match="too many codes of length 1"):
        entropy_decode(patched)


def test_dc_huffman_value_above_15_rejected_as_by_libjpeg(natural_image, libjpeg_decode):
    # jpeg_make_d_derived_tbl also rejects a DC table value above 15.  This
    # scan never codes the value, so read as a prefix code it would decode.
    stream = encode_baseline(natural_image(16, 16, seed=1), tables_for_quality(50))
    last_value = stream.index(b"\xff\xc4") + 5 + 16 + 11  # the Y DC table's 12th value
    assert stream[last_value] == 11
    patched = stream[:last_value] + bytes([20]) + stream[last_value + 1 :]
    with pytest.raises(ValueError, match="Bogus Huffman table definition"):
        libjpeg_decode(patched)
    with pytest.raises(JpegFormatError, match="DC Huffman table 0 holds a value above 15"):
        entropy_decode(patched)


def test_bitreader_unstuffs_and_detects_truncation():
    r = BitReader(b"\xff\x00\xab")
    assert r.read_bits(16) == 0xFFAB
    with pytest.raises(JpegFormatError, match="truncated"):
        r.read_bits(8)


def test_bitreader_holds_one_byte_after_every_pull(natural_image, monkeypatch):
    # A pull happens only once every earlier bit is read, so the accumulator
    # never needs more than the new byte; keeping the old bits made each
    # pull cost O(position) and decode quadratic in scan length.
    stream = encode_baseline(natural_image(120, 184, seed=7), tables_for_quality(90))
    pull, accumulators = BitReader._pull_byte, []

    def checked_pull(reader):
        pull(reader)
        accumulators.append(reader._acc)

    monkeypatch.setattr(BitReader, "_pull_byte", checked_pull)
    entropy_decode(stream)
    assert len(accumulators) > 4000
    assert max(accumulators) < 256


def hand_coded_stream(mcus, bits):
    """A q50 stream of an 8 x 8*mcus frame whose scan is the '0'/'1' string
    ``bits``."""
    zeros = np.zeros((1, mcus, 8, 8), dtype=np.int64)
    grids = tuple(CoefficientGrid(ch, zeros, 8, 8 * mcus) for ch in ("Y", "Cb", "Cr"))
    stream = entropy_encode(grids, tables_for_quality(50))
    sos = stream.index(b"\xff\xda")
    head = stream[: sos + 2 + int.from_bytes(stream[sos + 2 : sos + 4], "big")]
    return head + scan_bytes(bits) + b"\xff\xd9"


def dc_climb_stream(mcus):
    """An 8 x 8*mcus stream whose every Y block codes the largest DC
    difference, +2047, so the Y predictor reaches 2047 * mcus; Cb and Cr
    stay 0.  No encoder writes it: from the second MCU on, the DC exceeds
    12 bits."""
    bits = ""
    for _ in range(mcus):
        for dest, cat in ((0, 11), (1, 0), (1, 0)):
            # The DC code, its magnitude bits (+2047, or none) and EOB.
            bits += CODES[0, dest][cat] + "1" * cat + CODES[1, dest][0x00]
    return hand_coded_stream(mcus, bits)


def test_dc_predictor_at_the_int16_limit_decodes():
    grids, _, _ = entropy_decode(dc_climb_stream(16))
    assert grids[0].blocks.dtype == np.int16
    assert grids[0].blocks[0, :, 0, 0].tolist() == [2047 * (i + 1) for i in range(16)]
    assert not grids[1].blocks.any() and not grids[2].blocks.any()


def test_samples_beyond_eight_bit_range_wrap_as_in_libjpeg(libjpeg_decode):
    # Unshifted Y samples of 2047 * 16 * (i + 1) wrap modulo 1024 through
    # libjpeg-turbo's range-limit table; a plain clamp would read 255 throughout.
    stream = dc_climb_stream(16)
    raster = decode_baseline(stream)
    assert raster[0, ::8, 0].tolist() == list(range(126, 94, -2))
    assert np.array_equal(raster, libjpeg_decode(stream))


def test_dc_predictor_past_int16_rejected():
    with pytest.raises(JpegFormatError, match="DC coefficient 34799 overflows 16 bits"):
        entropy_decode(dc_climb_stream(17))


def test_all_zero_single_block_image_is_a_valid_stream():
    grids = tuple(
        CoefficientGrid(ch, np.zeros((1, 1, 8, 8), dtype=np.int64), 8, 8)
        for ch in ("Y", "Cb", "Cr")
    )
    stream = entropy_encode(grids, tables_for_quality(50))
    assert stream[:2] == b"\xff\xd8"
    assert stream[-2:] == b"\xff\xd9"
    decoded, _, dims = entropy_decode(stream)
    assert dims == (8, 8)
    assert all(np.all(g.blocks == 0) for g in decoded)


def test_roundtrip_random_grids_exact():
    rng = np.random.default_rng(9)
    for rows, cols, h, w in [(1, 1, 8, 8), (3, 5, 24, 40), (4, 3, 25, 17)]:
        grids = make_grids(rng, rows, cols, h, w)
        tables = tables_for_quality(75)
        decoded, tables2, dims = entropy_decode(entropy_encode(grids, tables))
        assert dims == (h, w)
        assert np.array_equal(tables2.luma, tables.luma)
        assert np.array_equal(tables2.chroma, tables.chroma)
        for a, b in zip(grids, decoded):
            assert np.array_equal(a.blocks, b.blocks)
            assert (a.height, a.width) == (b.height, b.width)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_roundtrip_is_lossless_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    grids = make_grids(rng, rows, cols, rows * 8, cols * 8)
    decoded, _, _ = entropy_decode(entropy_encode(grids, tables_for_quality(60)))
    for a, b in zip(grids, decoded):
        assert np.array_equal(a.blocks, b.blocks)


def test_marker_segment_lengths_are_self_consistent():
    rng = np.random.default_rng(2)
    stream = entropy_encode(make_grids(rng, 2, 2, 16, 16), tables_for_quality(50))
    assert stream[:2] == b"\xff\xd8" and stream[-2:] == b"\xff\xd9"
    pos = 2
    seen = []
    while True:
        assert stream[pos] == 0xFF
        marker = stream[pos + 1]
        seen.append(marker)
        length = int.from_bytes(stream[pos + 2 : pos + 4], "big")
        pos += 2 + length
        if marker == 0xDA:
            break
        assert stream[pos] == 0xFF  # next segment starts where declared
    assert seen == [0xE0, 0xDB, 0xDB, 0xC0, 0xC4, 0xDA]


def test_extreme_but_codable_coefficients_roundtrip():
    blocks = np.zeros((1, 1, 8, 8), dtype=np.int64)
    blocks[0, 0, 0, 0] = -1024
    blocks[0, 0, 7, 7] = 1023
    blocks[0, 0, 0, 1] = -1023
    grids = tuple(CoefficientGrid(ch, blocks.copy(), 8, 8) for ch in ("Y", "Cb", "Cr"))
    decoded, _, _ = entropy_decode(entropy_encode(grids, tables_for_quality(50)))
    assert np.array_equal(decoded[0].blocks, blocks)


def test_oversized_ac_rejected():
    blocks = np.zeros((1, 1, 8, 8), dtype=np.int64)
    blocks[0, 0, 3, 3] = 1024  # needs an AC category beyond the tables
    grids = tuple(CoefficientGrid(ch, blocks.copy(), 8, 8) for ch in ("Y", "Cb", "Cr"))
    with pytest.raises(CoefficientRangeError, match="AC coefficient"):
        entropy_encode(grids, tables_for_quality(50))


def test_real_valued_grids_rejected():
    # Coded as arrays, 0.7 would silently truncate to 0.
    blocks = np.full((1, 1, 8, 8), 0.7)
    grids = tuple(CoefficientGrid(ch, blocks.copy(), 8, 8) for ch in ("Y", "Cb", "Cr"))
    with pytest.raises(ValueError, match="must hold integers"):
        entropy_encode(grids, tables_for_quality(50))


def test_12bit_overflow_rejected():
    blocks = np.zeros((1, 1, 8, 8), dtype=np.int64)
    blocks[0, 0, 0, 0] = 3000
    grids = tuple(CoefficientGrid(ch, blocks.copy(), 8, 8) for ch in ("Y", "Cb", "Cr"))
    with pytest.raises(CoefficientRangeError, match="12-bit"):
        entropy_encode(grids, tables_for_quality(50))


@pytest.fixture(scope="module")
def valid_stream(small_image):
    return encode_baseline(small_image, tables_for_quality(50))


def test_missing_soi_rejected(valid_stream):
    with pytest.raises(JpegFormatError, match="SOI"):
        entropy_decode(b"\x00" + valid_stream)


def test_truncated_entropy_data_rejected(valid_stream):
    with pytest.raises(JpegFormatError, match="truncated|marker"):
        entropy_decode(valid_stream[:-200])


def test_marker_inside_entropy_data_rejected(valid_stream):
    cut = len(valid_stream) // 2
    with pytest.raises(JpegFormatError, match="marker 0xFFC4 inside"):
        entropy_decode(valid_stream[:cut] + b"\xff\xc4" + valid_stream[cut:][-2:])


def test_progressive_stream_rejected(valid_stream):
    patched = valid_stream.replace(b"\xff\xc0", b"\xff\xc2", 1)
    with pytest.raises(JpegFormatError, match="progressive"):
        entropy_decode(patched)


def test_subsampled_stream_rejected(valid_stream):
    sof = valid_stream.index(b"\xff\xc0")
    patched = bytearray(valid_stream)
    patched[sof + 11] = 0x22  # first component sampling factor
    with pytest.raises(JpegFormatError, match="subsampling"):
        entropy_decode(bytes(patched))


def test_arithmetic_coding_rejected(valid_stream):
    patched = valid_stream.replace(b"\xff\xc0", b"\xff\xc9", 1)
    with pytest.raises(JpegFormatError, match="arithmetic"):
        entropy_decode(patched)


def test_segment_length_mismatch_rejected(valid_stream):
    dqt = valid_stream.index(b"\xff\xdb")
    truncated = valid_stream[: dqt + 20]
    with pytest.raises(JpegFormatError, match="length mismatch|truncated"):
        entropy_decode(truncated)


def test_missing_eoi_rejected(valid_stream):
    with pytest.raises(JpegFormatError, match="EOI|truncated"):
        entropy_decode(valid_stream[:-2])


def test_frame_larger_than_its_scan_rejected_before_allocating(valid_stream):
    # A 184x120 stream whose SOF declares 4000x4000: its scan cannot hold
    # 500x500 MCUs, so decoding must fail before the coefficient grids exist.
    sof = valid_stream.index(b"\xff\xc0")
    patched = valid_stream[: sof + 5] + struct.pack(">HH", 4000, 4000) + valid_stream[sof + 9 :]
    tracemalloc.start()
    try:
        with pytest.raises(JpegFormatError, match="cannot hold 500x500 MCUs"):
            entropy_decode(patched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_frame_beyond_the_pixel_ceiling_rejected(valid_stream):
    sof = valid_stream.index(b"\xff\xc0")

    def declaring(height, width):
        return valid_stream[: sof + 5] + struct.pack(">HH", height, width) + valid_stream[sof + 9 :]

    assert MAX_PIXELS == 4096 * 4096
    with pytest.raises(JpegFormatError, match="cannot hold 512x512 MCUs"):
        entropy_decode(declaring(4096, 4096))
    for height, width in ((4096, 4097), (65535, 65535)):
        with pytest.raises(JpegFormatError, match=f"{width}x{height} pixels, more than the "
                                                  f"{MAX_PIXELS}-pixel limit"):
            entropy_decode(declaring(height, width))


def test_scan_components_out_of_frame_order_rejected():
    # T.81 B.2.3: a scan lists its components in frame order (libjpeg:
    # "Invalid component ID 1 in SOS").  Swapping ids 1 and 3 is a 2-byte patch.
    stream = encode_baseline(np.full((32, 48, 3), 90, dtype=np.uint8), tables_for_quality(100))
    sos = stream.index(b"\xff\xda")
    assert stream[sos + 5 : sos + 11 : 2] == b"\x01\x02\x03"
    swapped = bytearray(stream)
    swapped[sos + 5], swapped[sos + 9] = 3, 1
    with pytest.raises(JpegFormatError, match=r"scan components \[3, 2, 1\] are not the frame's"):
        entropy_decode(bytes(swapped))


def test_repeated_frame_component_id_rejected(valid_stream):
    sof = valid_stream.index(b"\xff\xc0")
    patched = bytearray(valid_stream)
    patched[sof + 13] = 1  # the second component takes the first one's id
    with pytest.raises(JpegFormatError, match="SOF0 repeats component id 1"):
        entropy_decode(bytes(patched))


def segment(marker, payload):
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def replace_segment(stream, marker, payload):
    """``stream`` with its first ``marker`` segment's payload replaced."""
    at = stream.index(bytes([0xFF, marker]))
    end = at + 2 + int.from_bytes(stream[at + 2 : at + 4], "big")
    return stream[:at] + segment(marker, payload) + stream[end:]


def payload_of(stream, marker):
    at = stream.index(bytes([0xFF, marker]))
    return stream[at + 4 : at + 2 + int.from_bytes(stream[at + 2 : at + 4], "big")]


def insert_before(stream, marker, blob):
    at = stream.index(bytes([0xFF, marker]))
    return stream[:at] + blob + stream[at:]


# Hand edits of a 16x16 q50 stream, one per reader rule, and the message
# each raises; None marks an edit that must decode to the unedited raster.
READER_EDITS = {
    "fill-bytes-before-a-marker": (lambda s: insert_before(s, 0xC0, b"\xff\xff"), None),
    "fill-bytes-before-eoi": (lambda s: s[:-2] + b"\xff\xff" + s[-2:], None),
    # As libjpeg's get_dri, an interval of 0 means no restarts.
    "dri-interval-0": (lambda s: insert_before(s, 0xDA, b"\xff\xdd\x00\x04\x00\x00"), None),
    "dri-interval-1": (lambda s: insert_before(s, 0xDA, b"\xff\xdd\x00\x04\x00\x01"),
                       "restart intervals are not supported"),
    # As libjpeg's jpeg_std_huff_table, an empty slot 0 or 1 takes the T.81
    # K.3 table, the one this encoder writes there; slots 2 and 3 have none.
    "dht-removed": (lambda s: s.replace(segment(0xC4, payload_of(s, 0xC4)), b""), None),
    "dht-removed-y-at-slot-2": (lambda s: replace_segment(
        s.replace(segment(0xC4, payload_of(s, 0xC4)), b""), 0xDA,
        bytes([3, 1, 0x22, 2, 0x11, 3, 0x11, 0, 63, 0])),
        "missing Huffman tables for component Y"),
    "eoi-before-any-scan": (lambda s: insert_before(s, 0xC0, b"\xff\xd9"),
                            "EOI marker before any scan data"),
    "duplicate-sof0": (lambda s: insert_before(s, 0xC0, segment(0xC0, payload_of(s, 0xC0))),
                       "duplicate SOF marker"),
    "sof0-under-6-bytes": (lambda s: replace_segment(s, 0xC0, payload_of(s, 0xC0)[:5]),
                           "SOF0 segment length mismatch"),
    "dqt-destination-above-3": (lambda s: replace_segment(s, 0xDB, b"\x04"
                                                          + payload_of(s, 0xDB)[1:]),
                                "invalid quantization table destination 4"),
    "dqt-trailing-bytes": (lambda s: replace_segment(s, 0xDB, payload_of(s, 0xDB) + b"\x00"),
                           "DQT segment length mismatch"),
    "dht-trailing-class-byte": (lambda s: replace_segment(s, 0xC4, payload_of(s, 0xC4) + b"\x00"),
                                "DHT segment length mismatch"),
    "dht-values-past-segment": (lambda s: replace_segment(
        s, 0xC4, payload_of(s, 0xC4) + b"\x00" + bytes([0, 1] + [0] * 14)),
        "DHT segment length mismatch"),
    "sos-empty": (lambda s: replace_segment(s, 0xDA, b""), "SOS segment length mismatch"),
    "sos-two-components": (lambda s: replace_segment(s, 0xDA, bytes([2, 1, 0x00, 2, 0x11,
                                                                     0, 63, 0])),
                           "SOS must describe a 3-component interleaved scan"),
}


@pytest.mark.parametrize("edit", sorted(READER_EDITS))
def test_stream_reader_rules(edit, natural_image, request):
    stream = encode_baseline(natural_image(16, 16, seed=1), tables_for_quality(50))
    patch, message = READER_EDITS[edit]
    patched = patch(stream)
    assert patched != stream
    if message is None:
        raster = decode_baseline(patched)
        assert np.array_equal(raster, decode_baseline(stream))
        assert np.array_equal(raster, request.getfixturevalue("libjpeg_decode")(patched))
    else:
        with pytest.raises(JpegFormatError, match=f"^{re.escape(message)}$"):
            decode_baseline(patched)


def test_huffman_destination_above_3_rejected_as_by_libjpeg(natural_image, libjpeg_decode):
    # T.81 B.2.4.2 allows destinations 0-3.  A copy of the Y DC table at
    # destination 4 is one no scan can select, yet libjpeg stops at it.
    stream = encode_baseline(natural_image(16, 16, seed=1), tables_for_quality(50))
    y_dc = b"\x04" + b"".join(DEFAULT_SPECS[0, 0])
    patched = insert_before(stream, 0xDA, segment(0xC4, y_dc))
    with pytest.raises(ValueError, match="Bogus DHT index 4"):
        libjpeg_decode(patched)
    with pytest.raises(JpegFormatError, match="^invalid Huffman table destination 4$"):
        entropy_decode(patched)


def test_huffman_table_of_more_than_256_values_rejected_as_by_libjpeg(natural_image,
                                                                      libjpeg_decode):
    # 255 codes of 9 bits and 200 of 10 fit, but a table codes at most 256
    # symbols; libjpeg's get_dht stops at a larger count.  The table sits at
    # an AC destination the scan does not use.
    stream = encode_baseline(natural_image(16, 16, seed=1), tables_for_quality(50))
    lengths = bytes([0] * 8 + [255, 200] + [0] * 6)
    patched = insert_before(stream, 0xDA, segment(0xC4, b"\x12" + lengths + bytes(455)))
    with pytest.raises(ValueError, match="Bogus Huffman table definition"):
        libjpeg_decode(patched)
    with pytest.raises(JpegFormatError, match="^Huffman table holds 455 values, more than 256$"):
        entropy_decode(patched)


def test_overfull_huffman_table_no_scan_uses_decodes_as_by_libjpeg(natural_image,
                                                                   libjpeg_decode):
    # libjpeg checks a code for room only in jpeg_make_d_derived_tbl, for the
    # tables a scan uses; three 1-bit codes at AC destination 2 go unread.
    stream = encode_baseline(natural_image(16, 16, seed=1), tables_for_quality(50))
    overfull = b"\x12" + bytes([3] + [0] * 15) + bytes([1, 2, 3])
    patched = insert_before(stream, 0xDA, segment(0xC4, overfull))
    raster = decode_baseline(patched)
    assert np.array_equal(raster, decode_baseline(stream))
    assert np.array_equal(raster, libjpeg_decode(patched))


def test_ac_symbol_of_size_0_ends_the_block_as_in_libjpeg(natural_image, libjpeg_decode):
    # T.81 gives size 0 a meaning only at runs 0 (EOB) and 15 (ZRL), but
    # libjpeg's decode_mcu ends the block at any run but 15.  With 0x50 coded
    # in place of EOB, every block keeps its coefficients.
    stream = encode_baseline(natural_image(16, 16, seed=1), tables_for_quality(50))
    eob = stream.index(b"\xff\xc4") + 4 + 29 + 17 + 3  # the Y AC table's 4th value
    assert stream[eob] == DEFAULT_SPECS[1, 0][1][3] == 0x00
    patched = stream[:eob] + b"\x50" + stream[eob + 1 :]
    raster = decode_baseline(patched)
    assert np.array_equal(raster, decode_baseline(stream))
    assert np.array_equal(raster, libjpeg_decode(patched))


def test_ac_run_past_coefficient_63_lands_on_it_as_in_libjpeg(libjpeg_decode):
    # After three ZRLs the next coefficient is the 49th; a run of 15 puts it
    # past the block.  libjpeg's natural-order table maps indexes 64-79 to
    # 63, so the value, +1, is stored at coefficient 63.
    y = CODES[0, 0][0] + CODES[1, 0][0xF0] * 3 + CODES[1, 0][0xF1] + "1"
    chroma = CODES[0, 1][0] + CODES[1, 1][0x00]
    stream = hand_coded_stream(1, y + chroma * 2)
    grids, _, _ = entropy_decode(stream)
    expected = np.zeros((1, 1, 8, 8), dtype=np.int16)
    expected[0, 0, 7, 7] = 1
    assert np.array_equal(grids[0].blocks, expected)
    assert not grids[1].blocks.any() and not grids[2].blocks.any()
    assert np.array_equal(decode_baseline(stream),
                          libjpeg_decode(stream, env={"JSIMD_FORCENONE": "1"}))
