import re

import numpy as np
import pytest

from softjpeg import LearnedJpeg
from softjpeg import pipeline as pl
from softjpeg import training as tr
from softjpeg.codec import (
    CoefficientGrid,
    JpegFormatError,
    PpmFormatError,
    QuantTablePair,
    bits_per_pixel,
    decode_baseline,
    decode_ppm,
    encode_baseline,
    encode_ppm,
    entropy_encode,
    forward_grids,
    quantize_grids,
    tables_for_quality,
    transform_grids,
    write_ppm,
)
from softjpeg.losses import psnr
from tests.conftest import traced_peak


def test_decode_matches_reference_decoder_within_one(natural_image, libjpeg_decode):
    for seed, (h, w) in [(7, (120, 184)), (11, (97, 131)), (23, (64, 200))]:
        img = natural_image(h, w, seed)
        for quality in (10, 50, 90):
            stream = encode_baseline(img, tables_for_quality(quality))
            ref = libjpeg_decode(stream)
            ours = decode_baseline(stream)
            assert np.abs(ours.astype(int) - ref.astype(int)).max() <= 1


def test_decode_of_reference_encoder_output_matches(natural_image, libjpeg_decode,
                                                    libjpeg_encode):
    # The system libjpeg's 4:4:4 baseline output must decode here with at
    # most one level of disagreement against a stock decoder.
    img = natural_image(120, 184, seed=7)
    for quality in (50, 90):
        stream = libjpeg_encode(img, quality)
        ours = decode_baseline(stream)
        ref = libjpeg_decode(stream)
        assert np.abs(ours.astype(int) - ref.astype(int)).max() <= 1


@pytest.mark.parametrize(
    "options, error",
    [
        ((50,), None),
        ((90,), None),
        ((10, "optimize"), None),
        ((50, "optimize"), None),
        ((95, "optimize"), None),
        ((75, "420"), "chroma subsampling is not supported"),
        ((75, "restart=1"), "restart intervals are not supported"),
        ((75, "progressive"), "progressive JPEG is not supported"),
        ((75, "crtable"), "Cb and Cr must share one quantization table"),
    ],
    ids=["444-q50", "444-q90", "optimized-q10", "optimized-q50", "optimized-q95", "420", "restart",
         "progressive", "cr-table"],
)
def test_libjpeg_streams_decode_exactly_or_raise(natural_image, libjpeg_encode,
                                                  libjpeg_decode, options, error):
    # libjpeg's 4:4:4 baseline streams decode bit-exactly, with the standard
    # Huffman tables or ones optimized for the image (whose code lengths the
    # standard ones never use); every stream outside the supported subset
    # raises the parser's error.
    stream = libjpeg_encode(natural_image(120, 184, seed=7), *options)
    if error is None:
        assert np.array_equal(decode_baseline(stream), libjpeg_decode(stream))
    else:
        with pytest.raises(JpegFormatError, match=error):
            decode_baseline(stream)


def test_constant_gray_with_identity_tables_is_near_lossless():
    img = np.full((40, 56, 3), 128, dtype=np.uint8)
    ones = QuantTablePair(np.ones((8, 8)), np.ones((8, 8)))
    decoded = decode_baseline(encode_baseline(img, ones))
    assert psnr(img, decoded) >= 50.0


def test_quality_50_psnr_in_natural_range(natural_image):
    img = natural_image(192, 256, seed=31)
    decoded = decode_baseline(encode_baseline(img, tables_for_quality(50)))
    assert 28.0 <= psnr(img, decoded) <= 40.0


def test_decoded_dimensions_match_input(natural_image):
    img = natural_image(37, 61, seed=3)
    decoded = decode_baseline(encode_baseline(img, tables_for_quality(80)))
    assert decoded.shape == img.shape


def test_768x512_encode_has_positive_finite_bpp(natural_image):
    img = natural_image(512, 768, seed=5)
    stream = encode_baseline(img, tables_for_quality(50))
    bpp = bits_per_pixel(stream, 768, 512)
    assert np.isfinite(bpp) and 0.0 < bpp
    assert 0.2 <= bpp <= 2.0


@pytest.mark.parametrize("shape", [(1, 300), (300, 1), (150, 120), (13, 2100)])
def test_transform_once_then_quantize_equals_forward_grids(natural_image, shape):
    # Shapes of one MCU row or column, several bands and partial blocks.
    img = natural_image(*shape, seed=12)
    coefficients = transform_grids(img)
    for quality in (1, 60, 100):
        tables = tables_for_quality(quality)
        for a, b in zip(quantize_grids(coefficients, tables), forward_grids(img, tables)):
            assert a.blocks.dtype == b.blocks.dtype == np.int16
            assert np.array_equal(a.blocks, b.blocks)
            assert (a.channel, a.height, a.width) == (b.channel, b.height, b.width)


def test_decode_working_set_is_bounded_by_the_raster():
    # A flat 1024x1024 q50 stream is ~29 KB, 6 bits per MCU, yet decoding it
    # once peaked at 152 MB: int64 coefficients and whole-plane IDCT
    # temporaries.  int16 coefficients are twice the raster's bytes.
    stream = encode_baseline(np.full((1024, 1024, 3), 90, dtype=np.uint8), tables_for_quality(50))
    raster_bytes = 1024 * 1024 * 3
    assert traced_peak(lambda: decode_baseline(stream)) <= 4 * raster_bytes


def test_kodak_size_encode_peak_memory(natural_image):
    # 18 MB when the float64 image and its YCbCr copy existed whole; the
    # banded front end and Huffman coder hold the int16 grids (2.25 MiB)
    # and one band's temporaries.
    img = natural_image(512, 768, seed=5)
    for quality in (50, 90):
        tables = tables_for_quality(quality)
        assert traced_peak(lambda: encode_baseline(img, tables)) <= 8 * 2**20


def test_large_encode_peak_memory_is_set_by_its_int16_grids(natural_image):
    # The float64 YCbCr image alone would be 96 MiB; the int16 grids are 24.
    img = np.tile(natural_image(256, 256, seed=11), (8, 8, 1))
    grid_bytes = 3 * img.shape[0] * img.shape[1] * 2
    peak = traced_peak(lambda: encode_baseline(img, tables_for_quality(75)))
    assert peak <= grid_bytes + 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# A frame SOF0 cannot declare (a side past 65535) and one decode_baseline
# refuses (past MAX_PIXELS); broadcast, so that no raster is allocated.
UNWRITABLE_FRAMES = [((1, 70000), "each side must be in 1..65535"),
                     ((4104, 4104), "more than the 16777216-pixel limit")]


@pytest.mark.parametrize("shape, message", UNWRITABLE_FRAMES)
def test_encoders_refuse_a_frame_no_decoder_here_takes(shape, message):
    image = np.broadcast_to(np.uint8(90), (*shape, 3))
    tables = tables_for_quality(50)
    with pytest.raises(JpegFormatError, match=message):
        encode_baseline(image, tables)
    config = tr.TrainConfig().pipeline
    with pytest.raises(JpegFormatError, match=message):
        pl.encode_stream(image, pl.init_pipeline(config), config)
    if shape[0] == 1:  # small enough to hold as grids
        blocks = np.zeros((1, -(-shape[1] // 8), 8, 8), dtype=np.int16)
        grids = tuple(CoefficientGrid(ch, blocks, *shape) for ch in ("Y", "Cb", "Cr"))
        with pytest.raises(JpegFormatError, match=message):
            entropy_encode(grids, tables)


@pytest.mark.parametrize("shape", [(32, 48), (32, 48, 4), (2, 32, 48, 3)])
def test_encoders_name_a_raster_shape_they_cannot_code(shape):
    # A (B, H, W, 3) batch once passed as a B*H-row frame, and the learned
    # encoder coded only its first image.
    image = np.zeros(shape, dtype=np.uint8)
    tables = tables_for_quality(50)
    config = tr.TrainConfig().pipeline
    params = pl.init_pipeline(config)
    for encode in (lambda: encode_baseline(image, tables), lambda: forward_grids(image, tables),
                   lambda: transform_grids(image), lambda: pl.encode_stream(image, params, config)):
        with pytest.raises(ValueError, match=re.escape(f"(H, W, 3) raster, got shape {shape}")):
            encode()


def raster_with(dtype, sample):
    """A 16x16 raster of 90s in ``dtype`` with one ``sample``."""
    image = np.full((16, 16, 3), 90, dtype=dtype)
    image[3, 5, 1] = sample
    return image


SHAPE_MESSAGE = "^" + re.escape("expected one (H, W, 3) raster, got shape (16, 16")
SAMPLE_MESSAGE = "^" + re.escape("raster samples must be integers in 0..255") + "$"
# Inputs no 8-bit RGB image is, and the message each raises.
BAD_RASTERS = {
    "shape-16x16": (np.full((16, 16), 90, np.uint8), SHAPE_MESSAGE),
    "shape-16x16x4": (np.full((16, 16, 4), 90, np.uint8), SHAPE_MESSAGE),
    **{f"float64-{v}": (raster_with(np.float64, v), SAMPLE_MESSAGE)
       for v in (np.nan, np.inf, -np.inf, 300, -1, 0.5)},
    **{f"int64-{v}": (raster_with(np.int64, v), SAMPLE_MESSAGE) for v in (300, -1)},
    "bool": (np.ones((16, 16, 3), bool), SAMPLE_MESSAGE),
    "complex": (np.full((16, 16, 3), 90 + 0j), SAMPLE_MESSAGE),
    "string": (np.full((16, 16, 3), "90"), SAMPLE_MESSAGE),
    "object": (np.full((16, 16, 3), 90, dtype=object), SAMPLE_MESSAGE),
}


@pytest.fixture(scope="module")
def fitted_estimator():
    return LearnedJpeg(steps=1, batch_size=1, patch_size=8, num_patches=1, hidden_size=1,
                       kwta_k=1).fit(np.zeros((8, 8, 3), np.uint8))


@pytest.mark.filterwarnings("error")  # no ComplexWarning from a cast
@pytest.mark.parametrize("case", sorted(BAD_RASTERS))
@pytest.mark.parametrize("entry", ["encode_baseline", "forward_grids", "transform_grids",
                                   "encode_stream", "encode_ppm", "write_ppm",
                                   "LearnedJpeg.fit", "LearnedJpeg.transform"])
def test_raster_entry_points_refuse_what_no_8_bit_image_holds(entry, case, fitted_estimator,
                                                              tmp_path):
    # A NaN, inf or out-of-range sample was once coded into a stream.
    image, message = BAD_RASTERS[case]
    tables = tables_for_quality(50)
    est = fitted_estimator
    calls = {
        "encode_baseline": lambda: encode_baseline(image, tables),
        "forward_grids": lambda: forward_grids(image, tables),
        "transform_grids": lambda: transform_grids(image),
        "encode_stream": lambda: pl.encode_stream(image, est.params_, est.config_.pipeline),
        "encode_ppm": lambda: encode_ppm(image),
        "write_ppm": lambda: write_ppm(tmp_path / "bad.ppm", image),
        "LearnedJpeg.fit": lambda: LearnedJpeg(**est.get_params()).fit(image),
        "LearnedJpeg.transform": lambda: est.transform(image),
    }
    with pytest.raises(ValueError, match=message) as caught:
        calls[entry]()
    assert type(caught.value) is ValueError
    assert not (tmp_path / "bad.ppm").exists()


def test_ppm_roundtrip(natural_image):
    img = natural_image(33, 47, seed=13)
    for dtype in (np.uint8, np.int64, np.float64):
        assert np.array_equal(decode_ppm(encode_ppm(img.astype(dtype))), img)


@pytest.mark.parametrize("samples", [[[[300, -1, 7]]], [[[300.0, -1.0, 7.0]]], [[[256, 0, 0]]],
                                     [[[0.5, 0, 0]]], [[[np.nan, 0, 0]]], [[[-np.inf, 0, 0]]]])
def test_ppm_rejects_samples_it_cannot_store(samples, tmp_path):
    with pytest.raises(ValueError, match="integers in 0..255"):
        encode_ppm(np.array(samples))
    with pytest.raises(ValueError, match="integers in 0..255"):
        write_ppm(tmp_path / "bad.ppm", np.array(samples))
    assert not (tmp_path / "bad.ppm").exists()


def test_ppm_header_comments_and_whitespace():
    data = b"P6 # comment\n# another\n 4\t2\n255\n" + bytes(range(24))
    img = decode_ppm(data)
    assert img.shape == (2, 4, 3)
    assert img.reshape(-1).tolist() == list(range(24))


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"P5\n1 1\n255\n\x00", "not a binary PPM"),
        (b"P6\n2 2\n65535\n" + b"\x00" * 12, "maxval"),
        (b"P6\n2 2\n255\n\x00\x00", "truncated"),
        (b"P6\n0 2\n255\n", "zero-sized"),
    ],
)
def test_ppm_rejects_malformed(blob, message):
    with pytest.raises(PpmFormatError, match=message):
        decode_ppm(blob)
