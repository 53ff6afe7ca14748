import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from softjpeg.codec import rgb_to_ycbcr
from tests.reference import ycbcr_to_rgb


def _single(r, g, b):
    return np.round(rgb_to_ycbcr(np.array([[[r, g, b]]], dtype=np.uint8)))[0, 0]


def test_black_maps_to_zero_luma_neutral_chroma():
    assert _single(0, 0, 0).tolist() == [0, 128, 128]


def test_white_is_full_luma_neutral_chroma():
    assert _single(255, 255, 255).tolist() == [255, 128, 128]


def test_pure_red_matches_matrix_evaluation():
    # 0.299*255 = 76.245; -0.168736*255 + 128 = 84.97; 0.5*255 + 128 clamps.
    assert _single(255, 0, 0).tolist() == [76, 85, 255]


def test_neutral_roundtrip_pixels():
    assert ycbcr_to_rgb(np.array([[[0.0, 128.0, 128.0]]]))[0, 0].tolist() == [0, 0, 0]
    assert ycbcr_to_rgb(np.array([[[255.0, 128.0, 128.0]]]))[0, 0].tolist() == [255, 255, 255]


def test_roundtrip_error_at_most_one_on_large_sample():
    rng = np.random.default_rng(11)
    rgb = rng.integers(0, 256, (400, 300, 3)).astype(np.uint8)  # 120k pixels
    back = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
    assert np.abs(back.astype(int) - rgb.astype(int)).max() <= 1


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_roundtrip_error_at_most_one_per_channel(r, g, b):
    px = np.array([[[r, g, b]]], dtype=np.uint8)
    back = ycbcr_to_rgb(rgb_to_ycbcr(px))
    assert np.abs(back.astype(int) - px.astype(int)).max() <= 1


def test_planes_are_clamped_to_byte_range():
    ycc = rgb_to_ycbcr(np.full((4, 4, 3), 255, dtype=np.uint8))
    assert ycc.min() >= 0.0 and ycc.max() <= 255.0
