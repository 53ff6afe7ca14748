import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softjpeg.codec import (
    QuantTablePair,
    quantize_blocks,
    round_half_away,
    tables_for_quality,
)
from softjpeg.codec.quant import CHROMA_BASE_TABLE, LUMA_BASE_TABLE
from tests.reference import dequantize_blocks


def test_simple_division():
    assert quantize_blocks(np.full((8, 8), 100.0), np.full((8, 8), 10))[0, 0] == 10


def test_negative_half_rounds_away_from_zero():
    # -26/16 = -1.625 rounds to -2.
    assert quantize_blocks(np.full((8, 8), -26.0), np.full((8, 8), 16))[0, 0] == -2
    assert round_half_away(np.array([0.5, -0.5, 1.5, -1.5])).tolist() == [1, -1, 2, -2]


@given(st.floats(-1000, 1000, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_identity_table_roundtrip_error_at_most_half(value):
    table = np.ones((8, 8), dtype=np.int64)
    block = np.full((8, 8), value)
    back = dequantize_blocks(quantize_blocks(block, table), table)
    assert np.abs(back - block).max() <= 0.5


def test_table_pair_range_validation():
    with pytest.raises(ValueError):
        QuantTablePair(np.zeros((8, 8)), np.ones((8, 8)))
    with pytest.raises(ValueError):
        QuantTablePair(np.ones((8, 8)), np.full((8, 8), 256))


def test_quality_50_is_base_tables():
    pair = tables_for_quality(50)
    assert np.array_equal(pair.luma, LUMA_BASE_TABLE)
    assert np.array_equal(pair.chroma, CHROMA_BASE_TABLE)


def test_quality_scaling_monotone_and_bounded():
    previous = None
    for q in (10, 25, 50, 75, 90, 100):
        pair = tables_for_quality(q)
        for t in (pair.luma, pair.chroma):
            assert t.min() >= 1 and t.max() <= 255
        if previous is not None:
            assert np.all(pair.luma <= previous.luma)
        previous = pair
    assert np.all(tables_for_quality(100).luma == 1)


@pytest.mark.parametrize("quality", [0, 101, -5])
def test_quality_out_of_range_rejected(quality):
    with pytest.raises(ValueError):
        tables_for_quality(quality)
