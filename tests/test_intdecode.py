import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from softjpeg.codec.intdecode import _ISLOW, integer_idct_samples
from tests.reference import idct_1d_butterfly, integer_idct_butterfly

# Leading dimensions 1-3 in front of each 8x8 block, int16 coefficients over
# their whole range and tables in 1..255, as an 8-bit baseline DQT holds.
BLOCKS = hnp.array_shapes(min_dims=1, max_dims=3, max_side=3).flatmap(
    lambda lead: hnp.arrays(np.int16, lead + (8, 8)))
TABLES = hnp.arrays(np.int64, (8, 8), elements=st.integers(1, 255))
# Coefficients signed as the first row of the matrix, in both passes: the
# largest sums the exactness bound has to cover.
SIGNS = np.sign(np.outer(_ISLOW[0], _ISLOW[0])).astype(np.int16)


def test_islow_is_the_butterfly_applied_to_the_identity():
    composed = idct_1d_butterfly(np.eye(8, dtype=np.int64), 0, 0)
    assert np.array_equal(_ISLOW, composed)
    # The bound in integer_idct_samples' docstring rests on this row sum.
    assert np.abs(_ISLOW).sum(axis=1).max() == 61214


@given(BLOCKS, TABLES)
@example(np.full((1, 8, 8), -32768, np.int16), np.full((8, 8), 255))
@example(np.full((2, 3, 8, 8), 32767, np.int16), np.full((8, 8), 255))
@example(SIGNS[None] * np.int16(32767), np.full((8, 8), 255))
@example(np.where(SIGNS > 0, -32768, 32767).astype(np.int16)[None, None],
         np.full((8, 8), 255))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_integer_idct_samples_equal_the_butterfly_bit_for_bit(blocks, table):
    samples = integer_idct_samples(blocks, table)
    assert samples.shape == blocks.shape
    assert np.array_equal(samples, integer_idct_butterfly(blocks, table))
