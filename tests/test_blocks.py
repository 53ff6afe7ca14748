import numpy as np
import pytest

from softjpeg.codec import CoefficientGrid, partition_plane
from tests.reference import assemble_plane


def test_constant_128_plane_becomes_zero_block():
    blocks = partition_plane(np.full((8, 8), 128.0))
    assert blocks.shape == (1, 1, 8, 8)
    assert np.all(blocks == 0.0)


def test_nine_wide_plane_pads_by_edge_replication():
    plane = np.arange(72, dtype=np.float64).reshape(8, 9)
    blocks = partition_plane(plane)
    assert blocks.shape == (1, 2, 8, 8)
    # Column 9 (index 8) is replicated into padded columns 10..16 of block 2.
    second = blocks[0, 1] + 128.0
    for col in range(1, 8):
        assert np.array_equal(second[:, col], plane[:, 8])


def test_768x512_plane_gives_96_by_64_grid():
    blocks = partition_plane(np.zeros((512, 768)))
    assert blocks.shape[:2] == (64, 96)


def test_assemble_inverts_partition_with_crop():
    rng = np.random.default_rng(0)
    plane = rng.uniform(0, 255, (21, 13))
    blocks = partition_plane(plane)
    assert np.allclose(assemble_plane(blocks, 21, 13), plane)


def test_empty_plane_rejected():
    with pytest.raises(ValueError):
        partition_plane(np.zeros((0, 8)))


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        CoefficientGrid("Y", np.zeros((2, 2, 4, 4)), 16, 16)
    with pytest.raises(ValueError):
        CoefficientGrid("Y", np.zeros((2, 2, 8, 8)), 64, 64)
    grid = CoefficientGrid("Y", np.zeros((2, 2, 8, 8)), 16, 16)
    assert grid.channel == "Y"
