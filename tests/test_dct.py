import numpy as np

from softjpeg.codec import DCT_MATRIX, fdct_blocks
from tests.reference import idct_blocks


def naive_fdct(block):
    """Direct double-sum type-II DCT with orthonormal scaling."""
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            cu = 1 / np.sqrt(2) if u == 0 else 1.0
            cv = 1 / np.sqrt(2) if v == 0 else 1.0
            acc = 0.0
            for x in range(8):
                for y in range(8):
                    acc += (
                        block[x, y]
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
            out[u, v] = acc * cu * cv / 4.0
    return out


def test_basis_is_orthogonal():
    assert np.allclose(DCT_MATRIX @ DCT_MATRIX.T, np.eye(8), atol=1e-12)


def test_zero_block_maps_to_zero():
    assert np.all(fdct_blocks(np.zeros((8, 8))) == 0.0)
    assert np.all(idct_blocks(np.zeros((8, 8))) == 0.0)


def test_constant_two_block_has_dc_16():
    coeffs = fdct_blocks(np.full((8, 8), 2.0))
    assert abs(coeffs[0, 0] - 16.0) < 1e-12
    ac = coeffs.copy()
    ac[0, 0] = 0.0
    assert np.abs(ac).max() < 1e-12


def test_dc_only_inverts_to_constant_block():
    coeffs = np.zeros((8, 8))
    coeffs[0, 0] = 16.0
    assert np.allclose(idct_blocks(coeffs), 2.0, atol=1e-12)


def test_matches_direct_double_sum():
    rng = np.random.default_rng(3)
    block = rng.uniform(-128, 127, (8, 8))
    assert np.allclose(fdct_blocks(block), naive_fdct(block), atol=1e-10)


def test_roundtrip_1000_random_blocks_below_1e10():
    rng = np.random.default_rng(1)
    x = rng.uniform(-128, 127, (1000, 8, 8))
    assert np.abs(idct_blocks(fdct_blocks(x)) - x).max() < 1e-10


def test_forward_of_inverse_is_identity():
    rng = np.random.default_rng(2)
    c = rng.uniform(-500, 500, (100, 8, 8))
    assert np.abs(fdct_blocks(idct_blocks(c)) - c).max() < 1e-10
