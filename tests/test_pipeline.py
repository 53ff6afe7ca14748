import numpy as np
import pytest

from softjpeg import autodiff as ad
from softjpeg import pipeline as pl
from softjpeg import training as tr
from softjpeg.autodiff import Tensor
from softjpeg.codec import (
    entropy_decode,
    forward_grids,
    idct_blocks,
    tables_for_quality,
)
from softjpeg.editor import init_refiner, init_stem
from softjpeg.losses import psnr


CFG = tr.TrainConfig(soft_round_alternate=False).pipeline


def tables_from_pair(pair, scale=CFG.table_scale):
    return pl.LearnableTables(
        Tensor(pair.luma * scale, requires_grad=True),
        Tensor(pair.chroma * scale, requires_grad=True),
        scale,
    )


def unit_scores(n):
    return Tensor(np.ones((n, 64))), Tensor(np.ones((n, 64)))


def zeroed_refiner(params):
    for t in params.refiner.named().values():
        t.data[...] = 0.0
    return params


# --- table initialization and export -----------------------------------------


def test_init_tables_within_interval_and_seeded():
    rng = np.random.default_rng(0)
    tables = pl.init_tables(1e-5, rng)
    for t in (tables.luma.data, tables.chroma.data):
        assert t.min() >= 1e-5 and t.max() <= 2e-5
    again = pl.init_tables(1e-5, np.random.default_rng(0))
    assert np.array_equal(tables.luma.data, again.luma.data)
    other = pl.init_tables(1e-5, np.random.default_rng(1))
    assert not np.array_equal(tables.luma.data, other.luma.data)


def test_init_tables_rejects_nonpositive_scale():
    for bad in (0.0, -1e-5):
        with pytest.raises(ValueError):
            pl.init_tables(bad, np.random.default_rng(0))


def test_export_clamp_boundaries():
    s = 1e-5
    tables = pl.LearnableTables(Tensor(np.full((8, 8), s)), Tensor(np.full((8, 8), 255 * s)), s)
    exported = pl.export_tables(tables)
    assert np.all(exported.luma == 1)
    assert np.all(exported.chroma == 255)


def test_export_is_reciprocal_of_multiplier():
    rng = np.random.default_rng(3)
    s = 1e-5
    tables = pl.init_tables(s, rng)
    tables.luma.data[...] = rng.uniform(s, 255 * s, (8, 8))
    exported = pl.export_tables(tables)
    multiplier = pl.table_multiplier(tables, "Y").data
    for idx in [(0, 0), (1, 5), (3, 3), (7, 7), (4, 2), (2, 6), (6, 1), (5, 5), (0, 7), (7, 0)]:
        assert exported.luma[idx] == np.round(1.0 / multiplier[idx])


def test_exported_tables_always_in_range_after_init():
    for seed in range(5):
        tables = pl.init_tables(1e-5, np.random.default_rng(seed))
        exported = pl.export_tables(tables)
        for t in (exported.luma, exported.chroma):
            assert t.min() >= 1 and t.max() <= 255


def test_clamp_keeps_stored_entries_in_bounds():
    tables = pl.init_tables(1e-5, np.random.default_rng(0))
    tables.luma.data[0, 0] = 1e-9
    tables.chroma.data[3, 3] = 1.0
    tables.clamp_()
    assert tables.luma.data[0, 0] == 1e-5
    assert tables.chroma.data[3, 3] == 255e-5


# --- quantization path ---------------------------------------------------------


def test_unit_edits_reciprocal_tables_match_codec_quantization(small_image):
    pair = tables_for_quality(50)
    params = pl.PipelineParams(init_stem(np.random.default_rng(0)),
                               init_refiner(np.random.default_rng(1), CFG.hidden_size),
                               tables_from_pair(pair))
    padded, h, w = pl._pad_batch(small_image)
    rows_map, geometry = pl._batch_coefficient_rows(padded)
    n = geometry[0] * geometry[1] * geometry[2]

    hard = pl.quantize_rows(rows_map, unit_scores(n), params, CFG, rounding="hard")
    soft = pl.quantize_rows(rows_map, unit_scores(n), params, CFG, rounding="soft")
    direct = forward_grids(small_image, pair)
    for grid in direct:
        mine_hard = hard[grid.channel].data.reshape(grid.blocks.shape)
        assert np.array_equal(mine_hard, grid.blocks)
        mine_soft = soft[grid.channel].data.reshape(grid.blocks.shape)
        assert np.abs(mine_soft - grid.blocks).max() <= 0.125 + 1e-12


def test_zero_edit_scores_zero_the_coefficients(small_image):
    params = pl.init_pipeline(CFG, seed=0)
    padded, h, w = pl._pad_batch(small_image)
    rows_map, geometry = pl._batch_coefficient_rows(padded)
    n = geometry[0] * geometry[1] * geometry[2]
    zeros = (Tensor(np.zeros((n, 64))), Tensor(np.zeros((n, 64))))
    quantized = pl.quantize_rows(rows_map, zeros, params, CFG, rounding="soft")
    assert all(np.all(q.data == 0.0) for q in quantized.values())


def test_gradient_reaches_tables_wherever_product_nonzero():
    rng = np.random.default_rng(2)
    params = pl.init_pipeline(CFG, seed=3)
    rows_map = {ch: Tensor(rng.normal(size=(4, 64)) * 50) for ch in ("Y", "Cb", "Cr")}
    scores = unit_scores(4)
    quantized = pl.quantize_rows(rows_map, scores, params, CFG, rounding="soft")
    total = ad.reduce_mean(ad.concat([quantized[ch] for ch in ("Y", "Cb", "Cr")], axis=0))
    ad.backward(total)
    assert np.abs(params.tables.luma.grad).min() > 0.0
    assert np.abs(params.tables.chroma.grad).min() > 0.0


# --- decode path -----------------------------------------------------------------


def test_zero_coefficients_and_zero_edits_decode_to_mid_gray():
    params = zeroed_refiner(pl.init_pipeline(CFG, seed=0))
    quantized = {ch: Tensor(np.zeros((4, 64))) for ch in ("Y", "Cb", "Cr")}
    out = pl.decode_rows(quantized, params, CFG, (1, 2, 2), 16, 16)
    assert np.allclose(out.data, 128.0, atol=1e-9)


def test_zero_decoder_edits_equal_plain_dequantize_idct_path(small_image):
    params = zeroed_refiner(pl.init_pipeline(CFG, seed=1))
    pair = tables_for_quality(75)
    params = pl.PipelineParams(params.stem, params.refiner, tables_from_pair(pair))
    direct = forward_grids(small_image, pair)
    geometry = (1,) + direct[0].blocks.shape[:2]
    quantized = {
        g.channel: Tensor(g.blocks.reshape(-1, 64).astype(float)) for g in direct
    }
    ours = pl.decode_rows(quantized, params, CFG, geometry,
                          small_image.shape[0], small_image.shape[1]).data[0]

    # independent plain path: dequantize, inverse DCT, assemble, convert
    from softjpeg.codec import assemble_plane, dequantize_blocks
    from softjpeg.codec.color import ycbcr_to_rgb_float

    planes = []
    for g in direct:
        blocks = idct_blocks(dequantize_blocks(g.blocks, pair.for_channel(g.channel)))
        planes.append(assemble_plane(blocks, g.height, g.width))
    expected = np.clip(ycbcr_to_rgb_float(np.stack(planes, axis=-1)), 0.0, 255.0)
    assert np.abs(ours - expected).max() < 1e-9


def test_identity_tables_unit_edits_roundtrip_psnr(natural_image):
    img = natural_image(48, 64, seed=21)
    params = zeroed_refiner(pl.init_pipeline(CFG, seed=2))
    ones_pair = tables_from_pair(tables_for_quality(100))  # all-ones tables
    params = pl.PipelineParams(params.stem, params.refiner, ones_pair)
    padded, h, w = pl._pad_batch(img)
    rows_map, geometry = pl._batch_coefficient_rows(padded)
    n = geometry[0] * geometry[1] * geometry[2]
    for rounding in ("hard", "soft"):
        quantized = pl.quantize_rows(rows_map, unit_scores(n), params, CFG, rounding)
        recon = pl.decode_rows(quantized, params, CFG, geometry, h, w).data[0]
        assert psnr(img, np.clip(np.rint(recon), 0, 255)) >= 40.0


# --- full forward ----------------------------------------------------------------


def test_forward_output_matches_input_dimensions(natural_image):
    img = natural_image(41, 53, seed=9)
    params = pl.init_pipeline(CFG, seed=5)
    out = pl.forward(img, params, CFG)
    assert out.reconstruction.shape == (1, 41, 53, 3)
    assert out.bpp is None


def test_forward_deterministic_for_fixed_seed(natural_image):
    img = natural_image(32, 32, seed=10)
    a = pl.forward(img, pl.init_pipeline(CFG, seed=7), CFG)
    b = pl.forward(img, pl.init_pipeline(CFG, seed=7), CFG)
    assert np.array_equal(a.reconstruction.data, b.reconstruction.data)


def test_refiner_weights_are_tied_between_encoder_and_decoder(natural_image):
    img = natural_image(32, 32, seed=16)
    params = pl.init_pipeline(CFG, seed=12)
    before = pl.forward(img, params, CFG)
    params.refiner.U.data += 0.05  # one update must be visible to both paths
    after = pl.forward(img, params, CFG)
    assert not np.array_equal(before.scores[0].data, after.scores[0].data)
    assert not np.array_equal(before.reconstruction.data, after.reconstruction.data)


def test_every_parameter_group_receives_gradient(natural_image):
    img = natural_image(32, 32, seed=11)
    params = pl.init_pipeline(CFG, seed=8)
    out = pl.forward(img, params, CFG)
    target = Tensor(np.asarray(img, float)[None])
    diff = ad.sub(out.reconstruction, target)
    ad.backward(ad.reduce_mean(ad.hadamard_mul(diff, diff)))
    for name, t in params.named().items():
        assert t.grad is not None and np.any(t.grad != 0.0), name


def test_forward_bpp_measured_from_real_bitstream(natural_image):
    img = natural_image(40, 40, seed=12)
    params = pl.init_pipeline(CFG, seed=9)
    out = pl.forward(img, params, CFG, rounding="hard", measure_rate=True)
    assert len(out.bpp) == 1 and out.bpp[0] > 0


def test_encode_stream_is_stock_decodable(natural_image):
    img = natural_image(24, 40, seed=13)
    params = pl.init_pipeline(CFG, seed=10)
    stream = pl.encode_stream(img, params, CFG)
    grids, tables, dims = entropy_decode(stream)
    assert dims == (24, 40)
    exported = pl.export_tables(params.tables)
    assert np.array_equal(tables.luma, exported.luma)
    assert np.array_equal(tables.chroma, exported.chroma)


# --- bpp oracle ------------------------------------------------------------------


def test_all_zero_coefficients_bpp_is_header_plus_eob():
    from softjpeg.codec import CoefficientGrid

    grids = tuple(
        CoefficientGrid(ch, np.zeros((64, 96, 8, 8), dtype=np.int64), 512, 768)
        for ch in ("Y", "Cb", "Cr")
    )
    bpp = pl.measure_bpp(grids, tables_for_quality(50))
    assert 0.0 < bpp < 0.5


def test_bpp_decreases_as_coefficients_are_zeroed(natural_image):
    img = natural_image(128, 128, seed=14)
    pair = tables_for_quality(90)
    grids = forward_grids(img, pair)
    from softjpeg.codec import CoefficientGrid
    from softjpeg.codec.huffman import ZIGZAG

    values = []
    for keep in (64, 32, 16, 4, 1):
        sparsified = []
        for g in grids:
            flat = g.blocks.reshape(-1, 64).copy()
            zz = flat[:, ZIGZAG]
            zz[:, keep:] = 0
            flat[:, ZIGZAG] = zz
            sparsified.append(
                CoefficientGrid(g.channel, flat.reshape(g.blocks.shape), g.height, g.width)
            )
        values.append(pl.measure_bpp(tuple(sparsified), pair))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_quality50_bpp_in_natural_range(natural_image):
    img = natural_image(128, 192, seed=15)
    grids = forward_grids(img, tables_for_quality(50))
    bpp = pl.measure_bpp(grids, tables_for_quality(50))
    assert 0.2 <= bpp <= 2.0
