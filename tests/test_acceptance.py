"""Acceptance suite: every release criterion as one test with a printed
pass line and a pinned tolerance.  Run with -s to see the report lines.

The training-based criteria share one 200-step reference run (module-scoped
fixture); its wall-clock budget is asserted where the criterion states one.
"""

import time

import numpy as np
import pytest

from softjpeg import autodiff as ad
from softjpeg import pipeline as pl
from softjpeg import training as tr
from softjpeg.autodiff import Tensor
from softjpeg.codec import decode_baseline, encode_baseline, round_half_away, tables_for_quality
from softjpeg.codec.dct import fdct_blocks
from softjpeg.losses import loss_terms, msssim, msssim_db, psnr_from_mse
from softjpeg.training import LossConfig
from tests.conftest import make_natural_image
from tests.reference import grad_check, idct_blocks
from tests.test_autodiff import _op_closures


def report(name):
    print(f"ACCEPTANCE PASS: {name}")


# --- shared training fixtures ---------------------------------------------------


def smoke_config(alpha=1e-3):
    return tr.TrainConfig(
        steps=200, batch_size=8, patch_size=64, num_patches=8, seed=1,
        loss=LossConfig(lam=0.9, sigma=0.25, alpha=alpha, beta=1e-3, gamma=0.0),
    )


@pytest.fixture(scope="module")
def smoke_patches():
    rng = np.random.default_rng(0)
    pool = [make_natural_image(256, 256, seed=42), make_natural_image(256, 256, seed=43)]
    return tr.sample_patches(pool, 64, 8, rng)


@pytest.fixture(scope="module")
def held_out_patch():
    rng = np.random.default_rng(5)
    return tr.sample_patches([make_natural_image(256, 256, seed=99)], 64, 1, rng)[0]


@pytest.fixture(scope="module")
def smoke_run(smoke_patches):
    # One step per call, resuming from the last checkpoint, so the clamp is
    # checked after every update; the smoke test's uninterrupted replay then
    # also checks the 200 resumes.
    config = smoke_config()
    s = config.table_scale
    checkpoint, history, bounds_ok = None, [], []
    start = time.perf_counter()
    for step in range(1, config.steps + 1):
        checkpoint, records = tr.train_on_patches(smoke_patches, config, resume=checkpoint,
                                                  stop_step=step)
        history += records
        tables = checkpoint.params.tables
        lo = min(tables.luma.data.min(), tables.chroma.data.min())
        hi = max(tables.luma.data.max(), tables.chroma.data.max())
        bounds_ok.append(s <= lo and hi <= 255 * s)
    elapsed = time.perf_counter() - start
    return checkpoint, history, elapsed, bounds_ok


# --- criteria --------------------------------------------------------------------


def test_codec_conformance_against_reference_decoder(libjpeg_decode):
    start = time.perf_counter()
    for seed, (h, w) in [(7, (120, 184)), (11, (97, 131)), (23, (64, 200))]:
        image = make_natural_image(h, w, seed)
        for quality in (10, 50, 90):
            stream = encode_baseline(image, tables_for_quality(quality))
            reference = libjpeg_decode(stream)
            ours = decode_baseline(stream)
            peak = np.abs(ours.astype(int) - reference.astype(int)).max()
            assert peak <= 1, f"quality {quality}: max deviation {peak}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"conformance runtime {elapsed:.1f}s"
    report(f"codec conformance: 3 images x q10/50/90 within +-1 of stock decoder "
           f"({elapsed:.1f}s)")


def test_dct_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    blocks = rng.uniform(-128, 127, (1000, 8, 8))
    peak = np.abs(idct_blocks(fdct_blocks(blocks)) - blocks).max()
    elapsed = time.perf_counter() - start
    assert peak < 1e-10
    assert elapsed < 1.0
    report(f"DCT round-trip: max |idct(fdct(x)) - x| = {peak:.2e} over 1000 blocks "
           f"({elapsed:.2f}s)")


def test_gradient_integrity_ops_and_full_pipeline():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    worst_op = 0.0
    for name, spec in _op_closures(rng).items():
        shape, closure = spec[0], spec[1]
        prepare = spec[2] if len(spec) > 2 else (lambda x: x)
        for _ in range(20):
            x = prepare(rng.uniform(-2.0, 2.0, shape))
            x = x + np.where(np.abs(np.abs(x) - 1.5) < 1e-3, 5e-3, 0.0)
            err = grad_check(closure, Tensor(x), eps=1e-4)
            assert err < 1e-4, f"{name}: {err}"
            worst_op = max(worst_op, err)

    # d(total loss)/d(tables) through the full pipeline on a 16x16 image,
    # against central differences.  Perturbations are expressed in units of
    # the table scale s (the parameters live in [1s, 255s]).  The surrogate
    # loss is only piecewise smooth in the tables (rounding cells, kWTA
    # support changes), so each entry walks an eps ladder and accepts the
    # first step that is Richardson-consistent: FD(eps) and FD(eps/2) must
    # agree, proving the window sits inside one smooth piece and above the
    # float cancellation floor of the loss value.
    config = tr.TrainConfig().pipeline
    image = make_natural_image(16, 16, seed=77)
    target = Tensor(np.asarray(image, float)[None])
    loss_cfg = LossConfig(lam=0.9, sigma=0.25, alpha=1e-3, beta=1e-3, gamma=0.0)

    def loss_with(params):
        out = pl.forward(image, params, config, rounding="soft")
        return loss_terms(target, out.reconstruction, params.tables, out.scores,
                          loss_cfg)["total"].item()

    def fd(params, table, idx, eps):
        keep = table.data[idx]
        table.data[idx] = keep + eps
        hi = loss_with(params)
        table.data[idx] = keep - eps
        lo = loss_with(params)
        table.data[idx] = keep
        return (hi - lo) / (2 * eps)

    params = pl.init_pipeline(config, seed=8)
    out = pl.forward(image, params, config, rounding="soft")
    terms = loss_terms(target, out.reconstruction, params.tables, out.scores, loss_cfg)
    ad.backward(terms["total"])
    worst_pipe = 0.0
    ladder = [3e-4, 1e-4, 3e-5, 1e-5]
    for table in (params.tables.luma, params.tables.chroma):
        analytic = table.grad.copy()
        for idx in np.ndindex(8, 8):
            numeric = None
            for eps_scale in ladder:
                eps = eps_scale * config.table_scale
                coarse = fd(params, table, idx, eps)
                fine = fd(params, table, idx, eps / 2)
                if abs(coarse - fine) / max(abs(coarse), abs(fine), 1e-8) < 3e-4:
                    numeric = fine
                    break
            assert numeric is not None, f"no smooth FD window at table entry {idx}"
            denom = max(abs(analytic[idx]), abs(numeric), 1e-8)
            worst_pipe = max(worst_pipe, abs(analytic[idx] - numeric) / denom)
    elapsed = time.perf_counter() - start
    assert worst_pipe < 1e-3, f"full-pipeline table gradient rel err {worst_pipe}"
    assert elapsed < 60.0
    report(f"gradient integrity: ops max rel err {worst_op:.2e}; "
           f"pipeline d(loss)/d(tables) rel err {worst_pipe:.2e} ({elapsed:.0f}s)")


def test_soft_round_surrogate():
    integers = np.arange(-1000.0, 1001.0)
    out = ad.soft_round(Tensor(integers), alternate_sign=False).data
    assert np.array_equal(out, integers)

    sweep = np.linspace(-500.0, 500.0, 1_000_000)
    soft = ad.soft_round(Tensor(sweep), alternate_sign=False).data
    hard = round_half_away(sweep)
    peak = np.abs(soft - hard).max()
    assert peak <= 0.125 + 1e-12

    probe = Tensor(sweep, requires_grad=True)
    verbatim = ad.soft_round(probe, alternate_sign=False)
    ad.backward(ad.scalar_mul(ad.reduce_mean(verbatim), float(sweep.size)))
    expected = -3.0 * (round_half_away(sweep) - sweep) ** 2
    deriv_err = np.abs(probe.grad - expected).max()
    assert deriv_err < 1e-10
    report(f"soft-round surrogate: exact at integers, |soft-hard| <= {peak:.3f}, "
           f"derivative matches -3(round(x)-x)^2 within {deriv_err:.1e}")


def test_kwta_against_sort_oracle():
    rng = np.random.default_rng(8)
    for trial in range(10_000):
        if trial % 3 == 0:
            values = np.round(rng.normal(0, 1, 64), 1)  # coarse: frequent ties
        else:
            values = rng.normal(0, 1, 64)
        k = int(rng.integers(0, 65))
        out = ad.kwta(Tensor(values), k).data
        order = sorted(range(64), key=lambda i: (-abs(values[i]), i))
        oracle = {i for i in order[:k] if values[i] != 0.0}
        assert set(np.nonzero(out)[0].tolist()) == oracle
    report("kWTA: support equals sort-based top-k (ties to lowest index) on 10^4 vectors")


def test_baseline_equivalence_bitwise():
    rng = np.random.default_rng(3)
    config = tr.TrainConfig().pipeline
    pair = tables_for_quality(50)
    tables = pl.LearnableTables(
        Tensor(pair.luma * config.table_scale, requires_grad=True),
        Tensor(pair.chroma * config.table_scale, requires_grad=True),
        config.table_scale,
    )
    params = pl.PipelineParams(None, None, tables)
    blocks = rng.uniform(-500, 500, (100, 64))
    rows = {ch: Tensor(blocks.copy()) for ch in ("Y", "Cb", "Cr")}
    ones = (Tensor(np.ones((100, 64))), Tensor(np.ones((100, 64))))
    hard = pl.quantize_rows(rows, ones, params, config, rounding="hard")
    for channel in ("Y", "Cb", "Cr"):
        table = pair.for_channel(channel)
        expected = round_half_away(blocks.reshape(100, 8, 8) / table)
        assert np.array_equal(hard[channel].data.reshape(100, 8, 8), expected)
    report("baseline equivalence: unit edits + reciprocal standard tables quantize "
           "bitwise-identically to the codec on 100 random blocks")


def test_training_smoke(smoke_run, smoke_patches):
    checkpoint, history, elapsed, bounds_ok = smoke_run
    losses = [h["loss"] for h in history]
    smoothed = float(np.mean(losses[-20:]))
    drop = 1.0 - smoothed / losses[0]
    assert len(losses) == 200
    assert smoothed <= 0.8 * losses[0], f"loss fell only {drop:.1%}"
    assert all(bounds_ok), "table parameters left [1s, 255s] during training"
    assert elapsed < 300.0, f"smoke run took {elapsed:.0f}s"

    _, replay = tr.train_on_patches(smoke_patches, smoke_config())
    assert [h["loss"] for h in replay] == losses, "trajectory not bit-exact under fixed seed"
    report(f"training smoke: loss fell {drop:.1%} (>= 20%), tables clamped every step, "
           f"bit-exact replay, {elapsed:.0f}s (< 5 min)")


def test_rate_lever(smoke_run, smoke_patches, held_out_patch):
    checkpoint, _, _, _ = smoke_run

    def reciprocal_l1(ckpt):
        s = ckpt.params.tables.scale
        return float(np.abs(s / ckpt.params.tables.luma.data).sum()
                     + np.abs(s / ckpt.params.tables.chroma.data).sum())

    def held_out_bpp(ckpt):
        out = pl.forward(held_out_patch, ckpt.params, ckpt.config.pipeline,
                         rounding="hard", measure_rate=True)
        return out.bpp[0]

    strong, _ = tr.train_on_patches(smoke_patches, smoke_config(alpha=1e-2))
    l1_base, l1_strong = reciprocal_l1(checkpoint), reciprocal_l1(strong)
    bpp_base, bpp_strong = held_out_bpp(checkpoint), held_out_bpp(strong)
    assert l1_strong < l1_base, f"|Q|_1 {l1_base:.3f} -> {l1_strong:.3f}"
    assert bpp_strong < bpp_base, f"bpp {bpp_base:.3f} -> {bpp_strong:.3f}"
    report(f"rate lever: alpha x10 lowered reciprocal-table L1 {l1_base:.2f} -> "
           f"{l1_strong:.2f} and held-out bpp {bpp_base:.3f} -> {bpp_strong:.3f}")


def test_metric_exactness():
    assert abs(psnr_from_mse(1.0) - 48.1308) <= 1e-3
    image = make_natural_image(176, 176, seed=6)
    assert abs(msssim(image, image) - 1.0) <= 1e-9
    assert msssim_db(0.9) == 10.0
    report("metrics: PSNR(MSE=1) = 48.1308 +- 1e-3, MS-SSIM(x,x) = 1 +- 1e-9, "
           "msssim_db(0.9) = 10 exactly")


def test_interop_checkpoint_encode_stock_decodable(smoke_run, libjpeg_decode):
    checkpoint, _, _, _ = smoke_run
    image = make_natural_image(120, 184, seed=12)
    stream = pl.encode_stream(image, checkpoint.params, checkpoint.config.pipeline)

    raster = libjpeg_decode(stream)
    assert raster.shape == image.shape
    assert decode_baseline(stream).shape == image.shape
    report("interop: checkpoint-mode encode verified and decoded by a stock JPEG decoder, "
           "dimensions preserved")
