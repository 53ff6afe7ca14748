import math

import numpy as np
import pytest

from softjpeg import autodiff as ad
from softjpeg import losses
from softjpeg.autodiff import Tensor
from softjpeg.pipeline import LearnableTables
from softjpeg.training import LossConfig
from tests.reference import grad_check


def tables_with_multiplier(value, scale=1e-5):
    """Stored entries v = s / value so the reciprocal table is `value`."""
    data = np.full((8, 8), scale / value)
    return LearnableTables(Tensor(data, requires_grad=True),
                           Tensor(data.copy(), requires_grad=True), scale)


def test_loss_config_validation():
    LossConfig(lam=0.9)
    with pytest.raises(ValueError):
        LossConfig(lam=0.995)
    with pytest.raises(ValueError):
        LossConfig(lam=0.0)
    with pytest.raises(ValueError):
        LossConfig(sigma=0.05)
    with pytest.raises(ValueError):
        LossConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="'gamma' must be finite"):
        LossConfig(gamma=math.nan)


def test_mse_mae_identical_inputs_zero():
    x = np.arange(12.0).reshape(3, 4)
    assert losses.mse(Tensor(x), Tensor(x)).item() == 0.0
    assert losses.mae(Tensor(x), Tensor(x)).item() == 0.0
    assert losses.mse_metric(x, x) == 0.0


def test_uniform_difference_of_one():
    x = np.zeros((5, 5))
    assert losses.mse(Tensor(x), Tensor(x + 1.0)).item() == 1.0
    assert losses.mae(Tensor(x), Tensor(x + 1.0)).item() == 1.0
    assert losses.mse_metric(x, x + 1.0) == 1.0


def test_mse_mae_match_two_loop_oracle():
    rng = np.random.default_rng(0)
    # integer-valued entries make the sums exact in any accumulation order
    a = rng.integers(-9, 10, (6, 7)).astype(np.float64)
    b = rng.integers(-9, 10, (6, 7)).astype(np.float64)
    se = ae = 0.0
    for i in range(6):
        for j in range(7):
            se += (a[i, j] - b[i, j]) ** 2
            ae += abs(a[i, j] - b[i, j])
    assert losses.mse(Tensor(a), Tensor(b)).item() == se / 42
    assert losses.mae(Tensor(a), Tensor(b)).item() == ae / 42
    assert losses.mse_metric(a, b) == se / 42


def test_tensor_variants_are_differentiable():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    y = Tensor(np.array([2.0, 2.0, 2.0]))
    out = losses.mse(x, y)
    ad.backward(out)
    assert np.allclose(x.grad, 2.0 * (x.data - y.data) / 3)


def test_shape_mismatch_raises():
    with pytest.raises(ad.ShapeError, match="mse"):
        losses.mse_metric(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ad.ShapeError):
        losses.mse(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_psnr_values():
    assert losses.psnr_from_mse(0.0) == 100.0
    assert abs(losses.psnr_from_mse(1.0) - 48.1308) < 1e-3
    assert losses.psnr_from_mse(65025.0) == 0.0


def test_psnr_strictly_decreases_with_mse():
    values = [losses.psnr_from_mse(m) for m in (0.5, 1.0, 5.0, 100.0, 10000.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_distortion_gamma_zero_is_mse():
    rng = np.random.default_rng(1)
    a, b = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(4, 4)))
    assert losses.distortion_loss(a, b, 0.0).item() == losses.mse(a, b).item()


def test_distortion_identical_inputs_zero_any_gamma():
    x = Tensor(np.ones((3, 3)))
    feat = lambda t: ad.tanh(t)
    assert losses.distortion_loss(x, Tensor(np.ones((3, 3))), 2.0, feat).item() == 0.0


def test_distortion_combines_proxy_linearly():
    # Fabricated case: MSE = 2.0 and proxy = 0.5 must combine to 2.5 at gamma=1.
    x = Tensor(np.zeros((2, 2)))
    y = Tensor(np.full((2, 2), np.sqrt(2.0)))
    scale = np.sqrt(0.5 / 2.0)
    feat = lambda t: ad.scalar_mul(t, scale)
    out = losses.distortion_loss(x, y, 1.0, feat)
    assert abs(out.item() - 2.5) < 1e-12


def test_distortion_needs_features_when_gamma_positive():
    x = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        losses.distortion_loss(x, x, 0.5)


def test_rate_loss_direct_evaluation():
    tables = tables_with_multiplier(1.0 / 16.0)
    scores = (Tensor(np.zeros((3, 64))), Tensor(np.zeros((3, 64))))
    out = losses.rate_loss(tables, scores, alpha=1.0, beta=0.0)
    assert abs(out.item() - 8.0) < 1e-9  # 2 * 64 / 16


def test_rate_loss_zero_weights_and_zero_scores():
    tables = tables_with_multiplier(0.5)
    scores = (Tensor(np.zeros((2, 64))), Tensor(np.zeros((2, 64))))
    assert losses.rate_loss(tables, scores, 0.0, 0.0).item() == 0.0
    assert losses.rate_loss(tables, scores, 0.0, 5.0).item() == 0.0


def test_rate_loss_nonnegative_and_beta_term():
    tables = tables_with_multiplier(0.25)
    scores = (Tensor(np.full((2, 64), 0.5)), Tensor(np.full((2, 64), 0.25)))
    out = losses.rate_loss(tables, scores, alpha=0.0, beta=2.0)
    assert abs(out.item() - 2.0 * (0.5 + 0.25)) < 1e-12


def test_alignment_loss_examples():
    x = Tensor(np.zeros((2, 2)))
    assert losses.alignment_loss(x, Tensor(np.zeros((2, 2))), 0.25).item() == 0.0
    # MSE=4, MAE=1.5 with sigma 0.25 -> 0.75*4 + 0.25*1.5 = 3.375
    y = Tensor(np.array([[3.0, 3.0], [0.0, 0.0]]))
    # MSE = (9+9)/4 = 4.5 ... construct exactly: diffs (2,2,2,2) gives 4 and 2
    y = Tensor(np.full((2, 2), 2.0))
    z = Tensor(np.array([[3.0, 0.0], [3.0, 0.0]]))
    assert losses.alignment_loss(x, y, 0.25).item() == 0.75 * 4.0 + 0.25 * 2.0
    assert abs(losses.alignment_loss(x, z, 0.25).item() - (0.75 * 4.5 + 0.25 * 1.5)) < 1e-12


def test_alignment_decreases_with_sigma_when_mae_below_mse():
    x = Tensor(np.zeros((4,)))
    y = Tensor(np.array([4.0, 0.0, 0.0, 0.0]))  # MSE=4, MAE=1
    low = losses.alignment_loss(x, y, 0.1).item()
    high = losses.alignment_loss(x, y, 0.4).item()
    assert high < low


def test_total_loss_weights_sum_to_one():
    for lam in (0.1, 0.5, 0.9, 0.99):
        cfg = LossConfig(lam=lam)
        assert abs(cfg.lam + cfg.rate_weight + losses.ALIGNMENT_WEIGHT - 1.0) < 1e-15


def test_total_loss_hand_computed_combination():
    # d = 1, al = 0.875, r = 0.5: total = 0.9 + 0.09*0.5 + 0.01*0.875
    x = Tensor(np.zeros((4,)))
    y = Tensor(np.array([2.0, 0.0, 0.0, 0.0]))  # MSE=1, MAE=0.5
    tables = tables_with_multiplier(1.0 / 16.0)
    scores = (Tensor(np.zeros((1, 64))), Tensor(np.zeros((1, 64))))
    cfg = LossConfig(lam=0.9, sigma=0.25, alpha=0.5 / 8.0, beta=0.0)
    terms = losses.loss_terms(x, y, tables, scores, cfg)
    assert abs(terms["d"].item() - 1.0) < 1e-12
    assert abs(terms["r"].item() - 0.5) < 1e-9
    assert abs(terms["al"].item() - 0.875) < 1e-12
    expected = 0.9 * 1.0 + 0.09 * terms["r"].item() + 0.01 * 0.875
    assert abs(terms["total"].item() - expected) < 1e-12


def test_total_loss_zero_for_identical_images_without_rate():
    x = Tensor(np.full((3, 3), 7.0))
    tables = tables_with_multiplier(0.5)
    scores = (Tensor(np.zeros((1, 64))), Tensor(np.zeros((1, 64))))
    cfg = LossConfig(lam=0.9, alpha=0.0, beta=0.0)
    terms = losses.loss_terms(x, Tensor(np.full((3, 3), 7.0)), tables, scores, cfg)
    assert terms["total"].item() == 0.0


def test_loss_gradients_pass_finite_difference_check():
    rng = np.random.default_rng(5)
    y = Tensor(rng.uniform(0, 10, (1, 4)))
    tables = tables_with_multiplier(0.125)
    cfg = LossConfig(lam=0.9, sigma=0.25, alpha=1e-2, beta=1e-2)

    def through_xhat(t):
        scores = (ad.concat([t] * 16, axis=1), Tensor(np.full((1, 64), 0.3)))
        return losses.loss_terms(Tensor(y.data), ad.hadamard_mul(t, t), tables, scores,
                                 cfg)["total"]

    x0 = rng.uniform(1.0, 3.0, (1, 4))
    assert grad_check(through_xhat, Tensor(x0), eps=1e-4) < 1e-4


# --- structural similarity ------------------------------------------------------


def test_msssim_identical_is_one(natural_image):
    img = natural_image(176, 176, seed=2).astype(float)[..., 0]
    assert abs(losses.ssim_and_msssim(img, img)[1] - 1.0) < 1e-9


def test_msssim_symmetry_and_range(natural_image):
    rng = np.random.default_rng(3)
    a = natural_image(176, 192, seed=4)
    b = np.clip(a.astype(float) + rng.normal(0, 10, a.shape), 0, 255)
    v1 = losses.ssim_and_msssim(a, b)[1]
    v2 = losses.ssim_and_msssim(b, a)[1]
    assert abs(v1 - v2) < 1e-9
    assert 0.0 <= v1 < 1.0


def test_msssim_db_values():
    assert losses.msssim_db(1.0) == 100.0
    assert losses.msssim_db(0.9) == 10.0
    assert abs(losses.msssim_db(0.99) - 20.0) < 1e-12


def test_msssim_db_strictly_increasing():
    values = [losses.msssim_db(v) for v in (0.1, 0.5, 0.9, 0.99, 0.999)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_msssim_rejects_small_images():
    with pytest.raises(ValueError, match="176"):
        losses.ssim_and_msssim(np.zeros((100, 300)), np.zeros((100, 300)))


def test_ssim_identical_is_one():
    rng = np.random.default_rng(6)
    img = rng.uniform(0, 255, (176, 184))
    assert abs(losses.ssim_and_msssim(img, img)[0] - 1.0) < 1e-9


def test_ssim_is_the_mean_of_a_direct_gaussian_window_map(natural_image):
    rng = np.random.default_rng(8)
    a = natural_image(184, 200, seed=9)
    b = np.clip(a.astype(float) + rng.normal(0, 12, a.shape), 0, 255)
    x, y = (img @ np.array([0.299, 0.587, 0.114]) for img in (a, b))
    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2 * 1.5**2))
    window = np.outer(g, g) / g.sum() ** 2

    def local_mean(plane):  # at every position the 11x11 window fits
        return np.einsum("ijkl,kl->ij", np.lib.stride_tricks.sliding_window_view(
            plane, window.shape), window)

    mu_x, mu_y = local_mean(x), local_mean(y)
    var_x, var_y = local_mean(x * x) - mu_x**2, local_mean(y * y) - mu_y**2
    cov = local_mean(x * y) - mu_x * mu_y
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    ssim_map = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)
                / ((mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)))
    single, _ = losses.ssim_and_msssim(a, b)
    assert 0.0 < single < 1.0
    assert abs(single - ssim_map.mean()) < 1e-12
