"""Training objectives and evaluation metrics.

The objective (``mse``, ``mae`` and the composite losses) takes autodiff
tensors and returns scalar tensors on the graph; the image-quality metrics
(MSE, PSNR, SSIM, MS-SSIM) take plain arrays and return floats.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .codec.color import YCBCR_FROM_RGB
from .pipeline import table_multiplier

# Weight reserved for the alignment term in the total loss.
ALIGNMENT_WEIGHT = 0.01

_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_WINDOW_SIZE = 11
MIN_MSSSIM_SIDE = _WINDOW_SIZE * 2 ** (len(_MSSSIM_WEIGHTS) - 1)  # 176


def mse(x, xhat):
    """Mean squared elementwise difference of two tensors."""
    d = ad.sub(x, xhat)
    return ad.reduce_mean(ad.hadamard_mul(d, d))


def mae(x, xhat):
    """Mean absolute elementwise difference of two tensors."""
    d = ad.sub(x, xhat)
    return ad.scalar_mul(ad.reduce_l1(d), 1.0 / d.size)


def distortion_loss(x, xhat, gamma, features=None):
    """MSE plus an optional feature-space proxy term.

    ``features`` maps an image tensor to a feature tensor (the vision stem);
    the proxy is the mean squared distance between feature maps.  gamma == 0
    disables the term entirely.
    """
    loss = mse(x, xhat)
    if gamma > 0.0:
        if features is None:
            raise ValueError("distortion_loss needs a feature function when gamma > 0")
        proxy = mse(features(x), features(xhat))
        loss = ad.add(loss, ad.scalar_mul(proxy, gamma))
    return loss


def rate_loss(tables, scores, alpha, beta):
    """L1 of the reciprocal tables plus the mean of the sparse edit maps."""
    m_l = table_multiplier(tables, "Y")
    m_c = table_multiplier(tables, "Cb")
    term_q = ad.add(ad.reduce_l1(m_l), ad.reduce_l1(m_c))
    c_l, c_c = scores
    term_c = ad.add(ad.reduce_mean(c_l), ad.reduce_mean(c_c))
    return ad.add(ad.scalar_mul(term_q, alpha), ad.scalar_mul(term_c, beta))


def alignment_loss(x, xhat, sigma):
    """(1 - sigma) * MSE + sigma * MAE."""
    return ad.add(ad.scalar_mul(mse(x, xhat), 1.0 - sigma),
                  ad.scalar_mul(mae(x, xhat), sigma))


def loss_terms(x, xhat, tables, scores, cfg, features=None):
    """All objective terms: {"d", "r", "al", "total"} as scalar tensors.

    total = lam * d + (1 - lam - 0.01) * r + 0.01 * al, so the three
    weights always sum to one.
    """
    d = distortion_loss(x, xhat, cfg.gamma, features)
    r = rate_loss(tables, scores, cfg.alpha, cfg.beta)
    al = alignment_loss(x, xhat, cfg.sigma)
    total = ad.add(
        ad.add(ad.scalar_mul(d, cfg.lam), ad.scalar_mul(r, cfg.rate_weight)),
        ad.scalar_mul(al, ALIGNMENT_WEIGHT),
    )
    return {"d": d, "r": r, "al": al, "total": total}


# --- image quality metrics ---------------------------------------------------


def _check_same_shape(name, x, y):
    if x.shape != y.shape:
        raise ad.ShapeError(name, x.shape, y.shape)


def mse_metric(x, xhat):
    """Mean squared elementwise difference of two arrays, in float64."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    _check_same_shape("mse", x, xhat)
    d = x - xhat
    return float(np.mean(d * d))


def psnr_from_mse(value):
    if value < 0:
        raise ValueError(f"MSE cannot be negative, got {value}")
    if value == 0.0:
        return 100.0
    return float(10.0 * np.log10(255.0**2 / value))


def psnr(x, xhat):
    """Peak signal-to-noise ratio in dB; 100 dB cap for identical inputs."""
    return psnr_from_mse(mse_metric(x, xhat))


def _luma(img):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3 and img.shape[2] == 3:
        return img @ YCBCR_FROM_RGB[0]
    if img.ndim == 2:
        return img
    raise ValueError(f"expected a 2D plane or (H, W, 3) image, got shape {img.shape}")


# SSIM's 11-tap Gaussian window, sigma 1.5, normalized to sum 1, and its
# stabilizing constants (K1 L)^2 and (K2 L)^2 for K1 = 0.01, K2 = 0.03 and
# a peak L of 255.
_WINDOW = np.exp(-((np.arange(_WINDOW_SIZE) - (_WINDOW_SIZE - 1) / 2.0) ** 2) / (2.0 * 1.5**2))
_WINDOW /= _WINDOW.sum()
_C1, _C2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2


def _filter_valid(plane):
    """Separable 'valid'-mode correlation with ``_WINDOW`` on both axes."""
    out = sliding_window_view(plane, _WINDOW_SIZE, axis=0) @ _WINDOW
    return sliding_window_view(out, _WINDOW_SIZE, axis=1) @ _WINDOW


def _ssim_maps(x, y):
    mu_x = _filter_valid(x)
    mu_y = _filter_valid(y)
    var_x = _filter_valid(x * x) - mu_x * mu_x
    var_y = _filter_valid(y * y) - mu_y * mu_y
    cov = _filter_valid(x * y) - mu_x * mu_y
    cs = (2.0 * cov + _C2) / (var_x + var_y + _C2)
    ssim = ((2.0 * mu_x * mu_y + _C1) / (mu_x * mu_x + mu_y * mu_y + _C1)) * cs
    return ssim, cs


def ssim_and_msssim(x, xhat):
    """``(ssim, msssim)`` of the luma planes from one pass: 5-scale MS-SSIM
    in [0, 1], and single-scale SSIM (11-tap Gaussian window) as the mean of
    its level-0 SSIM map."""
    x = _luma(x)
    y = _luma(xhat)
    _check_same_shape("msssim", x, y)
    if min(x.shape) < MIN_MSSSIM_SIDE:
        raise ValueError(
            f"msssim needs at least {MIN_MSSSIM_SIDE}x{MIN_MSSSIM_SIDE} images "
            f"(5 dyadic scales of {_WINDOW_SIZE}-tap windows), got {x.shape}"
        )
    value = 1.0
    for level, weight in enumerate(_MSSSIM_WEIGHTS):
        ssim_map, cs_map = _ssim_maps(x, y)
        if level == 0:
            single = float(np.mean(ssim_map))
        last = level == len(_MSSSIM_WEIGHTS) - 1
        stat = np.mean(ssim_map if last else cs_map)
        value *= max(stat, 0.0) ** weight
        if not last:
            h, w = x.shape
            x = x[: h - h % 2, : w - w % 2].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            y = y[: h - h % 2, : w - w % 2].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
    return single, float(value)


def msssim_db(value):
    """-10 log10(1 - v), capped at 100 dB as v reaches 1."""
    if value >= 1.0:
        return 100.0
    return min(100.0, float(-10.0 * np.log10(1.0 - value)))
