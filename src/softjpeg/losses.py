"""Training objectives and evaluation metrics.

``mse``/``mae`` accept either autodiff tensors (returning a scalar tensor on
the graph) or plain arrays (returning a float).  The composite losses are
tensor-only; the image-quality metrics (PSNR, SSIM, MS-SSIM) are plain
numpy.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .pipeline import table_multiplier

# Weight reserved for the alignment term in the total loss.
ALIGNMENT_WEIGHT = 0.01

_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_WINDOW_SIZE = 11
_MIN_MSSSIM_SIDE = _WINDOW_SIZE * 2 ** (len(_MSSSIM_WEIGHTS) - 1)  # 176


@dataclass
class LossConfig:
    """Weights of the distortion / rate / alignment objective."""

    lam: float = 0.9
    gamma: float = 0.0
    sigma: float = 0.25
    alpha: float = 1e-3
    beta: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.lam <= 0.99:
            raise ValueError(f"lam must lie in (0, 0.99] so all weights stay nonnegative, "
                             f"got {self.lam}")
        if self.gamma < 0 or self.alpha < 0 or self.beta < 0:
            raise ValueError("gamma, alpha and beta must be nonnegative")
        if not 0.1 <= self.sigma <= 0.4:
            raise ValueError(f"sigma must lie in [0.1, 0.4], got {self.sigma}")

    @property
    def rate_weight(self):
        return 1.0 - self.lam - ALIGNMENT_WEIGHT


def _check_same_shape(name, x, y):
    xs = x.shape if hasattr(x, "shape") else np.shape(x)
    ys = y.shape if hasattr(y, "shape") else np.shape(y)
    if xs != ys:
        raise ad.ShapeError(name, xs, ys)


def mse(x, xhat):
    """Mean squared elementwise difference over all entries."""
    _check_same_shape("mse", x, xhat)
    if isinstance(x, Tensor) or isinstance(xhat, Tensor):
        x = x if isinstance(x, Tensor) else Tensor(x)
        xhat = xhat if isinstance(xhat, Tensor) else Tensor(xhat)
        d = ad.sub(x, xhat)
        return ad.reduce_mean(ad.hadamard_mul(d, d))
    d = np.asarray(x, dtype=np.float64) - np.asarray(xhat, dtype=np.float64)
    return float(np.mean(d * d))


def mae(x, xhat):
    """Mean absolute elementwise difference over all entries."""
    _check_same_shape("mae", x, xhat)
    if isinstance(x, Tensor) or isinstance(xhat, Tensor):
        x = x if isinstance(x, Tensor) else Tensor(x)
        xhat = xhat if isinstance(xhat, Tensor) else Tensor(xhat)
        d = ad.sub(x, xhat)
        return ad.scalar_mul(ad.reduce_l1(d), 1.0 / d.size)
    d = np.asarray(x, dtype=np.float64) - np.asarray(xhat, dtype=np.float64)
    return float(np.mean(np.abs(d)))


def psnr_from_mse(value):
    if value < 0:
        raise ValueError(f"MSE cannot be negative, got {value}")
    if value == 0.0:
        return 100.0
    return float(10.0 * np.log10(255.0**2 / value))


def psnr(x, xhat):
    """Peak signal-to-noise ratio in dB; 100 dB cap for identical inputs."""
    return psnr_from_mse(mse(np.asarray(x, float), np.asarray(xhat, float)))


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
    if not 0.1 <= sigma <= 0.4:
        raise ValueError(f"sigma must lie in [0.1, 0.4], got {sigma}")
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


def _luma(img):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3 and img.shape[2] == 3:
        return img @ np.array([0.299, 0.587, 0.114])
    if img.ndim == 2:
        return img
    raise ValueError(f"expected a 2D plane or (H, W, 3) image, got shape {img.shape}")


def _gaussian_window(size=_WINDOW_SIZE, sigma=1.5):
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma**2))
    return g / g.sum()


_WINDOW = _gaussian_window()


def _filter_valid(plane, window=_WINDOW):
    """Separable 'valid'-mode correlation with a 1D window on both axes."""
    from numpy.lib.stride_tricks import sliding_window_view

    out = sliding_window_view(plane, len(window), axis=0) @ window
    return sliding_window_view(out, len(window), axis=1) @ window


def _ssim_maps(x, y, k1=0.01, k2=0.03, peak=255.0):
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    mu_x = _filter_valid(x)
    mu_y = _filter_valid(y)
    var_x = _filter_valid(x * x) - mu_x * mu_x
    var_y = _filter_valid(y * y) - mu_y * mu_y
    cov = _filter_valid(x * y) - mu_x * mu_y
    cs = (2.0 * cov + c2) / (var_x + var_y + c2)
    ssim = ((2.0 * mu_x * mu_y + c1) / (mu_x * mu_x + mu_y * mu_y + c1)) * cs
    return ssim, cs


def ssim(x, xhat):
    """Mean single-scale SSIM over the luma plane (11-tap Gaussian window)."""
    x = _luma(x)
    y = _luma(xhat)
    _check_same_shape("ssim", x, y)
    if min(x.shape) < _WINDOW_SIZE:
        raise ValueError(f"ssim needs images of at least {_WINDOW_SIZE}x{_WINDOW_SIZE}")
    return float(np.mean(_ssim_maps(x, y)[0]))


def msssim(x, xhat):
    """5-scale multi-scale SSIM on the luma plane, in [0, 1]."""
    x = _luma(x)
    y = _luma(xhat)
    _check_same_shape("msssim", x, y)
    if min(x.shape) < _MIN_MSSSIM_SIDE:
        raise ValueError(
            f"msssim needs at least {_MIN_MSSSIM_SIDE}x{_MIN_MSSSIM_SIDE} images "
            f"(5 dyadic scales of {_WINDOW_SIZE}-tap windows), got {x.shape}"
        )
    value = 1.0
    for level, weight in enumerate(_MSSSIM_WEIGHTS):
        ssim_map, cs_map = _ssim_maps(x, y)
        last = level == len(_MSSSIM_WEIGHTS) - 1
        stat = np.mean(ssim_map if last else cs_map)
        value *= max(stat, 0.0) ** weight
        if not last:
            h, w = x.shape
            x = x[: h - h % 2, : w - w % 2].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            y = y[: h - h % 2, : w - w % 2].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
    return float(value)


def msssim_db(value):
    """-10 log10(1 - v), capped at 100 dB as v reaches 1."""
    if value >= 1.0:
        return 100.0
    return min(100.0, float(-10.0 * np.log10(1.0 - value)))
