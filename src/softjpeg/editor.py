"""Per-block sparse multiplicative edit scores.

A small stride-8 convolutional stem maps an image to one 128-channel feature
site per 8x8 block; the site is reshaped to two 8x8 maps (one luminance, one
chrominance).  A multiplicative recurrent refiner iterates each map a fixed
number of steps from a zero state, its first step z_1 = tanh(H Wz), and a
k-winners-take-all projection turns the state into sparse per-block edit
values.  The decoder shares the refiner but has no stem: its input maps come
from dequantized coefficients.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, kwta

EDIT_CHANNELS = 128  # 64 luminance + 64 chrominance values per block site
COEFF_INPUT_SCALE = 1.0 / 1024.0  # dequantized coefficients to roughly [-1, 1]


class NamedParams:
    """Base of the parameter dataclasses: names their Tensor fields, in
    declaration order, as ``<PREFIX>.<field>``, the names checkpoints store.
    Only the init functions build parameters; a checkpoint loads into the
    tensors they build."""

    PREFIX = ""

    def named(self):
        return {f"{self.PREFIX}.{f.name}": getattr(self, f.name)
                for f in fields(self) if f.type is Tensor}


@dataclass
class StemParams(NamedParams):
    """Three stride-2 conv layers (3->32->64->256) plus a 1x1 reduction to 128."""

    PREFIX = "stem"

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor
    w4: Tensor
    b4: Tensor


@dataclass
class RefinerParams(NamedParams):
    """Weights of the shared multiplicative recurrent refiner.

    Oriented for right multiplication: inputs are rows, so e.g. ``Wf`` maps
    a length-64 block map to the hidden size h via ``H @ Wf``.
    """

    PREFIX = "smrnn"

    Wf: Tensor  # (64, h)
    Vf: Tensor  # (h, h)
    Vz: Tensor  # (h, h)
    Wz: Tensor  # (64, h)
    U: Tensor   # (h, 64)

    @property
    def hidden_size(self):
        return self.Wf.shape[1]


def _he_conv(rng, out_ch, in_ch, ksize):
    fan_in = in_ch * ksize * ksize
    w = rng.normal(0.0, np.sqrt(2.0 / fan_in), (out_ch, in_ch, ksize, ksize))
    return Tensor(w, requires_grad=True), Tensor(np.zeros(out_ch), requires_grad=True)


def _orthogonal(rng, rows, cols):
    a = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q if q.shape == (rows, cols) else q.T


def init_stem(rng):
    w1, b1 = _he_conv(rng, 32, 3, 3)
    w2, b2 = _he_conv(rng, 64, 32, 3)
    w3, b3 = _he_conv(rng, 256, 64, 3)
    # 1x1 channel reduction, orthogonally initialized.
    w4 = Tensor(_orthogonal(rng, EDIT_CHANNELS, 256).reshape(EDIT_CHANNELS, 256, 1, 1),
                requires_grad=True)
    b4 = Tensor(np.zeros(EDIT_CHANNELS), requires_grad=True)
    return StemParams(w1, b1, w2, b2, w3, b3, w4, b4)


def init_refiner(rng, hidden_size):
    h = int(hidden_size)
    scale = 1.0 / np.sqrt(h)

    def mat(rows, cols):
        return Tensor(rng.normal(0.0, scale, (rows, cols)), requires_grad=True)

    return RefinerParams(Wf=mat(64, h), Vf=mat(h, h), Vz=mat(h, h), Wz=mat(64, h), U=mat(h, 64))


def stem_forward(image, params):
    """Map an image batch to sigmoid-bounded block features.

    ``image`` is a (B, 3, H, W) tensor in [0, 1] with H, W multiples of 8;
    output is (B, 128, H/8, W/8): one feature site per 8x8 block.
    """
    if image.shape[2] % 8 or image.shape[3] % 8:
        raise ad.ShapeError("stem_forward", image.shape, "(H, W multiples of 8)")
    x = ad.tanh(ad.conv2d(image, params.w1, params.b1, stride=2, padding=1))
    x = ad.tanh(ad.conv2d(x, params.w2, params.b2, stride=2, padding=1))
    x = ad.tanh(ad.conv2d(x, params.w3, params.b3, stride=2, padding=1))
    return ad.sigmoid(ad.conv2d(x, params.w4, params.b4, stride=1, padding=0))


def split_edit_maps(features):
    """Reshape (B, 128, r, c) features into per-block (H_L, H_C) rows.

    Each site's 128 channels are read as an 8x8x2 tensor and split on the
    last axis; block rows are ordered (image, block row, block col).
    """
    b, ch, rows, cols = features.shape
    if ch != EDIT_CHANNELS:
        raise ad.ShapeError("split_edit_maps", features.shape, (b, EDIT_CHANNELS, rows, cols))
    sites = ad.reshape(ad.transpose(features, (0, 2, 3, 1)), (b * rows * cols, 64, 2))
    h_l = ad.reshape(ad.narrow(sites, 2, 0, 1), (b * rows * cols, 64))
    h_c = ad.reshape(ad.narrow(sites, 2, 1, 1), (b * rows * cols, 64))
    return h_l, h_c


def refine(h_map, params, steps):
    """Iterate f_k = (H @ Wf) * (z_{k-1} @ Vf);  z_k = tanh(f_k @ Vz + H @ Wz)
    ``steps`` times from z_0 = 0, so z_1 = tanh(H @ Wz).  ``h_map`` is (N, 64);
    the result is (N, h), zeros for steps == 0.
    """
    if steps < 0:
        raise ValueError(f"refine steps must be nonnegative, got {steps}")
    if h_map.shape[1] != params.Wf.shape[0]:
        raise ad.ShapeError("refine", h_map.shape, params.Wf.shape)
    if steps == 0:
        return ad.zeros((h_map.shape[0], params.hidden_size))
    gate = ad.matmul(h_map, params.Wf)
    drive = ad.matmul(h_map, params.Wz)
    z = ad.tanh(drive)
    for _ in range(steps - 1):
        f = ad.hadamard_mul(gate, ad.matmul(z, params.Vf))
        z = ad.tanh(ad.add(ad.matmul(f, params.Vz), drive))
    return z


def _scores_from_map(h_map, refiner, k, steps):
    # The refiner's iterations would hold most of the training graph; backward
    # rebuilds them instead, with the same bits.
    z = ad.recompute(lambda h, *weights: refine(h, RefinerParams(*weights), steps),
                     h_map, *refiner.named().values())
    return kwta(ad.matmul(z, refiner.U), k)


def edit_scores(image, stem, refiner, k, steps):
    """Encoder-side sparse edit values for every block.

    Returns (c_L, c_C), each (num_blocks, 64) with at most k nonzero entries
    per row.  The luminance and chrominance branches run independently on
    their own 8x8 maps.
    """
    features = stem_forward(image, stem)
    h_l, h_c = split_edit_maps(features)
    return _scores_from_map(h_l, refiner, k, steps), _scores_from_map(h_c, refiner, k, steps)


def coefficient_edit_scores(dequantized, refiner, k, steps):
    """Decoder-side edit values from dequantized coefficient rows (N, 64)."""
    h_map = ad.clamp(ad.scalar_mul(dequantized, COEFF_INPUT_SCALE), -1.0, 1.0)
    return _scores_from_map(h_map, refiner, k, steps)
