"""Seeded benchmark inputs.

Every input comes from a small fixed pool, so that the outputs of every
pool entry can be pinned in ``pins.json``.  The run's ``--seed`` chooses the
order in which a workload walks its pool; the program only ever sees the
generated rasters and patches.
"""

import numpy as np
from softjpeg.training import sample_patches

KODAK_SHAPE = (512, 768)  # (height, width) of a Kodak-size raster
HALF_KODAK_SHAPE = (256, 384)
CODEC_QUALITIES = (50, 75, 90)

POOL_SIZE = 6  # entries per workload pool; pins cover all of them
_CODEC_SEED0 = 100
_LEARNED_SEED0 = 200
_TRAIN_SEED0 = 300
_CHECKPOINT_SEED0 = 900
IMAGES_PER_TRAIN_POOL = 3


def make_natural_image(height, width, seed):
    """Synthetic but photo-like content: smooth color gradients,
    low-frequency blotches and mild sensor-style noise.

    A copy of ``tests/conftest.make_natural_image``, kept here so that the
    benchmark inputs (and the outputs pinned for them) cannot change when
    the tests do.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    img = np.zeros((height, width, 3))
    for c in range(3):
        base = (
            110
            + 70 * np.sin(2 * np.pi * (xx * (c + 1) / width * 1.7 + yy / height * 0.9 + 0.3 * c))
            + 45 * np.cos(2 * np.pi * (yy * (2 - 0.5 * c) / height + xx / width * 0.35))
        )
        blob = rng.normal(0, 1, (height // 16 + 1, width // 16 + 1))
        blob = np.kron(blob, np.ones((16, 16)))[:height, :width]
        img[:, :, c] = base + 18 * blob + rng.normal(0, 4, (height, width))
    return np.clip(img, 0, 255).astype(np.uint8)


def pool_order(seed):
    """The order in which a run walks a pool, fixed by the run's seed."""
    return [int(i) for i in np.random.default_rng(seed).permutation(POOL_SIZE)]


def codec_image(entry):
    """Kodak-size raster of codec pool entry ``entry``."""
    return make_natural_image(*KODAK_SHAPE, seed=_CODEC_SEED0 + entry)


def learned_image(entry):
    """Half-Kodak raster of learned pool entry ``entry``."""
    return make_natural_image(*HALF_KODAK_SHAPE, seed=_LEARNED_SEED0 + entry)


def _patch_pool(seed0, patch_size, count):
    images = [make_natural_image(*KODAK_SHAPE, seed=seed0 + j)
              for j in range(IMAGES_PER_TRAIN_POOL)]
    return sample_patches(images, patch_size, count, np.random.default_rng(seed0))


def train_patches(entry, config):
    """Patches of train pool entry ``entry``, cropped from Kodak-size rasters
    with ``softjpeg.training.sample_patches``."""
    seed0 = _TRAIN_SEED0 + IMAGES_PER_TRAIN_POOL * entry
    return _patch_pool(seed0, config.patch_size, config.num_patches)


def checkpoint_patches(config):
    """The fixed patch pool the learned workload's checkpoint trains on."""
    return _patch_pool(_CHECKPOINT_SEED0, config.patch_size, config.num_patches)
