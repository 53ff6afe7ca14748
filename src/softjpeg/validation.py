"""Input validation helpers shared by the estimator and the CLI."""

import os

import numpy as np


class NotFittedError(RuntimeError):
    """The estimator was used before ``fit`` (or loading a checkpoint)."""


def check_is_fitted(estimator):
    if getattr(estimator, "params_", None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() or load a checkpoint"
        )


def check_rgb_image(image):
    """Validate and return an (H, W, 3) uint8 raster."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) image, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("image must have at least one pixel")
    if arr.dtype != np.uint8:
        if np.issubdtype(arr.dtype, np.floating) and not np.all(arr == np.rint(arr)):
            raise ValueError("float images must hold integral values in [0, 255]")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("image values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    return np.ascontiguousarray(arr)


def check_image_list(X):
    """Accept a single image or an iterable of images; return a list of rasters."""
    if isinstance(X, np.ndarray) and X.ndim == 3:
        return [check_rgb_image(X)]
    if isinstance(X, np.ndarray) and X.ndim == 4:
        return [check_rgb_image(img) for img in X]
    if isinstance(X, (list, tuple)):
        return [check_rgb_image(img) for img in X]
    raise ValueError("expected an image, an array batch, or a list of images")


def check_data_source(X):
    """Classify fit() input as ('dir', path) or ('images', list)."""
    if isinstance(X, (str, os.PathLike)):
        path = os.fspath(X)
        if not os.path.isdir(path):
            raise ValueError(f"{path!r} is not a directory")
        return "dir", path
    return "images", check_image_list(X)
