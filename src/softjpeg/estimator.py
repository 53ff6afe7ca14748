"""Estimator-style front end for the learned pipeline.

``LearnedJpeg`` follows the scikit-learn protocol: hyperparameters are
constructor arguments echoed by ``get_params``/``set_params``; ``fit``
trains on images (or a directory of P6 files) and stores the learned state
on trailing-underscore attributes; ``transform`` compresses images into
standard JFIF streams and ``inverse_transform`` decodes streams back to
rasters.  The object composes with sklearn pipelines by duck typing; no
sklearn import is needed.
"""

import os
from dataclasses import asdict, field, fields, make_dataclass

import numpy as np

from . import pipeline as pl
from . import training as tr
from .codec import decode_baseline
from .codec.ppm import rgb_raster
from .training import LossConfig, TrainConfig


class NotFittedError(RuntimeError):
    """The estimator was used before ``fit`` (or loading a checkpoint)."""


def _check_is_fitted(estimator):
    if estimator.params_ is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() or load a checkpoint"
        )


def _image_list(X):
    """A single image, an array batch or a list of images, as a list."""
    if isinstance(X, np.ndarray):
        return list(X) if X.ndim == 4 else [X]
    if isinstance(X, (list, tuple)):
        return list(X)
    raise ValueError("expected an image, an array batch, or a list of images")


# The desk-scale data sizes the README documents; every other
# hyperparameter takes its TrainConfig or LossConfig default.
_DESK_SIZES = {"batch_size": 8, "patch_size": 64, "num_patches": 64}
# eq=False keeps estimators compared and hashed by identity.
_Hyperparameters = make_dataclass(
    "_Hyperparameters",
    [(f.name, f.type, field(default=_DESK_SIZES.get(f.name, f.default)))
     for f in fields(TrainConfig) + fields(LossConfig) if f.name != "loss"],
    eq=False)


class LearnedJpeg(_Hyperparameters):
    """Jointly learn quantization tables and sparse coefficient edits.

    The parameters are ``TrainConfig``'s fields but ``loss``, then
    ``LossConfig``'s: the optimization schedule, the model size and the
    rate/distortion weights.  After ``fit``, ``params_`` holds the trained
    pipeline parameters and ``transform`` produces bitstreams any baseline
    JPEG decoder can read.
    """

    # Learned state, set by fit and load.
    params_ = config_ = history_ = adam_ = None

    def get_params(self, deep=True):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _train_config(self):
        params = self.get_params()
        loss = LossConfig(**{f.name: params.pop(f.name) for f in fields(LossConfig)})
        return TrainConfig(loss=loss, **params)

    def fit(self, X, y=None):
        """Train on a directory of P6 images or a list of (H, W, 3) rasters."""
        config = self._train_config()
        if isinstance(X, (str, os.PathLike)):
            if not os.path.isdir(X):
                raise ValueError(f"{os.fspath(X)!r} is not a directory")
            patches = tr.load_patches(X, config.patch_size, config.num_patches, config.seed)
        else:
            rng = np.random.default_rng(config.seed)
            # No frame limit: a training crop may come from an image larger
            # than one JFIF frame.
            patches = tr.sample_patches([rgb_raster(img) for img in _image_list(X)],
                                        config.patch_size, config.num_patches, rng)
        checkpoint, history = tr.train_on_patches(patches, config)
        self.params_ = checkpoint.params
        self.adam_ = checkpoint.adam
        self.config_ = config
        self.history_ = history
        return self

    def transform(self, X):
        """Compress images into standard JFIF byte streams."""
        _check_is_fitted(self)
        return [pl.encode_stream(img, self.params_, self.config_.pipeline)
                for img in _image_list(X)]

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)

    def inverse_transform(self, streams):
        """Decode JFIF streams (from transform or any baseline encoder)."""
        if isinstance(streams, (bytes, bytearray)):
            streams = [streams]
        return [decode_baseline(s) for s in streams]

    def quantization_tables(self):
        """The learned integer tables as a QuantTablePair."""
        _check_is_fitted(self)
        return pl.export_tables(self.params_.tables)

    def save(self, path):
        _check_is_fitted(self)
        tr.save_checkpoint(tr.TrainingCheckpoint(self.params_, self.adam_, self.config_), path)
        return self

    @classmethod
    def load(cls, path):
        """Rebuild a fitted estimator from a training checkpoint."""
        ckpt = tr.load_checkpoint(path)
        cfg = ckpt.config
        values = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "loss"}
        est = cls(**values, **asdict(cfg.loss))
        est.params_ = ckpt.params
        est.adam_ = ckpt.adam
        est.config_ = cfg
        return est
