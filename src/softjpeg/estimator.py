"""Estimator-style front end for the learned pipeline.

``LearnedJpeg`` follows the scikit-learn protocol: hyperparameters are
constructor arguments echoed by ``get_params``/``set_params``; ``fit``
trains on images (or a directory of P6 files) and stores the learned state
on trailing-underscore attributes; ``transform`` compresses images into
standard JFIF streams and ``inverse_transform`` decodes streams back to
rasters.  The object composes with sklearn pipelines by duck typing; no
sklearn import is needed.
"""

import inspect
from dataclasses import asdict, fields

import numpy as np

from . import pipeline as pl
from . import training as tr
from .codec import decode_baseline
from .losses import LossConfig
from .validation import check_data_source, check_image_list, check_is_fitted


class LearnedJpeg:
    """Jointly learn quantization tables and sparse coefficient edits.

    Parameters mirror the training configuration: rate/distortion weights
    (``lam``, ``alpha``, ``beta``, ``sigma``, ``gamma``), model size
    (``hidden_size``, ``kwta_k``, ``refine_steps``), the table scale ``s``,
    and the optimization schedule.  After ``fit``, ``params_`` holds the
    trained pipeline parameters and ``transform`` produces bitstreams any
    baseline JPEG decoder can read.
    """

    def __init__(
        self,
        steps=200,
        batch_size=8,
        patch_size=64,
        num_patches=64,
        lr0=3e-4,
        lr_end=1e-8,
        decay_power=1.0,
        table_lr_scale=1e-2,
        hidden_size=64,
        kwta_k=32,
        refine_steps=3,
        table_scale=1e-5,
        soft_round_alternate=True,
        lam=0.9,
        gamma=0.0,
        sigma=0.25,
        alpha=1e-3,
        beta=1e-3,
        seed=0,
    ):
        self.steps = steps
        self.batch_size = batch_size
        self.patch_size = patch_size
        self.num_patches = num_patches
        self.lr0 = lr0
        self.lr_end = lr_end
        self.decay_power = decay_power
        self.table_lr_scale = table_lr_scale
        self.hidden_size = hidden_size
        self.kwta_k = kwta_k
        self.refine_steps = refine_steps
        self.table_scale = table_scale
        self.soft_round_alternate = soft_round_alternate
        self.lam = lam
        self.gamma = gamma
        self.sigma = sigma
        self.alpha = alpha
        self.beta = beta
        self.seed = seed
        self.params_ = None
        self.config_ = None
        self.history_ = None
        self.adam_ = None

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _train_config(self):
        def values(cls):
            return {f.name: getattr(self, f.name) for f in fields(cls) if f.name != "loss"}

        return tr.TrainConfig(loss=LossConfig(**values(LossConfig)), **values(tr.TrainConfig))

    def fit(self, X, y=None):
        """Train on a directory of P6 images or a list of (H, W, 3) rasters."""
        config = self._train_config()
        kind, source = check_data_source(X)
        if kind == "dir":
            patches = tr.load_patches(source, config.patch_size, config.num_patches,
                                      config.seed)
        else:
            rng = np.random.default_rng(config.seed)
            patches = tr.sample_patches(source, config.patch_size, config.num_patches, rng)
        checkpoint, history = tr.train_on_patches(patches, config)
        self.params_ = checkpoint.params
        self.adam_ = checkpoint.adam
        self.config_ = config
        self.history_ = history
        return self

    def transform(self, X):
        """Compress images into standard JFIF byte streams."""
        check_is_fitted(self)
        return [pl.encode_stream(img, self.params_, self.config_.pipeline)
                for img in check_image_list(X)]

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)

    def inverse_transform(self, streams):
        """Decode JFIF streams (from transform or any baseline encoder)."""
        if isinstance(streams, (bytes, bytearray)):
            streams = [streams]
        return [decode_baseline(s) for s in streams]

    def quantization_tables(self):
        """The learned integer tables as a QuantTablePair."""
        check_is_fitted(self)
        return pl.export_tables(self.params_.tables)

    def save(self, path):
        check_is_fitted(self)
        ckpt = tr.TrainingCheckpoint(self.params_, self.adam_, self.config_,
                                     self.config_.steps)
        tr.save_checkpoint(ckpt, path)
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
