"""softjpeg: a baseline JPEG codec plus a differentiable twin of the same
pipeline, in which learned quantization tables and sparse recurrent
coefficient edits are trained jointly by gradient descent.  Learned tables
export into standard bitstreams that any stock JPEG decoder can read.

The estimator front end::

    from softjpeg import LearnedJpeg
    codec = LearnedJpeg(steps=200).fit(list_of_images)
    streams = codec.transform(list_of_images)   # standard .jpg bytes
    rasters = codec.inverse_transform(streams)

The plain baseline codec lives in :mod:`softjpeg.codec`; the training loop
and checkpoints in :mod:`softjpeg.training`; the differentiable pipeline in
:mod:`softjpeg.pipeline`.
"""

__version__ = "0.1.0"

from . import autodiff, codec, editor, losses, pipeline, training
from .estimator import LearnedJpeg, NotFittedError
from .losses import LossConfig
from .training import TrainConfig

__all__ = [
    "LearnedJpeg",
    "LossConfig",
    "NotFittedError",
    "TrainConfig",
    "__version__",
    "autodiff",
    "codec",
    "editor",
    "losses",
    "pipeline",
    "training",
]
