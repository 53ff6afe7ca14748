"""Patch ingestion, Adam with polynomial LR decay, the training loop and
the checkpoint format, plus evaluation against the baseline codec; the
train-log and eval-CSV schemas live next to the code that writes them."""

import json
import math
import os
import struct
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import pipeline as pl
from .autodiff import Tensor
from .codec import bits_per_pixel, entropy_encode, quantize_grids, read_ppm, reconstruct_raster
from .codec import tables_for_quality, transform_grids
from .editor import stem_forward
from .losses import ALIGNMENT_WEIGHT, MIN_MSSSIM_SIDE, loss_terms, msssim_db, psnr_from_mse
from .losses import ssim_and_msssim
from .losses import mse as mse_metric


# The types each scalar field accepts: those a checkpoint trailer writes as
# JSON, with an int for a float; a bool is never a number.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,)}


def _check_fields(config, *rules):
    """Raise ValueError naming the first field of a config dataclass whose
    value has the wrong type or is a NaN or infinite float, or that fails a
    rule: (its keys, space-separated, a predicate that must hold, what it
    needs)."""
    name = type(config).__name__
    for f in fields(config):
        value = getattr(config, f.name)
        accepted = _JSON_TYPES.get(f.type)
        if accepted and (not isinstance(value, accepted)
                         or (isinstance(value, bool) and f.type is not bool)):
            raise ValueError(f"{name} key {f.name!r} must be of type {f.type.__name__}, "
                             f"got {value!r}")
        # NaN fails every comparison; a huge int would overflow as a float.
        if f.type is float and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} key {f.name!r} must be finite, got {value!r}")
    for keys, ok, need in rules:
        for key in keys.split():
            value = getattr(config, key)
            if not ok(value):
                raise ValueError(f"{name} key {key!r} must be {need}, got {value!r}")


def _config_from_dict(cls, data):
    """Build a config dataclass from a JSON object, naming any unknown key;
    the class checks the values itself."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    return cls(**data)


@dataclass
class LossConfig:
    """Weights of the distortion / rate / alignment objective."""

    lam: float = 0.9
    gamma: float = 0.0
    sigma: float = 0.25
    alpha: float = 1e-3
    beta: float = 1e-3

    def __post_init__(self):
        _check_fields(self, ("lam", lambda v: 0 < v <= 0.99,
                             "in (0, 0.99] so all weights stay nonnegative"),
                      ("sigma", lambda v: 0.1 <= v <= 0.4, "in [0.1, 0.4]"),
                      ("gamma alpha beta", lambda v: v >= 0, ">= 0"))

    @property
    def rate_weight(self):
        return 1.0 - self.lam - ALIGNMENT_WEIGHT


@dataclass
class TrainConfig:
    steps: int = 200
    batch_size: int = 32
    patch_size: int = 256
    num_patches: int = 256
    # lr0 = 1.0 decayed to 1e-8 matches the original recipe but destabilizes
    # the compact stem; 3e-4 is the desk-scale default.  Both run.
    lr0: float = 3e-4
    lr_end: float = 1e-8
    decay_power: float = 1.0
    # Table parameters live at scale s, so their steps are scaled down.
    table_lr_scale: float = 1e-2
    seed: int = 0
    hidden_size: int = 64
    kwta_k: int = 32
    refine_steps: int = 3
    table_scale: float = 1e-5
    # The verbatim cubic correction (r - x)^3 has derivative -3(r - x)^2 <= 0,
    # which reverses every gradient crossing the quantizer and makes the loss
    # climb; training defaults to the ascending (x - r)^3 form.
    soft_round_alternate: bool = True
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if not isinstance(self.loss, LossConfig):
            self.loss = _config_from_dict(LossConfig, self.loss)
        _check_fields(self, ("steps batch_size num_patches hidden_size", lambda v: v >= 1, ">= 1"),
                      ("patch_size", lambda v: v > 0 and v % 8 == 0, "a positive multiple of 8"),
                      ("lr_end decay_power table_scale", lambda v: v > 0, "> 0"),
                      ("lr0", lambda v: v > self.lr_end, f"> lr_end {self.lr_end!r}"),
                      ("table_lr_scale seed kwta_k refine_steps", lambda v: v >= 0, ">= 0"))

    @property
    def pipeline(self):
        return pl.PipelineConfig(**{f.name: getattr(self, f.name)
                                    for f in fields(pl.PipelineConfig)})

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return _config_from_dict(cls, data)


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        _check_fields(self, ("step", lambda v: v >= 0, ">= 0"),
                      ("beta1 beta2", lambda v: 0 <= v < 1, "in [0, 1)"),
                      ("eps", lambda v: v > 0, "> 0"))


@dataclass
class TrainingCheckpoint:
    """Parameters, optimizer state and config; ``adam.step`` counts the
    updates taken, so a resumed run continues from there."""

    params: pl.PipelineParams
    adam: AdamState
    config: TrainConfig


def init_adam(named_params):
    m = {name: np.zeros_like(t.data) for name, t in named_params.items()}
    v = {name: np.zeros_like(t.data) for name, t in named_params.items()}
    return AdamState(m=m, v=v)


def poly_decay(lr0, lr_end, step, total, power):
    """(lr0 - lr_end) * (1 - step/total)^power + lr_end; clamps past the end."""
    if power <= 0:
        raise ValueError(f"decay power must be positive, got {power}")
    if step >= total:
        return lr_end
    frac = 1.0 - step / total
    return (lr0 - lr_end) * frac**power + lr_end


def adam_step(named_params, state, lr, lr_scales=None):
    """Bias-corrected Adam update in place; returns the updated state.

    ``lr_scales`` optionally maps parameter names to multipliers on the
    learning rate (used to keep the table parameters at their own scale).
    Parameters without a gradient are left untouched (their moments decay).
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for name, t in named_params.items():
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        elif not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        step_lr = lr * (lr_scales.get(name, 1.0) if lr_scales else 1.0)
        t.data -= step_lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


def _list_ppm_files(data_dir):
    names = sorted(n for n in os.listdir(data_dir) if n.lower().endswith(".ppm"))
    return [os.path.join(data_dir, n) for n in names]


def sample_patches(images, patch_size, count, rng):
    """Seeded uniform random crops from a pool of (H, W, 3) arrays."""
    usable = [img for img in images
              if img.shape[0] >= patch_size and img.shape[1] >= patch_size]
    if not usable:
        raise ValueError(f"no images of at least {patch_size}x{patch_size} to crop from")
    patches = []
    for _ in range(count):
        img = usable[rng.integers(len(usable))]
        top = rng.integers(img.shape[0] - patch_size + 1)
        left = rng.integers(img.shape[1] - patch_size + 1)
        patches.append(img[top : top + patch_size, left : left + patch_size].copy())
    return patches


def load_patches(data_dir, patch_size, count, seed):
    """Extract ``count`` random crops from the P6 images in a directory.

    Unreadable or undersized files are skipped with a warning; an empty
    usable set is an error.
    """
    rng = np.random.default_rng(seed)
    images = []
    for path in _list_ppm_files(data_dir):
        try:
            img = read_ppm(path)
        except (OSError, ValueError) as exc:
            warnings.warn(f"skipping {path}: {exc}")
            continue
        if img.shape[0] < patch_size or img.shape[1] < patch_size:
            warnings.warn(f"skipping {path}: smaller than {patch_size}x{patch_size}")
            continue
        images.append(img)
    if not images:
        raise ValueError(f"no usable training images in {data_dir}")
    return sample_patches(images, patch_size, count, rng)


def _table_lr_scales(params, config):
    return {name: config.table_lr_scale for name in params.tables.named()}


def _feature_fn(params):
    def features(image_tensor):
        x = ad.scalar_mul(ad.transpose(image_tensor, (0, 3, 1, 2)), 1.0 / 255.0)
        return stem_forward(x, params.stem)

    return features


def train_step(params, config, adam, batch, step):
    """One optimization step on a (B, H, W, 3) uint8 batch.

    Returns a record dict with the loss components and learning rate.
    """
    out = pl.forward(batch, params, config.pipeline, rounding="soft")
    x = Tensor(np.asarray(batch, dtype=np.float64))
    features = _feature_fn(params) if config.loss.gamma > 0 else None
    terms = loss_terms(x, out.reconstruction, params.tables, out.scores,
                       config.loss, features)
    for t in params.named().values():
        t.zero_grad()
    ad.backward(terms["total"])
    lr = poly_decay(config.lr0, config.lr_end, step, config.steps, config.decay_power)
    adam_step(params.named(), adam, lr, _table_lr_scales(params, config))
    params.tables.clamp_()
    return {
        "step": step + 1,
        "loss": terms["total"].item(),
        "d": terms["d"].item(),
        "r": terms["r"].item(),
        "al": terms["al"].item(),
        "lr": lr,
    }


def _step_rng(seed, step):
    return np.random.default_rng([seed, step])


# The training log: one CSV row per step, from the train_step record.
TRAIN_LOG_HEADER = "step,loss,d,r,al,lr"
_TRAIN_LOG_ROW = "{step},{loss:.6f},{d:.6f},{r:.6f},{al:.6f},{lr:.3e}"


def train_on_patches(patches, config, log=None, resume=None, stop_step=None):
    """Run the training loop over a fixed patch pool.

    ``resume`` continues from a TrainingCheckpoint; ``stop_step`` interrupts
    the schedule early (the LR schedule still spans config.steps).  Batches
    are drawn with a per-step seeded RNG, so an interrupted and resumed run
    reproduces the uninterrupted trajectory exactly.
    """
    if resume is not None:
        params, adam, start = resume.params, resume.adam, resume.adam.step
    else:
        params = pl.init_pipeline(config.pipeline, seed=config.seed)
        adam = init_adam(params.named())
        start = 0
    stop = config.steps if stop_step is None else min(stop_step, config.steps)
    pool = np.stack(patches)
    history = []
    for step in range(start, stop):
        rng = _step_rng(config.seed, step)
        batch = pool[rng.integers(len(pool), size=config.batch_size)]
        record = train_step(params, config, adam, batch, step)
        history.append(record)
        if log is not None:
            log(_TRAIN_LOG_ROW.format(**record))
    return TrainingCheckpoint(params, adam, config), history


def train(config, data_dir, out_path, log=None):
    """Dataset-driven training: crop patches, run the loop, save a checkpoint."""
    patches = load_patches(data_dir, config.patch_size, config.num_patches, config.seed)
    checkpoint, history = train_on_patches(patches, config, log=log)
    save_checkpoint(checkpoint, out_path)
    return checkpoint, history


# --- checkpoint serialization ------------------------------------------------
#
# A checkpoint file is a named-tensor container (parameters, then Adam
# moments under adam.m.* / adam.v.*) followed by a JSON trailer with the
# config snapshot and counters.  The container layout (all integers
# little-endian uint32): count, then per tensor: name length, name bytes
# (utf-8), rank, dims..., float64 little-endian payload.

_CHECKPOINT_FORMAT = "softjpeg-checkpoint-v1"
_MOMENTS = ("m", "v")
_ADAM_SCALARS = tuple(f.name for f in fields(AdamState) if f.name not in _MOMENTS)


class CheckpointFormatError(ValueError):
    """A named-tensor container or checkpoint is truncated or malformed."""


def save_tensors(named):
    """Serialize a {name: array} mapping into a named-tensor container."""
    out = bytearray(struct.pack("<I", len(named)))
    for name, value in named.items():
        data = np.asarray(value, dtype=np.float64)
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded
        out += struct.pack("<I", data.ndim)
        out += struct.pack(f"<{data.ndim}I", *data.shape)
        out += np.ascontiguousarray(data, dtype="<f8").tobytes()
    return bytes(out)


def load_tensors(blob):
    """Parse a named-tensor container; returns ({name: ndarray}, end_offset).

    Every count and length is checked against the bytes left before anything
    is allocated, so a truncated or corrupt blob raises CheckpointFormatError.
    """
    pos = 0

    def take(nbytes, what):
        nonlocal pos
        if nbytes > len(blob) - pos:
            raise CheckpointFormatError(f"named-tensor container truncated in {what}")
        pos += nbytes
        return pos - nbytes

    def u32(what):
        return struct.unpack_from("<I", blob, take(4, what))[0]

    count = u32("the tensor count")
    # The smallest entry is 12 bytes: name length, rank 1 and one zero dim.
    if count * 12 > len(blob) - pos:
        raise CheckpointFormatError(f"{count} tensors cannot fit in {len(blob) - pos} bytes")
    named = {}
    for _ in range(count):
        nlen = u32("a name length")
        start = take(nlen, "a tensor name")
        try:
            name = blob[start:pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"tensor name is not UTF-8: {exc}") from exc
        rank = u32(f"the rank of {name!r}")
        dims = struct.unpack_from(f"<{rank}I", blob, take(4 * rank, f"the dims of {name!r}"))
        n = math.prod(dims)
        start = take(8 * n, f"the payload of {name!r}")
        try:  # dims holding a zero pass the size check but may overflow a shape
            named[name] = np.frombuffer(blob, "<f8", count=n, offset=start).reshape(dims).copy()
        except ValueError as exc:
            raise CheckpointFormatError(f"{name!r} has an impossible shape {dims}") from exc
    return named, pos


def checkpoint_bytes(ckpt):
    named = {name: t.data for name, t in ckpt.params.named().items()}
    for moment in _MOMENTS:
        for name, value in getattr(ckpt.adam, moment).items():
            named[f"adam.{moment}.{name}"] = value
    trailer = {
        "format": _CHECKPOINT_FORMAT,
        "step": ckpt.adam.step,
        "adam": {name: getattr(ckpt.adam, name) for name in _ADAM_SCALARS},
        "config": ckpt.config.to_dict(),
    }
    return save_tensors(named) + json.dumps(trailer, sort_keys=True).encode("utf-8")


def checkpoint_from_bytes(blob):
    """Parse a checkpoint; a truncated or malformed blob raises CheckpointFormatError."""
    named, end = load_tensors(blob)
    try:
        trailer = json.loads(blob[end:].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointFormatError(f"unreadable checkpoint trailer: {exc}") from exc
    if not isinstance(trailer, dict) or trailer.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointFormatError(f"not a {_CHECKPOINT_FORMAT} checkpoint")
    try:
        config = TrainConfig.from_dict(trailer["config"])
        # init_pipeline allocates hidden_size^2 values for smrnn.Vf alone.
        if config.hidden_size ** 2 > sum(value.size for value in named.values()):
            raise CheckpointFormatError(f"hidden_size {config.hidden_size} does not fit "
                                        "the stored tensors")
        params = pl.init_pipeline(config.pipeline)
        for name, t in params.named().items():
            for key in (name, *(f"adam.{moment}.{name}" for moment in _MOMENTS)):
                if named[key].shape != t.shape:
                    raise CheckpointFormatError(f"tensor {key!r} has shape {named[key].shape}, "
                                                f"expected {t.shape}")
            t.data = named[name]
        moments = {moment: {n: named[f"adam.{moment}.{n}"] for n in params.named()}
                   for moment in _MOMENTS}
        adam = _config_from_dict(AdamState, {**moments, **{name: trailer["adam"][name]
                                                           for name in _ADAM_SCALARS}})
        step = trailer["step"]
        if type(step) is not int or step != adam.step:
            raise CheckpointFormatError(f"step {step!r} must be an int equal to "
                                        f"the Adam step {adam.step!r}")
        return TrainingCheckpoint(params, adam, config)
    except CheckpointFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint: {exc!r}") from exc


def save_checkpoint(ckpt, path):
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(ckpt))


def load_checkpoint(path):
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())


# --- evaluation ----------------------------------------------------------------


def _match_baseline_quality(image, target_bpp):
    """Binary-search the quality whose baseline bpp is nearest the target;
    returns (quality, bpp, quantized grids, tables).  Every probe is
    entropy-coded, since its bpp is the stream's exact length."""
    h, w = image.shape[:2]
    coefficients = transform_grids(image)  # the same for every probe

    def encode(q):
        tables = tables_for_quality(q)
        grids = quantize_grids(coefficients, tables)
        return q, bits_per_pixel(entropy_encode(grids, tables), w, h), grids, tables

    lo, hi = encode(1), encode(100)
    if target_bpp <= lo[1]:
        return lo
    if target_bpp >= hi[1]:
        return hi
    while hi[0] - lo[0] > 1:
        mid = encode((lo[0] + hi[0]) // 2)
        if mid[1] < target_bpp:
            lo = mid
        else:
            hi = mid
    return lo if abs(lo[1] - target_bpp) <= abs(hi[1] - target_bpp) else hi


def _metric_row(image_id, bpp, original, decoded):
    err = mse_metric(np.asarray(original, float), np.asarray(decoded, float))
    single, ms = ssim_and_msssim(original, decoded)
    return {
        "image_id": image_id,
        "bpp": bpp,
        "psnr_db": psnr_from_mse(err),
        "ssim": single,
        "msssim": ms,
        "msssim_db": msssim_db(ms),
        "mse": err,
    }


# The eval CSV: two rows per image, from the _metric_row dicts.
CSV_HEADER = "image_id,bpp,psnr_db,ssim,msssim,msssim_db,mse"
_CSV_ROW = "{image_id},{bpp:.6f},{psnr_db:.6f},{ssim:.6f},{msssim:.6f},{msssim_db:.6f},{mse:.6f}"


def _read_eval_image(path):
    """The PPM at ``path``; ValueError, naming it, if MS-SSIM cannot measure it."""
    image = read_ppm(path)
    if min(image.shape[:2]) < MIN_MSSSIM_SIDE:
        height, width = image.shape[:2]
        raise ValueError(f"{path}: eval needs images of at least {MIN_MSSSIM_SIDE}x"
                         f"{MIN_MSSSIM_SIDE} pixels for MS-SSIM, got {width}x{height}")
    return image


def evaluate(checkpoint, data_dir, csv_out=None):
    """Neural-pipeline and bpp-matched baseline metrics for every image.

    The baseline row is measured on the raster ``reconstruct_raster`` makes
    from the matched quality's quantized grids, bit for bit what decoding
    that quality's stream gives.  Every image is read and checked before
    the first forward pass: one under ``MIN_MSSSIM_SIDE`` pixels on a side
    raises ValueError, naming its file, before any image is evaluated.
    Returns the row dicts (two per image); optionally writes them as CSV in
    the ``CSV_HEADER`` schema.
    """
    params, config = checkpoint.params, checkpoint.config
    paths = _list_ppm_files(data_dir)
    for path in paths:
        _read_eval_image(path)
    rows = []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        image = _read_eval_image(path)
        with ad.no_grad():
            out = pl.forward(image, params, config.pipeline, rounding="hard", measure_rate=True)
        recon = np.clip(np.rint(out.reconstruction.data[0]), 0, 255).astype(np.uint8)
        neural_bpp = out.bpp[0]
        rows.append(_metric_row(f"{name}#neural", neural_bpp, image, recon))

        quality, base_bpp, grids, tables = _match_baseline_quality(image, neural_bpp)
        decoded = reconstruct_raster(grids, tables)
        rows.append(_metric_row(f"{name}#jpeg-q{quality}", base_bpp, image, decoded))

    if csv_out is not None:
        with open(csv_out, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(_CSV_ROW.format(**row) + "\n")
    return rows
